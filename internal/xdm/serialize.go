package xdm

import (
	"fmt"
	"sort"
	"strings"
)

// EscapeText escapes XML text content: the three markup characters, plus
// carriage return as a character reference — parsers normalize a literal
// CR to LF (XML 1.0 §2.11), so only &#xD; round-trips.
func EscapeText(s string) string {
	if !strings.ContainsAny(s, "&<>\r") {
		return s
	}
	return string(AppendEscapedText(make([]byte, 0, len(s)+8), s))
}

// AppendEscapedText appends EscapeText(s) to dst — the allocation-free
// form for callers assembling escaped text in a buffer of their own. The
// runs between the specials are copied as they are, so bytes that are not
// valid UTF-8 pass through unchanged, escaped or not.
func AppendEscapedText(dst []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); i++ {
		var esc string
		switch s[i] {
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '\r':
			esc = "&#xD;"
		default:
			continue
		}
		dst = append(append(dst, s[last:i]...), esc...)
		last = i + 1
	}
	return append(dst, s[last:]...)
}

// escapeAttr escapes XML attribute values: text escapes plus quotes, plus
// tab and newline as character references — attribute-value normalization
// (XML 1.0 §3.3.3) turns the literal characters into spaces.
func escapeAttr(s string) string {
	s = EscapeText(s)
	s = strings.ReplaceAll(s, `"`, "&quot;")
	s = strings.ReplaceAll(s, "\t", "&#x9;")
	return strings.ReplaceAll(s, "\n", "&#xA;")
}

// Marshal serializes a node to compact XML (no indentation). Namespace
// declarations are emitted for prefixed names, with the prefix-to-URI map
// gathered from the subtree.
func Marshal(n Node) string {
	var b strings.Builder
	marshalNode(&b, n)
	return b.String()
}

// MarshalSequence serializes every node in the sequence and the lexical
// form of every atomic item, space-separating adjacent atomics, which is
// XQuery's default sequence serialization.
func MarshalSequence(s Sequence) string {
	var b strings.Builder
	prevAtomic := false
	for _, it := range s {
		switch v := it.(type) {
		case Node:
			marshalNode(&b, v)
			prevAtomic = false
		case Atomic:
			if prevAtomic {
				b.WriteByte(' ')
			}
			b.WriteString(EscapeText(v.Lexical()))
			prevAtomic = true
		}
	}
	return b.String()
}

func marshalNode(b *strings.Builder, n Node) {
	switch n := tree(n).(type) {
	case *Text:
		b.WriteString(EscapeText(n.Value))
	case *Element:
		marshalElement(b, n, nil)
	case *Document:
		for _, c := range n.Children {
			marshalNode(b, c)
		}
	case *Attr:
		// A bare attribute outside an element serializes as its value.
		b.WriteString(EscapeText(n.Value))
	}
}

func marshalElement(b *strings.Builder, e *Element, declared map[string]string) {
	b.WriteByte('<')
	b.WriteString(e.Name.String())
	// Emit a namespace declaration when the element's name is in a
	// namespace not yet declared on an ancestor.
	var localDecl map[string]string
	if e.Name.Space != "" && declared[e.Name.Prefix] != e.Name.Space {
		localDecl = map[string]string{}
		for k, v := range declared {
			localDecl[k] = v
		}
		localDecl[e.Name.Prefix] = e.Name.Space
		if e.Name.Prefix == "" {
			fmt.Fprintf(b, ` xmlns=%q`, e.Name.Space)
		} else {
			fmt.Fprintf(b, ` xmlns:%s=%q`, e.Name.Prefix, e.Name.Space)
		}
	}
	scope := declared
	if localDecl != nil {
		scope = localDecl
	}
	for _, a := range e.Attrs {
		b.WriteByte(' ')
		b.WriteString(a.Name.String())
		b.WriteString(`="`)
		b.WriteString(escapeAttr(a.Value))
		b.WriteByte('"')
	}
	if len(e.Children) == 0 {
		b.WriteString("/>")
		return
	}
	b.WriteByte('>')
	for _, c := range e.Children {
		switch c := tree(c).(type) {
		case *Text:
			b.WriteString(EscapeText(c.Value))
		case *Element:
			marshalElement(b, c, scope)
		}
	}
	b.WriteString("</")
	b.WriteString(e.Name.String())
	b.WriteByte('>')
}

// MarshalIndent serializes a node with two-space indentation, for human
// consumption (shell output, examples, documentation).
func MarshalIndent(n Node) string {
	var b strings.Builder
	marshalIndentNode(&b, n, 0)
	return b.String()
}

func marshalIndentNode(b *strings.Builder, n Node, depth int) {
	switch n := tree(n).(type) {
	case *Text:
		indent(b, depth)
		b.WriteString(EscapeText(n.Value))
		b.WriteByte('\n')
	case *Document:
		for _, c := range n.Children {
			marshalIndentNode(b, c, depth)
		}
	case *Element:
		indent(b, depth)
		if onlyText(n) {
			var inner strings.Builder
			marshalElement(&inner, n, nil)
			b.WriteString(inner.String())
			b.WriteByte('\n')
			return
		}
		b.WriteByte('<')
		b.WriteString(n.Name.String())
		if n.Name.Space != "" {
			if n.Name.Prefix == "" {
				fmt.Fprintf(b, ` xmlns=%q`, n.Name.Space)
			} else {
				fmt.Fprintf(b, ` xmlns:%s=%q`, n.Name.Prefix, n.Name.Space)
			}
		}
		for _, a := range n.Attrs {
			fmt.Fprintf(b, ` %s="%s"`, a.Name, escapeAttr(a.Value))
		}
		if len(n.Children) == 0 {
			b.WriteString("/>\n")
			return
		}
		b.WriteString(">\n")
		for _, c := range n.Children {
			marshalIndentNode(b, c, depth+1)
		}
		indent(b, depth)
		b.WriteString("</")
		b.WriteString(n.Name.String())
		b.WriteString(">\n")
	}
}

func onlyText(e *Element) bool {
	for _, c := range e.Children {
		if _, ok := c.(*Text); !ok {
			return false
		}
	}
	return true
}

func indent(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
}

// SortKey builds a deterministic string key for a row element (an Element
// or a Record), used when the engine needs set semantics over rows
// (UNION/INTERSECT/EXCEPT, DISTINCT). Columns contribute name=value pairs;
// absent columns (SQL NULL) are distinguishable from empty strings.
func SortKey(n Node) string {
	var parts []string
	Columns(n, func(name, text string) bool {
		parts = append(parts, name+"\x00="+text)
		return true
	})
	return strings.Join(parts, "\x00|")
}

// SortedAtomics returns a copy of the sequence's atomic items in ascending
// order; non-atomic items are atomized first. Used by distinct-values and
// by tests that need order-insensitive comparison.
func SortedAtomics(s Sequence) []Atomic {
	atoms := make([]Atomic, 0, len(s))
	for _, it := range Atomize(s) {
		if a, ok := it.(Atomic); ok {
			atoms = append(atoms, a)
		}
	}
	sort.Slice(atoms, func(i, j int) bool {
		c, err := OrderAtomic(atoms[i], atoms[j])
		if err != nil {
			return atoms[i].Lexical() < atoms[j].Lexical()
		}
		return c < 0
	})
	return atoms
}
