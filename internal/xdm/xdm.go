// Package xdm implements the subset of the XQuery 1.0 Data Model that the
// AquaLogic-style SQL-to-XQuery pipeline needs: sequences of items, where an
// item is either an atomic value (typed per XML Schema) or an XML node.
//
// The package also provides the data-model operations the XQuery evaluator is
// built on: atomization (fn:data), string value, effective boolean value,
// value and general comparisons with type promotion, arithmetic, and casts.
package xdm

import (
	"fmt"
	"strings"
)

// Item is a single member of an XQuery sequence: an atomic value or a node.
type Item interface {
	// Kind reports the item's dynamic kind for diagnostics and dispatch.
	Kind() ItemKind
	// String returns a human-readable rendering (not XML serialization;
	// see Marshal for that).
	String() string
}

// ItemKind discriminates the dynamic type of an Item.
type ItemKind int

// Item kinds.
const (
	KindAtomic ItemKind = iota
	KindElement
	KindText
	KindAttribute
	KindDocument
)

func (k ItemKind) String() string {
	switch k {
	case KindAtomic:
		return "atomic"
	case KindElement:
		return "element"
	case KindText:
		return "text"
	case KindAttribute:
		return "attribute"
	case KindDocument:
		return "document"
	default:
		return fmt.Sprintf("ItemKind(%d)", int(k))
	}
}

// Sequence is the universal value of the XQuery data model: an ordered list
// of items. A nil or empty Sequence is the empty sequence, which plays the
// role of SQL NULL throughout the translation scheme.
type Sequence []Item

// Empty reports whether the sequence has no items (XQuery fn:empty).
func (s Sequence) Empty() bool { return len(s) == 0 }

// Singleton returns the sole item of a one-item sequence.
// It returns an error for the empty sequence or a longer one.
func (s Sequence) Singleton() (Item, error) {
	switch len(s) {
	case 1:
		return s[0], nil
	case 0:
		return nil, fmt.Errorf("xdm: expected singleton, got empty sequence")
	default:
		return nil, fmt.Errorf("xdm: expected singleton, got sequence of %d items", len(s))
	}
}

// Append returns s extended with items; it exists for readability at call
// sites that assemble result sequences.
func (s Sequence) Append(items ...Item) Sequence { return append(s, items...) }

// Concat concatenates sequences into a new sequence.
func Concat(seqs ...Sequence) Sequence {
	n := 0
	for _, s := range seqs {
		n += len(s)
	}
	out := make(Sequence, 0, n)
	for _, s := range seqs {
		out = append(out, s...)
	}
	return out
}

// SequenceOf builds a sequence from items, dropping nils.
func SequenceOf(items ...Item) Sequence {
	out := make(Sequence, 0, len(items))
	for _, it := range items {
		if it != nil {
			out = append(out, it)
		}
	}
	return out
}

func (s Sequence) String() string {
	parts := make([]string, len(s))
	for i, it := range s {
		parts[i] = it.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// QName is an expanded XML name. Prefix is retained for serialization only;
// equality is by namespace URI and local part, per the XML data model.
type QName struct {
	Space  string // namespace URI, may be empty
	Prefix string // lexical prefix used when serializing, may be empty
	Local  string
}

// Equal reports whether two names match by (namespace, local) pair.
func (q QName) Equal(o QName) bool { return q.Space == o.Space && q.Local == o.Local }

func (q QName) String() string {
	if q.Prefix != "" {
		return q.Prefix + ":" + q.Local
	}
	return q.Local
}

// Node is an XML node item. The model keeps only what the JDBC-driver
// pipeline touches: documents, elements, attributes and text.
type Node interface {
	Item
	// StringValue returns the node's string value per the XQuery data
	// model (concatenation of descendant text for elements/documents).
	StringValue() string
}

// Attr is an attribute node attached to an element.
type Attr struct {
	Name  QName
	Value string
}

// Kind implements Item.
func (a *Attr) Kind() ItemKind { return KindAttribute }

// StringValue implements Node.
func (a *Attr) StringValue() string { return a.Value }

func (a *Attr) String() string { return fmt.Sprintf("attribute %s=%q", a.Name, a.Value) }

// Text is a text node.
type Text struct {
	Value string
}

// Kind implements Item.
func (t *Text) Kind() ItemKind { return KindText }

// StringValue implements Node.
func (t *Text) StringValue() string { return t.Value }

func (t *Text) String() string { return fmt.Sprintf("text %q", t.Value) }

// Element is an element node with attributes and ordered children
// (elements and text nodes).
type Element struct {
	Name     QName
	Attrs    []*Attr
	Children []Node
}

// Kind implements Item.
func (e *Element) Kind() ItemKind { return KindElement }

// StringValue implements Node: the concatenated text of all descendants.
func (e *Element) StringValue() string {
	// A flat row's column element holds at most one text node: return it
	// as is instead of copying it through a builder.
	switch len(e.Children) {
	case 0:
		return ""
	case 1:
		if t, ok := e.Children[0].(*Text); ok {
			return t.Value
		}
	}
	var b strings.Builder
	e.appendText(&b)
	return b.String()
}

func (e *Element) appendText(b *strings.Builder) {
	for _, c := range e.Children {
		switch c := c.(type) {
		case *Text:
			b.WriteString(c.Value)
		case *Element:
			c.appendText(b)
		case *Record:
			b.WriteString(c.StringValue())
		}
	}
}

func (e *Element) String() string { return fmt.Sprintf("element %s", e.Name) }

// AddChild appends a child node.
func (e *Element) AddChild(n Node) { e.Children = append(e.Children, n) }

// AddText appends a text child (no-op for the empty string, matching the
// data model's prohibition on empty text nodes).
func (e *Element) AddText(s string) {
	if s != "" {
		e.Children = append(e.Children, &Text{Value: s})
	}
}

// SetAttr sets or replaces an attribute by name.
func (e *Element) SetAttr(name QName, value string) {
	for _, a := range e.Attrs {
		if a.Name.Equal(name) {
			a.Value = value
			return
		}
	}
	e.Attrs = append(e.Attrs, &Attr{Name: name, Value: value})
}

// Attribute returns the value of the named attribute.
func (e *Element) Attribute(local string) (string, bool) {
	for _, a := range e.Attrs {
		if a.Name.Local == local {
			return a.Value, true
		}
	}
	return "", false
}

// ChildElements returns the element children whose local name matches local,
// a Record child as the element it stands for. A "*" local name matches
// every element child.
func (e *Element) ChildElements(local string) []*Element {
	var out []*Element
	for _, c := range e.Children {
		if l := LocalName(c); l != "" && (local == "*" || l == local) {
			out = append(out, tree(c).(*Element))
		}
	}
	return out
}

// FirstChildElement returns the first element child with the local name, or
// nil if absent. Absence of a column element is how SQL NULL travels.
func (e *Element) FirstChildElement(local string) *Element {
	for _, c := range e.Children {
		if LocalName(c) == local {
			return tree(c).(*Element)
		}
	}
	return nil
}

// tree is n with a Record built as the Element it stands for.
func tree(n Node) Node {
	if r, ok := n.(*Record); ok {
		return r.Element()
	}
	return n
}

// Clone returns a deep copy of the element.
func (e *Element) Clone() *Element {
	cp := &Element{Name: e.Name}
	if len(e.Attrs) > 0 {
		cp.Attrs = make([]*Attr, len(e.Attrs))
		for i, a := range e.Attrs {
			dup := *a
			cp.Attrs[i] = &dup
		}
	}
	if len(e.Children) > 0 {
		cp.Children = make([]Node, len(e.Children))
		for i, c := range e.Children {
			switch c := c.(type) {
			case *Element:
				cp.Children[i] = c.Clone()
			case *Text:
				cp.Children[i] = &Text{Value: c.Value}
			default:
				cp.Children[i] = c
			}
		}
	}
	return cp
}

// Document is a document node; the pipeline uses it only when parsing whole
// XML payloads on the result-handling path.
type Document struct {
	Children []Node
}

// Kind implements Item.
func (d *Document) Kind() ItemKind { return KindDocument }

// StringValue implements Node.
func (d *Document) StringValue() string {
	var b strings.Builder
	for _, c := range d.Children {
		switch c := c.(type) {
		case *Text:
			b.WriteString(c.Value)
		case *Element:
			c.appendText(&b)
		}
	}
	return b.String()
}

func (d *Document) String() string { return "document" }

// Root returns the document's root element, or nil.
func (d *Document) Root() *Element {
	for _, c := range d.Children {
		if el, ok := c.(*Element); ok {
			return el
		}
	}
	return nil
}

// NewElement is a convenience constructor for an element with a local name
// in no namespace.
func NewElement(local string) *Element { return &Element{Name: QName{Local: local}} }

// NewTextElement builds <local>text</local>.
func NewTextElement(local, text string) *Element {
	e := NewElement(local)
	e.AddText(text)
	return e
}

// Atomize implements fn:data over a sequence: atomic items pass through,
// nodes contribute their typed value. Untyped node content becomes
// xs:untypedAtomic so that comparisons can promote it contextually.
func Atomize(s Sequence) Sequence {
	out := make(Sequence, 0, len(s))
	for _, it := range s {
		switch v := it.(type) {
		case Node:
			out = append(out, Untyped(v.StringValue()))
		default:
			out = append(out, it)
		}
	}
	return out
}

// StringValue returns the string value of any item.
func StringValue(it Item) string {
	switch v := it.(type) {
	case Node:
		return v.StringValue()
	case Atomic:
		return v.Lexical()
	default:
		return it.String()
	}
}

// EffectiveBool computes the XQuery effective boolean value of a sequence:
// empty is false; a sequence whose first item is a node is true; a singleton
// boolean/number/string follows the usual rules.
func EffectiveBool(s Sequence) (bool, error) {
	if len(s) == 0 {
		return false, nil
	}
	if _, ok := s[0].(Node); ok {
		return true, nil
	}
	if len(s) > 1 {
		return false, fmt.Errorf("xdm: effective boolean value of sequence of %d atomic items is undefined", len(s))
	}
	switch v := s[0].(type) {
	case Boolean:
		return bool(v), nil
	case String:
		return len(v) > 0, nil
	case Untyped:
		return len(v) > 0, nil
	case Integer:
		return v != 0, nil
	case Decimal:
		return v != 0, nil
	case Double:
		return v == v && v != 0, nil // NaN is false
	default:
		return false, fmt.Errorf("xdm: effective boolean value undefined for %s", s[0].Kind())
	}
}

// DeepEqual reports whether two sequences are deep-equal per fn:deep-equal
// (pairwise: atomic values compare eq, nodes compare structurally).
func DeepEqual(a, b Sequence) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !deepEqualItem(a[i], b[i]) {
			return false
		}
	}
	return true
}

func deepEqualItem(a, b Item) bool {
	an, aok := a.(Node)
	bn, bok := b.(Node)
	if aok != bok {
		return false
	}
	if aok {
		return deepEqualNode(an, bn)
	}
	av, aIsAtomic := a.(Atomic)
	bv, bIsAtomic := b.(Atomic)
	if !aIsAtomic || !bIsAtomic {
		return false
	}
	eq, err := CompareAtomic(av, bv, OpEq)
	return err == nil && eq
}

func deepEqualNode(a, b Node) bool {
	a, b = tree(a), tree(b)
	switch a := a.(type) {
	case *Text:
		bt, ok := b.(*Text)
		return ok && a.Value == bt.Value
	case *Attr:
		ba, ok := b.(*Attr)
		return ok && a.Name.Equal(ba.Name) && a.Value == ba.Value
	case *Element:
		be, ok := b.(*Element)
		if !ok || !a.Name.Equal(be.Name) || len(a.Attrs) != len(be.Attrs) || len(a.Children) != len(be.Children) {
			return false
		}
		for _, attr := range a.Attrs {
			v, found := be.Attribute(attr.Name.Local)
			if !found || v != attr.Value {
				return false
			}
		}
		for i := range a.Children {
			if !deepEqualNode(a.Children[i], be.Children[i]) {
				return false
			}
		}
		return true
	case *Document:
		bd, ok := b.(*Document)
		if !ok || len(a.Children) != len(bd.Children) {
			return false
		}
		for i := range a.Children {
			if !deepEqualNode(a.Children[i], bd.Children[i]) {
				return false
			}
		}
		return true
	default:
		return false
	}
}
