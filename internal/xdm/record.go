package xdm

import "strings"

// RecordShape is what every record of one constructor shares: the record's
// element name and its columns' element names, by slot.
type RecordShape struct {
	Name string
	Cols []string
}

// Record is an element of simple-typed column elements stored flat, at most
// 64 and never changed once built: a text and a presence bit per column, so
// NULL (no element) stays apart from empty (<C/>). It serializes, compares
// and atomizes as the Element that Element builds.
type Record struct {
	Shape   *RecordShape
	Cells   []string
	Present uint64 // bit i: column i is present
}

// Kind implements Item.
func (r *Record) Kind() ItemKind { return KindElement }

func (r *Record) String() string { return "element " + r.Shape.Name }

func (r *Record) has(i int) bool { return r.Present&(1<<i) != 0 }

// StringValue implements Node: the present columns' texts, concatenated.
func (r *Record) StringValue() string {
	var b strings.Builder
	Columns(r, func(_, text string) bool { b.WriteString(text); return true })
	return b.String()
}

// Element builds the element r stands for.
func (r *Record) Element() *Element {
	el := NewElement(r.Shape.Name)
	Columns(r, func(name, text string) bool { el.AddChild(NewTextElement(name, text)); return true })
	return el
}

// LocalName is the local name of an element node, an Element or a Record,
// and "" for any other node or nil.
func LocalName(n Node) string {
	switch n := n.(type) {
	case *Element:
		return n.Name.Local
	case *Record:
		return n.Shape.Name
	}
	return ""
}

// Columns calls yield with the name and text of each of n's columns in
// order (element children, or present cells) until yield returns false.
func Columns(n Node, yield func(name, text string) bool) {
	switch n := n.(type) {
	case *Record:
		for i, name := range n.Shape.Cols {
			if n.has(i) && !yield(name, n.Cells[i]) {
				return
			}
		}
	case *Element:
		for _, c := range n.Children {
			if name := LocalName(c); name != "" && !yield(name, c.StringValue()) {
				return
			}
		}
	}
}

// Column returns the text of n's first column named name, and how many
// columns of that name n has: fn:data(n/name) when that is one value.
func Column(n Node, name string) (first string, count int) {
	switch n := n.(type) {
	case *Element:
		for _, c := range n.Children {
			if el, ok := c.(*Element); ok && el.Name.Local == name || !ok && LocalName(c) == name {
				if count++; count == 1 {
					first = c.StringValue()
				}
			}
		}
	case *Record:
		first, i := NextColumn(n, name, 0)
		for ; i >= 0; _, i = NextColumn(n, name, i) {
			count++
		}
		return first, count
	}
	return first, count
}

// NextColumn returns the text of n's first column named name from child i
// on and where the next search starts, -1 if none: a resumable Column.
func NextColumn(n Node, name string, i int) (text string, next int) {
	switch n := n.(type) {
	case *Element:
		for j, c := range n.Children[i:] {
			if el, ok := c.(*Element); ok && el.Name.Local == name || !ok && LocalName(c) == name {
				return c.StringValue(), i + j + 1
			}
		}
	case *Record:
		for j, c := range n.Shape.Cols[i:] {
			if c == name && n.has(i+j) {
				return n.Cells[i+j], i + j + 1
			}
		}
	}
	return "", -1
}

// AppendChildren appends the child step n/name ("*": any name) to dst; only
// here are a Record's columns built as elements.
func AppendChildren(dst Sequence, n Node, name string) Sequence {
	switch n := n.(type) {
	case *Record:
		for i, c := range n.Shape.Cols {
			if n.has(i) && (name == "*" || c == name) {
				dst = append(dst, NewTextElement(c, n.Cells[i]))
			}
		}
	case *Element:
		for _, c := range n.Children {
			if l := LocalName(c); l != "" && (name == "*" || l == name) {
				dst = append(dst, c)
			}
		}
	}
	return dst
}
