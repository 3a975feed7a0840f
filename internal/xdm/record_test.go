package xdm

import (
	"slices"
	"testing"
)

// TestRecordIsItsElement builds each case both as a flat Record and as the
// Element it stands for, and checks every data-model operation sees the
// same node: serialized compact and indented (alone and as a RECORDSET
// child), string value, deep equality both ways, sort key, atomized
// value, and each column read.
func TestRecordIsItsElement(t *testing.T) {
	shape := &RecordShape{Name: "RECORD", Cols: []string{"A.X", "A.Y", "B.Z"}}
	for _, c := range []struct {
		name    string
		cells   []string
		present uint64
	}{
		{"a NULL column", []string{"1", "", "z"}, 0b101},
		{"a present empty column", []string{"1", "", "z"}, 0b111},
		{"all NULL", []string{"", "", ""}, 0},
		{"specials", []string{"a&b", "<c>", "d\re"}, 0b111},
		{"invalid UTF-8", []string{"\xff\xfe", "ok\x80", "\xc3"}, 0b011},
	} {
		rec := &Record{Shape: shape, Cells: c.cells, Present: c.present}
		el := NewElement("RECORD")
		for i, name := range shape.Cols {
			if c.present&(1<<i) != 0 {
				el.AddChild(NewTextElement(name, c.cells[i]))
			}
		}
		set := func(n Node) *Element {
			s := NewElement("RECORDSET")
			s.AddChild(n)
			return s
		}
		for _, check := range []struct {
			what      string
			got, want string
		}{
			{"Marshal", Marshal(rec), Marshal(el)},
			{"MarshalIndent", MarshalIndent(rec), MarshalIndent(el)},
			{"Marshal in a RECORDSET", Marshal(set(rec)), Marshal(set(el))},
			{"MarshalIndent in a RECORDSET", MarshalIndent(set(rec)), MarshalIndent(set(el))},
			{"StringValue", rec.StringValue(), el.StringValue()},
			{"RECORDSET StringValue", set(rec).StringValue(), set(el).StringValue()},
			{"SortKey", SortKey(rec), SortKey(el)},
			{"Atomize", Atomize(Sequence{rec}).String(), Atomize(Sequence{el}).String()},
			{"Element", Marshal(rec.Element()), Marshal(el)},
		} {
			if check.got != check.want {
				t.Errorf("%s: %s: record %q, element %q", c.name, check.what, check.got, check.want)
			}
		}
		if !DeepEqual(Sequence{rec}, Sequence{el}) || !DeepEqual(Sequence{el}, Sequence{rec}) {
			t.Errorf("%s: record and element are not deep-equal both ways", c.name)
		}
		if !DeepEqual(Sequence{set(rec)}, Sequence{set(el)}) || !DeepEqual(Sequence{set(el)}, Sequence{set(rec)}) {
			t.Errorf("%s: RECORDSETs of record and element are not deep-equal both ways", c.name)
		}
		texts := func(n Node, name string) (out []string) {
			for text, i := NextColumn(n, name, 0); i >= 0; text, i = NextColumn(n, name, i) {
				out = append(out, text)
			}
			return out
		}
		for _, name := range append(shape.Cols, "NONE") {
			rt, rn := Column(rec, name)
			et, en := Column(el, name)
			if rt != et || rn != en || !slices.Equal(texts(rec, name), texts(el, name)) ||
				MarshalSequence(AppendChildren(nil, rec, name)) != MarshalSequence(AppendChildren(nil, el, name)) {
				t.Errorf("%s: column %s: record (%q, %d), element (%q, %d)", c.name, name, rt, rn, et, en)
			}
		}
	}
	// NULL and present empty are different records.
	null := &Record{Shape: shape, Cells: []string{"1", "", "z"}, Present: 0b101}
	empty := &Record{Shape: shape, Cells: []string{"1", "", "z"}, Present: 0b111}
	if DeepEqual(Sequence{null}, Sequence{empty}) || SortKey(null) == SortKey(empty) || Marshal(null) == Marshal(empty) {
		t.Errorf("a NULL column and a present empty one must differ: %s vs %s", Marshal(null), Marshal(empty))
	}
}
