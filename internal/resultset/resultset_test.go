package resultset

import (
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/xdm"
)

func testCols() []Column {
	return []Column{
		{Label: "ID", ElementName: "ID", Type: catalog.SQLInteger},
		{Label: "NAME", ElementName: "NAME", Type: catalog.SQLVarchar, Nullable: true},
		{Label: "AMOUNT", ElementName: "AMOUNT", Type: catalog.SQLDecimal, Nullable: true},
	}
}

func buildXML() xdm.Sequence {
	rs := xdm.NewElement("RECORDSET")
	r1 := xdm.NewElement("RECORD")
	r1.AddChild(xdm.NewTextElement("ID", "1"))
	r1.AddChild(xdm.NewTextElement("NAME", "Acme <Widgets> & Sons"))
	r1.AddChild(xdm.NewTextElement("AMOUNT", "100.50"))
	r2 := xdm.NewElement("RECORD")
	r2.AddChild(xdm.NewTextElement("ID", "2"))
	// NAME absent (NULL), AMOUNT absent (NULL)
	rs.AddChild(r1)
	rs.AddChild(r2)
	return xdm.SequenceOf(rs)
}

func TestFromXML(t *testing.T) {
	rows, err := FromXML(buildXML(), testCols())
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 2 {
		t.Fatalf("rows = %d", rows.Len())
	}
	if !rows.Next() {
		t.Fatal("Next")
	}
	id, ok, err := rows.Int64(0)
	if err != nil || !ok || id != 1 {
		t.Fatalf("id = %d %v %v", id, ok, err)
	}
	name, ok, _ := rows.String(1)
	if !ok || name != "Acme <Widgets> & Sons" {
		t.Fatalf("name = %q", name)
	}
	amt, ok, _ := rows.Float64(2)
	if !ok || amt != 100.50 {
		t.Fatalf("amount = %v", amt)
	}
	if !rows.Next() {
		t.Fatal("Next 2")
	}
	if null, _ := rows.IsNull(1); !null {
		t.Fatal("row 2 NAME should be NULL")
	}
	if _, ok, _ := rows.Float64(2); ok {
		t.Fatal("row 2 AMOUNT should be NULL")
	}
	if rows.Next() {
		t.Fatal("cursor should be exhausted")
	}
}

func TestCursorDiscipline(t *testing.T) {
	rows, err := FromXML(buildXML(), testCols())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rows.Value(0); err == nil {
		t.Fatal("Value before Next should error")
	}
	for rows.Next() {
	}
	if _, err := rows.Value(0); err == nil {
		t.Fatal("Value after exhaustion should error")
	}
	rows.Reset()
	if !rows.Next() {
		t.Fatal("Reset should rewind")
	}
	if _, err := rows.Value(99); err == nil {
		t.Fatal("out-of-range column should error")
	}
}

func TestColumnIndex(t *testing.T) {
	rows, _ := FromXML(buildXML(), testCols())
	i, err := rows.ColumnIndex("name")
	if err != nil || i != 1 {
		t.Fatalf("index = %d %v", i, err)
	}
	if _, err := rows.ColumnIndex("missing"); err == nil {
		t.Fatal("missing label should error")
	}
}

func TestFromXMLString(t *testing.T) {
	payload := `<RECORDSET><RECORD><ID>7</ID><NAME>Sue</NAME></RECORD></RECORDSET>`
	rows, err := FromXMLString(payload, testCols())
	if err != nil {
		t.Fatal(err)
	}
	rows.Next()
	id, _, _ := rows.Int64(0)
	if id != 7 {
		t.Fatalf("id = %d", id)
	}
	// Missing AMOUNT is NULL.
	if null, _ := rows.IsNull(2); !null {
		t.Fatal("AMOUNT should be NULL")
	}
}

func TestFromXMLErrors(t *testing.T) {
	if _, err := FromXML(nil, testCols()); err == nil {
		t.Fatal("empty sequence should fail")
	}
	if _, err := FromXML(xdm.SequenceOf(xdm.NewElement("OTHER")), testCols()); err == nil {
		t.Fatal("wrong root should fail")
	}
	bad := xdm.NewElement("RECORDSET")
	rec := xdm.NewElement("RECORD")
	rec.AddChild(xdm.NewTextElement("ID", "notanumber"))
	bad.AddChild(rec)
	if _, err := FromXML(xdm.SequenceOf(bad), testCols()); err == nil {
		t.Fatal("untypeable value should fail")
	}
}

func TestFromText(t *testing.T) {
	payload := ">1<Acme &lt;Widgets&gt; &amp; Sons<100.50" + ">2<&null;<&null;"
	rows, err := FromText(payload, testCols())
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 2 {
		t.Fatalf("rows = %d", rows.Len())
	}
	rows.Next()
	name, _, _ := rows.String(1)
	if name != "Acme <Widgets> & Sons" {
		t.Fatalf("name = %q", name)
	}
	rows.Next()
	if null, _ := rows.IsNull(1); !null {
		t.Fatal("NULL token should decode as NULL")
	}
}

func TestFromTextEmpty(t *testing.T) {
	rows, err := FromText("", testCols())
	if err != nil || rows.Len() != 0 {
		t.Fatalf("rows = %v err = %v", rows.Len(), err)
	}
}

func TestFromTextErrors(t *testing.T) {
	if _, err := FromText("1<2<3", testCols()); err == nil {
		t.Fatal("missing leading delimiter should fail")
	}
	if _, err := FromText(">1<2", testCols()); err == nil {
		t.Fatal("field-count mismatch should fail")
	}
	if _, err := FromText(">x<y<1.5", testCols()); err == nil {
		t.Fatal("untypeable integer should fail")
	}
}

// chunkStream is an ItemStream over fixed chunks that is not row-aligned.
// Like the evaluator's materialized fallback it has a row pull, which
// fails: its items are payload fragments, and must be split as such.
type chunkStream struct{ chunks []xdm.Sequence }

func (s *chunkStream) Next() (xdm.Sequence, error) {
	if len(s.chunks) == 0 {
		return nil, io.EOF
	}
	chunk := s.chunks[0]
	s.chunks = s.chunks[1:]
	return chunk, nil
}
func (s *chunkStream) Close() error { return nil }
func (s *chunkStream) NextText() (string, error) {
	return "", errors.New("chunkStream: rows are not text")
}

// TestStreamTextChunkShapes: rows pulled one at a time from a batch, as
// the evaluator's text rows arrive, or a payload arriving as one string
// per row, as a token sequence per row, or as arbitrary fragments, decode
// to what FromText makes of the whole payload — and a malformed payload
// fails with FromText's error on every path.
func TestStreamTextChunkShapes(t *testing.T) {
	shapes := func(rows ...[]string) map[string]ItemStream {
		pull, fused, tokens, frags := &batchPull{}, &chunkStream{}, &chunkStream{}, &chunkStream{}
		for _, r := range rows {
			pull.text += strings.Join(r, "")
			pull.ends = append(pull.ends, len(pull.text))
			fused.chunks = append(fused.chunks, xdm.SequenceOf(xdm.String(strings.Join(r, ""))))
			var toks xdm.Sequence
			for _, tok := range r {
				toks = append(toks, xdm.String(tok))
				frags.chunks = append(frags.chunks, xdm.SequenceOf(xdm.String(tok)))
			}
			tokens.chunks = append(tokens.chunks, toks)
		}
		return map[string]ItemStream{"row pull over a batch": pull, "one string per row": fused, "tokens per row": tokens, "fragments": frags}
	}
	drain := func(cur RowCursor) (string, error) {
		var b strings.Builder
		for {
			row, err := cur.Next()
			if err == io.EOF {
				return b.String(), nil
			}
			if err != nil {
				return b.String(), err
			}
			for _, v := range row {
				if v == nil {
					b.WriteString("|NULL")
				} else {
					b.WriteString("|" + v.Lexical())
				}
			}
			b.WriteByte('\n')
		}
	}

	good := [][]string{
		{">", "1", "<", "Acme &lt;Widgets&gt; &amp; Sons", "<", "100.50"},
		{">", "2", "<", "&null;", "<", "&null;"},
		{">", "3", "<", "", "<", "0.5"},
	}
	var payload strings.Builder
	for _, r := range good {
		payload.WriteString(strings.Join(r, ""))
	}
	rows, err := FromText(payload.String(), testCols())
	if err != nil {
		t.Fatal(err)
	}
	want, err := drain(rows.Cursor())
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range shapes(good...) {
		if got, err := drain(StreamText(src, testCols())); err != nil || got != want {
			t.Fatalf("%s: got %q, %v; want %q", name, got, err, want)
		}
	}

	for _, bad := range [][]string{
		{"1", "<", "x", "<", "1.5"},      // no leading row delimiter
		{">", "1", "<", "x"},             // too few fields
		{">", "1", "<", "x", "<", "<"},   // too many
		{">", "x", "<", "y", "<", "1.5"}, // untypeable integer
	} {
		_, wantErr := FromText(strings.Join(bad, ""), testCols())
		if wantErr == nil {
			t.Fatalf("FromText accepted %q", bad)
		}
		for name, src := range shapes(bad) {
			if _, err := drain(StreamText(src, testCols())); err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("%s over %q: error %v, FromText says %v", name, bad, err, wantErr)
			}
		}
	}
}

func TestFromTextDistinguishesNullFromEmptyString(t *testing.T) {
	payload := ">1<<1.0" + ">2<&null;<2.0"
	rows, err := FromText(payload, testCols())
	if err != nil {
		t.Fatal(err)
	}
	rows.Next()
	s, ok, _ := rows.String(1)
	if !ok || s != "" {
		t.Fatalf("row 1 name = %q ok=%v, want empty string", s, ok)
	}
	rows.Next()
	if null, _ := rows.IsNull(1); !null {
		t.Fatal("row 2 name should be NULL")
	}
}

func TestTypedGetters(t *testing.T) {
	cols := []Column{
		{Label: "B", ElementName: "B", Type: catalog.SQLBoolean},
		{Label: "D", ElementName: "D", Type: catalog.SQLDate},
		{Label: "TS", ElementName: "TS", Type: catalog.SQLTimestamp},
	}
	rows, err := FromText(">true<2006-07-05<2006-07-05T10:30:00", cols)
	if err != nil {
		t.Fatal(err)
	}
	rows.Next()
	b, ok, err := rows.Bool(0)
	if err != nil || !ok || !b {
		t.Fatalf("bool = %v %v %v", b, ok, err)
	}
	d, ok, err := rows.Time(1)
	if err != nil || !ok || d.Year() != 2006 || d.Month() != 7 {
		t.Fatalf("date = %v %v %v", d, ok, err)
	}
	ts, ok, err := rows.Time(2)
	if err != nil || !ok || ts.Hour() != 10 {
		t.Fatalf("ts = %v %v %v", ts, ok, err)
	}
}

func TestGetterConversionErrors(t *testing.T) {
	cols := []Column{{Label: "S", ElementName: "S", Type: catalog.SQLVarchar}}
	rows, _ := FromText(">hello", cols)
	rows.Next()
	if _, _, err := rows.Int64(0); err == nil {
		t.Fatal("string→int should error")
	}
	if _, _, err := rows.Time(0); err == nil {
		t.Fatal("string→time should error")
	}
}

func TestDuplicateElementNamesMatchPositionally(t *testing.T) {
	cols := []Column{
		{Label: "X", ElementName: "X", Type: catalog.SQLInteger},
		{Label: "X", ElementName: "X", Type: catalog.SQLInteger},
	}
	rows, err := FromXMLString("<RECORDSET><RECORD><X>1</X><X>2</X></RECORD></RECORDSET>", cols)
	if err != nil {
		t.Fatal(err)
	}
	rows.Next()
	a, _, _ := rows.Int64(0)
	b, _, _ := rows.Int64(1)
	if a != 1 || b != 2 {
		t.Fatalf("got %d %d", a, b)
	}
}

func TestUnknownTypeStaysString(t *testing.T) {
	cols := []Column{{Label: "U", ElementName: "U", Type: catalog.SQLUnknown}}
	rows, err := FromText(">anything", cols)
	if err != nil {
		t.Fatal(err)
	}
	rows.Next()
	s, ok, _ := rows.String(0)
	if !ok || s != "anything" {
		t.Fatalf("got %q", s)
	}
}

func TestTableRendering(t *testing.T) {
	rows, _ := FromXML(buildXML(), testCols())
	out := rows.Table()
	if !strings.Contains(out, "ID") || !strings.Contains(out, "NULL") || !strings.Contains(out, "Acme") {
		t.Fatalf("table:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header + rule + 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
}

// TestDecodeRecordAllocs: an XML-mode row costs its boxed atoms and a share
// of its row slab — no per-row map of names, no child slice per column,
// no row slice of its own — whatever order its children come in.
func TestDecodeRecordAllocs(t *testing.T) {
	cols := append(testCols(), Column{Label: "CITY", ElementName: "CITY", Type: catalog.SQLVarchar, Nullable: true})
	children := [][2]string{{"ID", "100000"}, {"NAME", "Acme"}, {"AMOUNT", "12.5"}} // CITY absent: NULL
	for _, order := range [][]int{{0, 1, 2}, {2, 0, 1}} {
		rec := xdm.NewElement("RECORD")
		for _, i := range order {
			rec.AddChild(xdm.NewTextElement(children[i][0], children[i][1]))
		}
		var slab rowSlab
		row, err := decodeRecord(rec, cols, &slab)
		if err != nil || row[0] != xdm.Integer(100000) || row[1] != xdm.String("Acme") || row[2] != xdm.Decimal(12.5) || row[3] != nil {
			t.Fatalf("children in order %v: decoded %v, %v", order, row, err)
		}
		allocs := testing.AllocsPerRun(100, func() { decodeRecord(rec, cols, &slab) })
		if allocs > 3 { // an integer, a string and a decimal; slabs amortize
			t.Fatalf("children in order %v: a 4-column row costs %.0f allocations, want 3", order, allocs)
		}
	}
}
