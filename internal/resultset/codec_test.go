package resultset

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/xdm"
)

// edgeStrings are the values the §4 escaping exists for, plus the NULL
// token, an escaped carriage return as literal data, and bytes that are
// not UTF-8 beside specials.
var edgeStrings = []string{
	"", "&null;", "<", ">", "&", "\r", "&#xD;", "&amp;#xD;", "a\rb", "x<y>z&w",
	"&lt;&gt;&amp;", "café € <é> ü 😀", "tab\tnl\n", `"quoted" \back`, "\x01\x1f",
	"\xff&\xfe<",
}

// codecCols is one nullable column of every SQL type the schema maps.
func codecCols() []Column {
	var cols []Column
	for st := catalog.SQLUnknown; st <= catalog.SQLTimestamp; st++ {
		cols = append(cols, Column{Label: st.String(), ElementName: st.String(), Type: st, Nullable: true})
	}
	return cols
}

// randomValue draws a value of the column's atomic type, in the form the
// decoder produces (parsed from a lexical form, as every served value is).
func randomValue(rng *rand.Rand, st catalog.SQLType) xdm.Atomic {
	var lex string
	switch t := st.Atomic(); t {
	case xdm.TypeInteger:
		lex = fmt.Sprint([]int64{0, -1, math.MaxInt64, math.MinInt64, rng.Int63() - rng.Int63()}[rng.Intn(5)])
	case xdm.TypeDecimal:
		lex = xdm.Decimal([]float64{0, -0.5, 100.50, 1e-7, (rng.Float64() - 0.5) * 1e6}[rng.Intn(5)]).Lexical()
	case xdm.TypeDouble:
		lex = xdm.Double([]float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300, rng.NormFloat64()}[rng.Intn(5)]).Lexical()
	case xdm.TypeBoolean:
		lex = fmt.Sprint(rng.Intn(2) == 1)
	case xdm.TypeDate:
		lex = fmt.Sprintf("%04d-%02d-%02d", 1900+rng.Intn(200), 1+rng.Intn(12), 1+rng.Intn(28))
	case xdm.TypeTime:
		lex = fmt.Sprintf("%02d:%02d:%02d", rng.Intn(24), rng.Intn(60), rng.Intn(60))
	case xdm.TypeDateTime:
		lex = fmt.Sprintf("%04d-%02d-%02dT%02d:%02d:%02d", 1900+rng.Intn(200), 1+rng.Intn(12), 1+rng.Intn(28), rng.Intn(24), rng.Intn(60), rng.Intn(60))
	default: // strings, and untyped columns, which decode as strings
		var b strings.Builder
		for n := rng.Intn(4); n > 0; n-- {
			b.WriteString(edgeStrings[rng.Intn(len(edgeStrings))])
		}
		return xdm.String(b.String())
	}
	v, err := xdm.ParseAtomic(lex, st.Atomic())
	if err != nil {
		panic(err)
	}
	return v
}

// checkRoundTrip: the encoded row is one well-formed §4 row — no row
// delimiter, one column delimiter per column boundary — and decodes back
// to the same values (compared by type and lexical form, so NaN counts).
func checkRoundTrip(t *testing.T, row []xdm.Atomic, cols []Column) {
	t.Helper()
	text := string(appendTextRow(nil, row))
	if strings.Contains(text, RowDelimiter) || strings.Count(text, ColumnDelimiter) != len(cols)-1 {
		t.Fatalf("row %v encodes as malformed %q", row, text)
	}
	got, err := (&TextDecoder{Cols: cols}).Decode(text)
	if err != nil {
		t.Fatalf("row %v: decode %q: %v", row, text, err)
	}
	for i := range row {
		switch {
		case row[i] == nil && got[i] == nil:
		case row[i] == nil || got[i] == nil:
			t.Fatalf("column %d: %v came back as %v (via %q)", i, row[i], got[i], text)
		case row[i].Type() != got[i].Type() || row[i].Lexical() != got[i].Lexical():
			t.Fatalf("column %d: %v %q came back as %v %q (via %q)",
				i, row[i].Type(), row[i].Lexical(), got[i].Type(), got[i].Lexical(), text)
		}
	}
}

// TestTextRowCodecRoundTrip: TextDecoder inverts appendTextRow — the
// encoder the server uses for rows it holds typed — for every atomic type
// the schema maps SQL types to, with NULL in every position, every edge
// string in every string column, and random rows besides.
func TestTextRowCodecRoundTrip(t *testing.T) {
	cols := codecCols()
	rng := rand.New(rand.NewSource(1))
	row := func() []xdm.Atomic {
		r := make([]xdm.Atomic, len(cols))
		for i, c := range cols {
			r[i] = randomValue(rng, c.Type)
		}
		return r
	}
	checkRoundTrip(t, make([]xdm.Atomic, len(cols)), cols) // all NULL
	for i := range cols {
		r := row()
		r[i] = nil
		checkRoundTrip(t, r, cols)
	}
	for _, s := range edgeStrings {
		r := row()
		for i, c := range cols {
			if c.Type.Atomic() == xdm.TypeString || c.Type.Atomic() == xdm.TypeUntyped {
				r[i] = xdm.String(s)
			}
		}
		checkRoundTrip(t, r, cols)
	}
	for n := 0; n < 2000; n++ {
		checkRoundTrip(t, row(), cols)
	}
}

// FuzzTextRowCodec: any text and numbers, NULL or not per column,
// round-trip through the row codec — any bytes, valid UTF-8 or not.
// Encoded many to one batch, as the evaluator sends rows, and decoded
// through one slab, each row is what a fresh TextDecoder makes of it, and
// stays so while the rows after it decode.
func FuzzTextRowCodec(f *testing.F) {
	for i, s := range edgeStrings {
		f.Add(s, edgeStrings[len(edgeStrings)-1-i], int64(i), float64(i)/3, uint8(i), uint8(3*i))
	}
	cols := []Column{
		{Label: "A", Type: catalog.SQLVarchar, Nullable: true},
		{Label: "K", Type: catalog.SQLInteger, Nullable: true},
		{Label: "B", Type: catalog.SQLChar, Nullable: true},
		{Label: "D", Type: catalog.SQLDouble, Nullable: true},
		{Label: "U", Type: catalog.SQLUnknown, Nullable: true},
	}
	f.Fuzz(func(t *testing.T, a, b string, k int64, d float64, nulls, batch uint8) {
		for _, s := range []string{a, b, a + b} {
			if got, want := (&TextDecoder{}).unescape(s), unescapeReplacer.Replace(s); got != want {
				t.Fatalf("unescape(%q) = %q, the replacer gives %q", s, got, want)
			}
		}
		row := []xdm.Atomic{xdm.String(a), xdm.Integer(k), xdm.String(b), xdm.Double(d), xdm.String(a + b)}
		for i := range row {
			if nulls&(1<<i) != 0 {
				row[i] = nil
			}
		}
		checkRoundTrip(t, row, cols)
		checkBatch(t, row, int(batch%80)+1, cols)
	})
}

// checkBatch encodes n variants of row — each with another column NULL —
// back to back into one §4 batch, reads them through StreamText's row
// pull, materialized, and holds every kept row to a fresh TextDecoder's
// decoding of its text.
func checkBatch(t *testing.T, row []xdm.Atomic, n int, cols []Column) {
	t.Helper()
	var batch []byte
	ends := make([]int, n)
	for i := range ends {
		v := slices.Clone(row)
		if j := i % (len(v) + 1); j < len(v) {
			v[j] = nil
		}
		batch = appendTextRow(append(batch, RowDelimiter...), v)
		ends[i] = len(batch)
	}
	src := &batchPull{text: string(batch), ends: ends}
	rows := NewStreaming(StreamText(src, cols))
	if err := rows.Materialize(); err != nil {
		t.Fatalf("batch of %d: %v", n, err)
	}
	from := 0
	for i := 0; rows.Next(); i++ {
		text := src.text[from+len(RowDelimiter) : ends[i]]
		from = ends[i]
		want, err := (&TextDecoder{Cols: cols}).Decode(text)
		if err != nil {
			t.Fatalf("row %d: decode %q: %v", i, text, err)
		}
		got, _ := rows.current()
		for c := range want {
			if (got[c] == nil) != (want[c] == nil) || got[c] != nil && (got[c].Type() != want[c].Type() || got[c].Lexical() != want[c].Lexical()) {
				t.Fatalf("row %d of %d, column %d: kept %v, a fresh decoder gives %v (via %q)", i, n, c, got[c], want[c], text)
			}
		}
	}
}

// batchPull is a row pull over one batch of §4 rows, handing out each as a
// substring, as xqeval.Cursor does.
type batchPull struct {
	text string
	ends []int
	from int
}

func (p *batchPull) NextText() (string, error) {
	if len(p.ends) == 0 {
		return "", io.EOF
	}
	row := p.text[p.from:p.ends[0]]
	p.from, p.ends = p.ends[0], p.ends[1:]
	return row, nil
}

func (p *batchPull) Next() (xdm.Sequence, error) {
	return nil, errors.New("batchPull: rows come through NextText")
}
func (p *batchPull) Close() error     { return nil }
func (p *batchPull) RowAligned() bool { return true }

// unescapeReplacer is the strings.Replacer unescape once was: the
// definition the one-pass scan is held to.
var unescapeReplacer = strings.NewReplacer("&lt;", "<", "&gt;", ">", "&#xD;", "\r", "&amp;", "&")

// TestUnescapeMatchesReplacer holds the one-pass unescape equal to the
// replacer on the codec corpus — each edge string alone, escaped, and
// concatenated with every other — and on overlapping entities.
func TestUnescapeMatchesReplacer(t *testing.T) {
	inputs := []string{
		"&amp;lt;", "&amp;amp;", "&&lt;", "&lt;&", "&l", "&lt", "&#xD", "&#xd;", "&amp", "&;", "&&&",
		"&amp;#xD;", "&#xD;&#xD;", "a&b&c", "&gt;&gt", "x&amp;&lt;y",
	}
	for _, a := range edgeStrings {
		inputs = append(inputs, a, string(xdm.AppendEscapedText(nil, a)))
		for _, b := range edgeStrings {
			inputs = append(inputs, a+b)
		}
	}
	for _, s := range inputs {
		if got, want := (&TextDecoder{}).unescape(s), unescapeReplacer.Replace(s); got != want {
			t.Errorf("unescape(%q) = %q, the replacer gives %q", s, got, want)
		}
	}
}

// TestTextDecoderAllocs is the erosion guard for the client's per-row
// cost: decoding 1,000 rows that each hold two escaped VARCHARs costs at
// most one allocation per non-NULL typed cell (its boxing) plus 0.1 —
// rows and unescaped values are carved from slabs. Every value stays
// intact while later rows decode, and a decoder copied by value keeps
// decoding on slabs of its own.
func TestTextDecoderAllocs(t *testing.T) {
	cols := []Column{
		{Label: "A", Type: catalog.SQLVarchar, Nullable: true},
		{Label: "K", Type: catalog.SQLInteger, Nullable: true},
		{Label: "B", Type: catalog.SQLVarchar, Nullable: true},
	}
	const n = 1000
	texts := make([]string, n)
	for i := range texts {
		texts[i] = string(appendTextRow(nil, []xdm.Atomic{
			xdm.String(fmt.Sprintf("a<%d>&b", i)), xdm.Integer(1000 + i), xdm.String(fmt.Sprintf("\r%d&amp;", i)),
		}))
	}
	check := func(rows [][]xdm.Atomic) {
		t.Helper()
		for i, r := range rows {
			if a, b := r[0].Lexical(), r[2].Lexical(); a != fmt.Sprintf("a<%d>&b", i) || b != fmt.Sprintf("\r%d&amp;", i) {
				t.Fatalf("row %d decoded as %q, %q", i, a, b)
			}
		}
	}
	rows := make([][]xdm.Atomic, n)
	perRow := testing.AllocsPerRun(5, func() {
		dec := TextDecoder{Cols: cols}
		for i, text := range texts {
			r, err := dec.Decode(text)
			if err != nil {
				t.Fatal(err)
			}
			rows[i] = r
		}
	}) / n
	check(rows)
	t.Logf("%.3f allocations per row (3 typed cells)", perRow)
	if perRow > 3+0.1 {
		t.Fatalf("decoding costs %.3f allocations per row, want <= 3.1", perRow)
	}

	dec := TextDecoder{Cols: cols}
	for i := range texts[:n/2] {
		rows[i], _ = dec.Decode(texts[i])
	}
	cp := dec
	for i := n / 2; i < n; i += 2 {
		rows[i], _ = dec.Decode(texts[i])
		rows[i+1], _ = cp.Decode(texts[i+1])
	}
	check(rows)
}
