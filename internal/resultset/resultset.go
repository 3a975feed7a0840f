// Package resultset implements the JDBC-driver side of the paper's §4
// result handling: converting XQuery results into row/column result sets.
//
// Each of the paper's two result formats has one decoder, a row cursor
// (stream.go), mirroring the paper's experiment:
//
//   - XML materialization (the baseline): the query returns the natural
//     <RECORDSET><RECORD>…</RECORD></RECORDSET> XML, whose RECORDs are
//     walked into rows (StreamXML);
//   - text decoding (§4's optimization): the query is wrapped to return a
//     single string of delimiter-separated values (rows prefixed by '>',
//     columns separated by '<', values XML-escaped so delimiters cannot
//     occur in data), which the client splits and types using the computed
//     result schema (StreamText).
//
// The whole-payload forms, FromXML and FromText, drain those cursors over
// a payload in hand.
//
// SQL NULL is an absent element on the XML path and the "&null;" token on
// the text path (a token real data cannot produce, since escaping rewrites
// '&' to "&amp;").
package resultset

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/aqerr"
	"repro/internal/catalog"
	"repro/internal/xdm"
)

// Delimiters of the text-encoded format (§4).
const (
	RowDelimiter    = ">"
	ColumnDelimiter = "<"
	NullToken       = "&null;"
)

// Column is the computed result schema for one output column.
// The JSON names are its wire form.
type Column struct {
	Label       string          `json:"label"`
	ElementName string          `json:"element"`
	Type        catalog.SQLType `json:"type"`
	Nullable    bool            `json:"nullable"`
	// Precision and Scale are declared facets (zero when unspecified).
	Precision int `json:"precision,omitempty"`
	Scale     int `json:"scale,omitempty"`
}

// Rows is a result set. It is forward-only streaming while a row cursor
// is attached (rows decode one pull at a time), and materialized/scrollable
// otherwise. Scroll operations (Len, Reset) on a streaming Rows first drain
// the cursor via Materialize.
type Rows struct {
	cols []Column
	// data[r][c] is nil for SQL NULL.
	data [][]xdm.Atomic
	pos  int // 0 = before first row

	cur    RowCursor // non-nil while streaming
	curRow []xdm.Atomic
	onRow  bool
	err    error
	text   []byte // NextText's encoding buffer
}

// Columns returns the result schema.
func (r *Rows) Columns() []Column { return r.cols }

// Len returns the number of rows. On a streaming result it materializes the
// remaining rows first.
func (r *Rows) Len() int {
	if r.cur != nil {
		r.Materialize()
	}
	return len(r.data)
}

// Next advances the cursor; it must be called before the first row, JDBC
// style. It returns false past the last row and on a streaming error —
// check Err after a false return to tell the two apart.
func (r *Rows) Next() bool {
	if r.cur != nil {
		row, err := r.cur.Next()
		if err != nil {
			r.stop(err)
			return false
		}
		r.curRow, r.onRow = row, true
		return true
	}
	if r.pos > len(r.data) {
		return false
	}
	r.pos++
	r.onRow = false
	return r.pos <= len(r.data)
}

// NextText advances like Next, returning the row as TextDecoder reads
// it: one §4 row without its leading RowDelimiter. A text-mode stream's
// rows are passed on as the evaluator produced them, untyped; any other
// row is encoded. False means past the last row or an error (see Err).
// The row is not available through Value.
func (r *Rows) NextText() (string, bool) {
	tc, raw := r.cur.(*textCursor)
	if !raw {
		if !r.Next() {
			return "", false
		}
		row, _ := r.current() // cannot fail after a true Next
		r.text = appendTextRow(r.text[:0], row)
		return string(r.text), true
	}
	text, err := tc.nextText()
	if err != nil {
		r.stop(err)
		return "", false
	}
	r.curRow, r.onRow = nil, false
	return text, true
}

// stop ends a streaming result at err (io.EOF is the clean end).
func (r *Rows) stop(err error) {
	if err == io.EOF {
		err = nil
	}
	r.endStream(err)
	r.onRow = false
}

// endStream detaches and closes the cursor, keeping the first error seen.
// The kept error is classified at this boundary: a caller-side
// cancellation (the consumer's context expiring, or a transport the
// consumer tore down) surfaces as a timeout-kind QueryError, while a
// server-side failure keeps the typed kind it arrived with — so a stream
// that stops early is never a silent short read, and the two ways it can
// stop are distinguishable through Err.
func (r *Rows) endStream(err error) {
	if r.cur != nil {
		cerr := r.cur.Close()
		if err == nil {
			err = cerr
		}
		r.cur = nil
	}
	if err != nil && r.err == nil {
		r.err = aqerr.Wrap("stream", err)
	}
}

// Err returns the first error hit while streaming rows, if any, as a
// typed error: cancellations and deadline expiries carry
// aqerr.KindTimeout, transport and backend failures their own kinds
// (errors.Is still sees the underlying cause through the wrapper).
// Materialized result sets never have one.
func (r *Rows) Err() error { return r.err }

// Materialize drains any remaining streamed rows into the scrollable buffer
// and rewinds the cursor before the first buffered row. Rows already
// consumed with Next are not recovered. It returns the first streaming
// error, also available via Err.
func (r *Rows) Materialize() error {
	for r.cur != nil {
		row, err := r.cur.Next()
		if err != nil {
			r.stop(err)
			break
		}
		r.data = append(r.data, row)
	}
	r.pos = 0
	r.onRow = false
	return r.err
}

// Reset rewinds the cursor before the first row, materializing a streaming
// result first.
func (r *Rows) Reset() {
	if r.cur != nil {
		r.Materialize()
		return
	}
	r.pos = 0
	r.onRow = false
}

// Close releases the decoded row data and, for streaming results, closes
// the underlying cursor, cancelling any still-running evaluation. The
// schema stays available for metadata calls. Close is idempotent; after it,
// Next reports no rows.
func (r *Rows) Close() {
	r.endStream(nil)
	r.data = nil
	r.pos = 0
	r.onRow = false
	r.curRow = nil
}

func (r *Rows) current() ([]xdm.Atomic, error) {
	if r.onRow {
		return r.curRow, nil
	}
	if r.pos == 0 {
		return nil, fmt.Errorf("resultset: Next has not been called")
	}
	if r.pos > len(r.data) {
		return nil, fmt.Errorf("resultset: cursor is past the last row")
	}
	return r.data[r.pos-1], nil
}

// Value returns the current row's column i (0-based) as an atomic value;
// nil with ok=true means SQL NULL.
func (r *Rows) Value(i int) (v xdm.Atomic, err error) {
	row, err := r.current()
	if err != nil {
		return nil, err
	}
	if i < 0 || i >= len(r.cols) {
		return nil, fmt.Errorf("resultset: column index %d out of range (0..%d)", i, len(r.cols)-1)
	}
	return row[i], nil
}

// IsNull reports whether the current row's column i is SQL NULL.
func (r *Rows) IsNull(i int) (bool, error) {
	v, err := r.Value(i)
	if err != nil {
		return false, err
	}
	return v == nil, nil
}

// String returns column i as a string. NULL yields ok=false.
func (r *Rows) String(i int) (s string, ok bool, err error) {
	v, err := r.Value(i)
	if err != nil || v == nil {
		return "", false, err
	}
	return v.Lexical(), true, nil
}

// Int64 returns column i as an int64.
func (r *Rows) Int64(i int) (n int64, ok bool, err error) {
	v, err := r.Value(i)
	if err != nil || v == nil {
		return 0, false, err
	}
	c, err := xdm.Cast(v, xdm.TypeInteger)
	if err != nil {
		return 0, false, fmt.Errorf("resultset: column %d: %v", i, err)
	}
	return int64(c.(xdm.Integer)), true, nil
}

// Float64 returns column i as a float64.
func (r *Rows) Float64(i int) (f float64, ok bool, err error) {
	v, err := r.Value(i)
	if err != nil || v == nil {
		return 0, false, err
	}
	c, err := xdm.Cast(v, xdm.TypeDouble)
	if err != nil {
		return 0, false, fmt.Errorf("resultset: column %d: %v", i, err)
	}
	return float64(c.(xdm.Double)), true, nil
}

// Bool returns column i as a bool.
func (r *Rows) Bool(i int) (b bool, ok bool, err error) {
	v, err := r.Value(i)
	if err != nil || v == nil {
		return false, false, err
	}
	c, err := xdm.Cast(v, xdm.TypeBoolean)
	if err != nil {
		return false, false, fmt.Errorf("resultset: column %d: %v", i, err)
	}
	return bool(c.(xdm.Boolean)), true, nil
}

// Time returns column i as a time.Time (dates/times/timestamps).
func (r *Rows) Time(i int) (t time.Time, ok bool, err error) {
	v, err := r.Value(i)
	if err != nil || v == nil {
		return time.Time{}, false, err
	}
	switch c := v.(type) {
	case xdm.Date:
		return c.T, true, nil
	case xdm.Time:
		return c.T, true, nil
	case xdm.DateTime:
		return c.T, true, nil
	}
	c, cerr := xdm.Cast(v, xdm.TypeDateTime)
	if cerr != nil {
		if d, derr := xdm.Cast(v, xdm.TypeDate); derr == nil {
			return d.(xdm.Date).T, true, nil
		}
		return time.Time{}, false, fmt.Errorf("resultset: column %d: %v", i, cerr)
	}
	return c.(xdm.DateTime).T, true, nil
}

// ColumnIndex finds a column by label (case-insensitive), returning the
// first match, as JDBC does for duplicate labels.
func (r *Rows) ColumnIndex(label string) (int, error) {
	for i, c := range r.cols {
		if strings.EqualFold(c.Label, label) {
			return i, nil
		}
	}
	return 0, fmt.Errorf("resultset: no column labelled %q", label)
}

// FromXML materializes a result set from the XML result shape: a sequence
// holding one RECORDSET element. This is the baseline path the paper's §4
// improves on — the whole tree exists before decoding begins — and it
// drains StreamXML over that one chunk.
func FromXML(result xdm.Sequence, cols []Column) (*Rows, error) {
	if _, err := result.Singleton(); err != nil {
		return nil, fmt.Errorf("resultset: expected a single RECORDSET element: %v", err)
	}
	return drain(StreamXML(Chunk(result), cols))
}

// FromText decodes the §4 text-encoded result — the single string produced
// by the translator's wrapper query — by draining StreamText over it.
func FromText(payload string, cols []Column) (*Rows, error) {
	return drain(StreamText(Chunk(xdm.SequenceOf(xdm.String(payload))), cols))
}

// drain materializes every row of cur.
func drain(cur RowCursor) (*Rows, error) {
	rows := NewStreaming(cur)
	if err := rows.Materialize(); err != nil {
		return nil, err
	}
	return rows, nil
}

// parseValue types a lexical value using the computed result schema.
// Unknown-typed columns stay as strings.
func parseValue(text string, c Column) (xdm.Atomic, error) {
	t := c.Type.Atomic()
	if t == xdm.TypeUntyped {
		return xdm.String(text), nil
	}
	v, err := xdm.ParseAtomic(text, t)
	if err != nil {
		return nil, fmt.Errorf("resultset: column %s: %v", c.Label, err)
	}
	return v, nil
}

// Table renders the rows as an ASCII table (used by the shell and
// examples). It consumes from the current cursor position.
func (r *Rows) Table() string {
	widths := make([]int, len(r.cols))
	for i, c := range r.cols {
		widths[i] = len(c.Label)
	}
	var cells [][]string
	for r.Next() {
		row := make([]string, len(r.cols))
		for i := range r.cols {
			s, ok, err := r.String(i)
			switch {
			case err != nil:
				row[i] = "!" + err.Error()
			case !ok:
				row[i] = "NULL"
			default:
				row[i] = s
			}
			if len(row[i]) > widths[i] {
				widths[i] = len(row[i])
			}
		}
		cells = append(cells, row)
	}
	var b strings.Builder
	writeRow := func(vals []string) {
		for i, v := range vals {
			if i > 0 {
				b.WriteString(" | ")
			}
			b.WriteString(v)
			for p := len(v); p < widths[i]; p++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	labels := make([]string, len(r.cols))
	for i, c := range r.cols {
		labels[i] = c.Label
	}
	writeRow(labels)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("-+-")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range cells {
		writeRow(row)
	}
	return b.String()
}
