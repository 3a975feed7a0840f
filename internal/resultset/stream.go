// stream.go holds the §4 decoders: pull-based row cursors that type one
// row per Next instead of materializing the whole result first. The XML
// cursor consumes RECORD elements as the evaluator produces them, and the
// text cursor types each delimiter-separated row the evaluator hands over,
// so the driver's JDBC-style result sets can deliver a first row while the
// query is still running. FromXML and FromText drain them over one Chunk.
package resultset

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/xdm"
)

// ItemStream is the pull end of an evaluation: Next returns the next chunk
// of result items and io.EOF after the last one; Close releases the
// producer. xqeval.Cursor implements it (kept as a small local interface
// so resultset stays independent of the evaluator).
type ItemStream interface {
	Next() (xdm.Sequence, error)
	Close() error
}

// Chunk is an ItemStream of one chunk, items: a whole result already in
// hand, such as a payload or a stored procedure's rows.
func Chunk(items xdm.Sequence) ItemStream { return &chunk{items: items} }

type chunk struct {
	items xdm.Sequence
	done  bool
}

func (c *chunk) Next() (xdm.Sequence, error) {
	if c.done {
		return nil, io.EOF
	}
	c.done = true
	return c.items, nil
}

func (c *chunk) Close() error { return nil }

// rowAligned is the optional hint that every chunk — or, through a row
// pull, every text row — is exactly one result row, letting the decoders
// skip buffering.
type rowAligned interface {
	RowAligned() bool
}

// RowCursor is the Volcano-style typed row cursor the whole result path is
// built on: Next returns one decoded row (nil atomics are SQL NULL) and
// io.EOF after the last row; Close is idempotent and releases the
// underlying evaluation.
type RowCursor interface {
	Columns() []Column
	Next() ([]xdm.Atomic, error)
	Close() error
}

func isAligned(src ItemStream) bool {
	ra, ok := src.(rowAligned)
	return ok && ra.RowAligned()
}

// StreamXML decodes the XML result shape incrementally: aligned streams
// deliver one RECORD element per chunk; a materialized fallback chunk
// holding the whole RECORDSET is expanded in place.
func StreamXML(src ItemStream, cols []Column) RowCursor {
	return &xmlCursor{src: src, cols: cols, aligned: isAligned(src)}
}

type xmlCursor struct {
	src     ItemStream
	cols    []Column
	aligned bool
	queue   xdm.Sequence // RECORDs received, queue[head:] not handed out
	head    int
	rows    rowSlab
	closed  bool
}

func (c *xmlCursor) Columns() []Column { return c.cols }

func (c *xmlCursor) Next() ([]xdm.Atomic, error) {
	for {
		if c.head < len(c.queue) {
			c.head++
			return decodeRecord(c.queue[c.head-1].(xdm.Node), c.cols, &c.rows)
		}
		if c.closed {
			return nil, io.EOF
		}
		chunk, err := c.src.Next()
		if err != nil {
			return nil, err // io.EOF included
		}
		c.queue, c.head = c.queue[:0], 0
		for _, it := range chunk {
			n, _ := it.(xdm.Node)
			switch xdm.LocalName(n) {
			case "RECORD":
				c.queue = append(c.queue, n)
			case "RECORDSET":
				c.queue = xdm.AppendChildren(c.queue, n, "RECORD")
			default:
				// Aligned chunks are RECORDSET content items: anything that
				// is not a RECORD element is dropped, exactly as a
				// RECORDSET's child step drops it.
				if !c.aligned {
					return nil, fmt.Errorf("resultset: expected RECORDSET element, got %v", it)
				}
			}
		}
	}
}

func (c *xmlCursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	c.queue = nil
	return c.src.Close()
}

// rowPull is a text-rows stream's row pull: NextText returns one row's §4
// text, leading row delimiter included, and io.EOF after the last.
// xqeval.Cursor implements it.
type rowPull interface {
	NextText() (string, error)
}

// StreamText decodes the §4 text-encoded result incrementally. A
// row-aligned stream with a row pull hands over one row per pull, decoded
// at once; any other stream's items are payload fragments, buffered and
// split on the row delimiter, which escaping guarantees cannot occur
// inside values.
func StreamText(src ItemStream, cols []Column) RowCursor {
	c := &textCursor{src: src, dec: TextDecoder{Cols: cols}}
	if rows, ok := src.(rowPull); ok && isAligned(src) {
		c.rows = rows
	}
	return c
}

type textCursor struct {
	src  ItemStream
	rows rowPull // nil: src's items are fragments of the payload
	dec  TextDecoder

	buf            string // payload received, not handed out, past its leading '>'
	started        bool   // leading row delimiter consumed
	srcEOF, closed bool
}

func (c *textCursor) Columns() []Column { return c.dec.Cols }

func (c *textCursor) Next() ([]xdm.Atomic, error) {
	rowText, err := c.nextText()
	if err != nil {
		return nil, err
	}
	return c.dec.Decode(rowText)
}

// nextText returns the next row's text as the payload carries it (leading
// row delimiter stripped, still escaped), and io.EOF after the last row.
func (c *textCursor) nextText() (string, error) {
	if c.rows != nil && !c.closed {
		text, err := c.rows.NextText()
		if row, ok := strings.CutPrefix(text, RowDelimiter); ok || err != nil {
			return row, err
		}
		return "", errMissingRowDelimiter
	}
	for !c.closed {
		if row, rest, ok := strings.Cut(c.buf, RowDelimiter); ok && c.started {
			c.buf = rest
			return row, nil
		}
		if c.srcEOF {
			if !c.started { // an empty payload, or its last row handed out
				break
			}
			c.started = false
			return c.buf, nil
		}
		chunk, err := c.src.Next()
		if err == io.EOF {
			c.srcEOF = true
			continue
		}
		if err != nil {
			return "", err
		}
		for _, it := range chunk {
			c.buf += xdm.StringValue(it)
		}
		if !c.started && c.buf != "" {
			if c.buf, c.started = strings.CutPrefix(c.buf, RowDelimiter); !c.started {
				return "", errMissingRowDelimiter
			}
		}
	}
	return "", io.EOF
}

func (c *textCursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	c.buf = ""
	return c.src.Close()
}

var errMissingRowDelimiter = errors.New("resultset: malformed text payload: missing leading row delimiter")

// decodeRecord types one RECORD (element or record) into a row carved from
// rows, in one walk of its columns: each fills the first empty column of
// its name, searching from the column after the last one filled, so
// columns in schema order hit at once and an absent one is NULL.
func decodeRecord(rec xdm.Node, cols []Column, rows *rowSlab) (row []xdm.Atomic, err error) {
	row = rows.carve(len(cols))
	from := 0
	xdm.Columns(rec, func(name, text string) bool {
		for j := range cols {
			i := (from + j) % len(cols)
			if row[i] != nil || cols[i].ElementName != name {
				continue
			}
			if row[i], err = parseValue(text, cols[i]); err != nil {
				return false
			}
			from = i + 1
			break
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return row, nil
}

// rowSlab carves rows from []xdm.Atomic slabs, the first one row long and
// each next one twice that, up to 4 KiB; a slab is never reused, so a row
// stays valid however long it is kept (Materialize keeps every row).
type rowSlab struct {
	slab []xdm.Atomic
	n    int // rows the last slab held
}

func (s *rowSlab) carve(width int) []xdm.Atomic {
	if len(s.slab) < width {
		s.n = max(min(2*s.n, slabCells/width), 1)
		s.slab = make([]xdm.Atomic, s.n*width)
	}
	row := s.slab[:width:width]
	s.slab = s.slab[width:]
	return row
}

// TextDecoder types §4 text rows — the per-row core of StreamText and
// the wire client — carving each from a rowSlab, and
// unescapes values into one append-only text slab, which starts at what
// its first value needs and doubles up to 4 KiB on the same rule. A value
// with no entity is a substring of its row's text. A decoder copied by
// value starts slabs of its own.
type TextDecoder struct {
	Cols []Column
	rows rowSlab
	text strings.Builder // unescaped values, handed out as substrings
	self *TextDecoder    // the decoder the slabs belong to
}

// slabCells caps a slab at 4 KiB with the 8-byte header the allocator
// puts on a pointerful object of that size; slabText caps a text slab.
const (
	slabCells = (4096 - 8) / 16
	slabText  = 4096
)

// Decode types one row (leading row delimiter already stripped).
func (d *TextDecoder) Decode(rowText string) ([]xdm.Atomic, error) {
	if d.self != d {
		*d = TextDecoder{Cols: d.Cols, self: d}
	}
	cols := d.Cols
	if n := strings.Count(rowText, ColumnDelimiter) + 1; n != len(cols) {
		return nil, fmt.Errorf("resultset: row has %d fields, schema has %d columns", n, len(cols))
	}
	row := d.rows.carve(len(cols))
	for i := range cols {
		var field string
		field, rowText, _ = strings.Cut(rowText, ColumnDelimiter)
		if field == NullToken {
			row[i] = nil
			continue
		}
		v, err := parseValue(d.unescape(field), cols[i])
		if err != nil {
			return nil, err
		}
		row[i] = v
	}
	return row, nil
}

// unescape reverses fn-bea:xml-escape in one left-to-right pass: each "&"
// that starts one of the four entities becomes its character, any other is
// kept, and scanning resumes after the replacement — so "&amp;lt;" is
// "&lt;", and a literal "&#xD;" (which arrives as "&amp;#xD;") survives.
// The runs between entities are copied as they are, into the text slab.
func (d *TextDecoder) unescape(s string) string {
	i := strings.IndexByte(s, '&')
	if i < 0 {
		return s
	}
	b := &d.text
	if b.Cap()-b.Len() < len(s) { // unescaping never lengthens a value
		size := max(min(2*b.Cap(), slabText), len(s))
		*b = strings.Builder{}
		b.Grow(size)
	}
	from := b.Len()
	for ; i >= 0; i = strings.IndexByte(s, '&') {
		b.WriteString(s[:i])
		s = s[i:]
		n, c := 1, byte('&')
		switch {
		case strings.HasPrefix(s, "&lt;"):
			n, c = 4, '<'
		case strings.HasPrefix(s, "&gt;"):
			n, c = 4, '>'
		case strings.HasPrefix(s, "&#xD;"):
			n, c = 5, '\r'
		case strings.HasPrefix(s, "&amp;"):
			n, c = 5, '&'
		}
		b.WriteByte(c)
		s = s[n:]
	}
	b.WriteString(s)
	return b.String()[from:]
}

// appendTextRow appends row in the form TextDecoder reads back.
func appendTextRow(dst []byte, row []xdm.Atomic) []byte {
	for i, v := range row {
		if i > 0 {
			dst = append(dst, ColumnDelimiter...)
		}
		if v == nil {
			dst = append(dst, NullToken...)
		} else {
			dst = xdm.AppendEscapedText(dst, v.Lexical())
		}
	}
	return dst
}

// NewStreaming wraps a row cursor as a Rows: a thin pull view until the
// caller needs scrollability (Len, Reset), at which point the remaining
// rows materialize via Materialize.
func NewStreaming(cur RowCursor) *Rows {
	return &Rows{cols: cur.Columns(), cur: cur}
}

// Cursor returns a pull view over this result set, consuming from the
// current position — how already-materialized results (stored procedures,
// metadata statements) join the cursor-shaped driver path.
func (r *Rows) Cursor() RowCursor { return &materializedCursor{r: r} }

type materializedCursor struct {
	r *Rows
}

func (c *materializedCursor) Columns() []Column { return c.r.Columns() }

func (c *materializedCursor) Next() ([]xdm.Atomic, error) {
	if !c.r.Next() {
		if err := c.r.Err(); err != nil {
			return nil, err
		}
		return nil, io.EOF
	}
	return c.r.current()
}

func (c *materializedCursor) Close() error {
	c.r.Close()
	return nil
}
