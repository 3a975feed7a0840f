// stream.go is the incremental side of §4 result handling: pull-based
// decoders that type one row per Next instead of materializing the whole
// result first. Both decoding paths exist in streaming form — the XML path
// consumes RECORD elements as the evaluator produces them, and the text
// path tokenizes the delimiter-separated payload as its fragments arrive —
// so the driver's JDBC-style result sets can deliver a first row while the
// query is still running.
package resultset

import (
	"errors"
	"fmt"
	"io"
	"slices"
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

// rowAligned is the optional hint that every chunk is exactly one result
// row, letting the decoders skip buffering.
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
	return &xmlCursor{src: src, cols: cols, dups: duplicateNames(cols), aligned: isAligned(src)}
}

type xmlCursor struct {
	src     ItemStream
	cols    []Column
	dups    bool
	aligned bool
	queue   []*xdm.Element
	closed  bool
}

func (c *xmlCursor) Columns() []Column { return c.cols }

func (c *xmlCursor) Next() ([]xdm.Atomic, error) {
	for {
		if len(c.queue) > 0 {
			rec := c.queue[0]
			c.queue = c.queue[1:]
			row, err := decodeRecord(rec, c.cols, c.dups)
			if err != nil {
				return nil, err
			}
			return row, nil
		}
		if c.closed {
			return nil, io.EOF
		}
		chunk, err := c.src.Next()
		if err != nil {
			return nil, err // io.EOF included
		}
		for _, it := range chunk {
			el, ok := it.(*xdm.Element)
			switch {
			case ok && el.Name.Local == "RECORD":
				c.queue = append(c.queue, el)
			case ok && el.Name.Local == "RECORDSET":
				c.queue = append(c.queue, el.ChildElements("RECORD")...)
			case c.aligned:
				// Aligned chunks are RECORDSET content items: anything that
				// is not a RECORD element is dropped, exactly as FromXML's
				// ChildElements walk drops it.
			default:
				return nil, fmt.Errorf("resultset: expected RECORDSET element, got %v", it)
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

// StreamText decodes the §4 text-encoded result incrementally. Aligned
// streams deliver one row's token sequence per chunk and decode it
// immediately; unaligned fragments are buffered and split on the row
// delimiter, which escaping guarantees cannot occur inside values.
func StreamText(src ItemStream, cols []Column) RowCursor {
	return &textCursor{src: src, cols: cols, aligned: isAligned(src)}
}

type textCursor struct {
	src     ItemStream
	cols    []Column
	aligned bool

	pending []string // complete, undecoded row texts (leading '>' stripped)
	partial string   // bytes after the last row delimiter seen
	started bool     // leading row delimiter consumed
	srcEOF  bool
	closed  bool
}

func (c *textCursor) Columns() []Column { return c.cols }

func (c *textCursor) Next() ([]xdm.Atomic, error) {
	rowText, err := c.nextText()
	if err != nil {
		return nil, err
	}
	row, err := DecodeTextRow(rowText, c.cols)
	if err != nil {
		return nil, err
	}
	return row, nil
}

// nextText returns the next row's text as the payload carries it (leading
// row delimiter stripped, still escaped), and io.EOF after the last row.
func (c *textCursor) nextText() (string, error) {
	for {
		if len(c.pending) > 0 {
			rowText := c.pending[0]
			c.pending = c.pending[1:]
			return rowText, nil
		}
		if c.closed || c.srcEOF {
			return "", io.EOF
		}
		chunk, err := c.src.Next()
		if err == io.EOF {
			c.srcEOF = true
			// Flush the trailing buffered row; aligned rows complete per
			// chunk, and an empty payload has none.
			if !c.aligned && c.started {
				c.pending = append(c.pending, c.partial)
				c.partial = ""
			}
			continue
		}
		if err != nil {
			return "", err
		}
		text := chunkText(chunk)
		if c.aligned {
			// One whole row, delimiter included.
			if !strings.HasPrefix(text, RowDelimiter) {
				return "", errMissingRowDelimiter
			}
			return text[len(RowDelimiter):], nil
		}
		if err := c.feed(text); err != nil {
			return "", err
		}
	}
}

var errMissingRowDelimiter = errors.New("resultset: malformed text payload: missing leading row delimiter")

// chunkText is a chunk's text: a fused row arrives as one string and is
// taken as is; a token sequence is concatenated.
func chunkText(chunk xdm.Sequence) string {
	if len(chunk) == 1 {
		return xdm.StringValue(chunk[0])
	}
	var b strings.Builder
	for _, it := range chunk {
		b.WriteString(xdm.StringValue(it))
	}
	return b.String()
}

// feed appends one fragment of an unaligned payload, splitting complete
// rows off into the pending queue.
func (c *textCursor) feed(text string) error {
	if !c.started {
		if text == "" {
			return nil
		}
		if !strings.HasPrefix(text, RowDelimiter) {
			return errMissingRowDelimiter
		}
		c.started = true
		text = text[1:]
	} else {
		text = c.partial + text
		c.partial = ""
	}
	parts := strings.Split(text, RowDelimiter)
	c.pending = append(c.pending, parts[:len(parts)-1]...)
	c.partial = parts[len(parts)-1]
	return nil
}

func (c *textCursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	c.pending, c.partial = nil, ""
	return c.src.Close()
}

// decodeRecord types one RECORD element against the result schema — the
// per-row core FromXML loops over — in one walk of its children: each
// fills the first empty column of its name, so duplicate names match
// positionally and an absent element is NULL. Without duplicates (dups) the
// search starts after the last column filled: schema order hits at once.
func decodeRecord(rec *xdm.Element, cols []Column, dups bool) ([]xdm.Atomic, error) {
	row := make([]xdm.Atomic, len(cols))
	from := 0
	for _, n := range rec.Children {
		el, looking := n.(*xdm.Element)
		for j := 0; looking && j < len(cols); j++ {
			i := (from + j) % len(cols)
			if row[i] != nil || cols[i].ElementName != el.Name.Local {
				continue
			}
			v, err := parseValue(el.StringValue(), cols[i])
			if err != nil {
				return nil, err
			}
			row[i], looking = v, false
			if !dups {
				from = i + 1
			}
		}
	}
	return row, nil
}

// duplicateNames reports whether two columns share an element name.
func duplicateNames(cols []Column) bool {
	for i, c := range cols {
		if slices.ContainsFunc(cols[:i], func(d Column) bool { return d.ElementName == c.ElementName }) {
			return true
		}
	}
	return false
}

// DecodeTextRow types one delimiter-separated row (leading row delimiter
// already stripped) — the per-row core of FromText, StreamText and fetch.
func DecodeTextRow(rowText string, cols []Column) ([]xdm.Atomic, error) {
	if n := strings.Count(rowText, ColumnDelimiter) + 1; n != len(cols) {
		return nil, fmt.Errorf("resultset: row has %d fields, schema has %d columns", n, len(cols))
	}
	row := make([]xdm.Atomic, len(cols))
	for i := range cols {
		var field string
		field, rowText, _ = strings.Cut(rowText, ColumnDelimiter)
		if field == NullToken {
			row[i] = nil
			continue
		}
		v, err := parseValue(unescape(field), cols[i])
		if err != nil {
			return nil, err
		}
		row[i] = v
	}
	return row, nil
}

// appendTextRow appends row in the form DecodeTextRow reads back.
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
