// Package wire defines the message vocabulary of the aqlserve wire
// protocol — the client/server boundary the paper's architecture draws
// between the thin JDBC driver and the AquaLogic DSP server. Both ends of
// the wire (internal/server and internal/remoteclient) share these types
// and this package's body writer and reader, so the protocol cannot skew
// between them.
//
// Every request, and every response but two, is one JSON value. The two
// that carry rows — execute and fetch — are framed: one JSON envelope
// line (the response's fields, plus the chunk's row count and byte
// length), a newline, then the chunk's rows as the paper's §4 payload,
// each row prefixed by '>' exactly as resultset.FromText reads it. Rows
// never pass through JSON; the client splits the payload and types each
// row with the in-process decoder against the result schema an execute
// returns once. The envelope's counts let the reader refuse a short,
// long or garbled payload instead of delivering a silently short chunk.
//
// The execute response carries the first chunk itself, so a result that
// fits one chunk costs one round trip and leaves no cursor behind; a
// larger one continues through fetch and ends with a cursor close. Errors
// travel as (kind, op, message) triples and are reconstructed client-side
// as typed aqerr.QueryError values, so errors.As-based handling works
// identically against a remote server and an in-process platform.
package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/catalog"
	"repro/internal/obsv"
	"repro/internal/qcache"
	"repro/internal/resultset"
	"repro/internal/translator"
)

// ModeName renders a result mode as its wire name ("text" or "xml").
func ModeName(mode translator.ResultMode) string {
	if mode == translator.ModeXML {
		return "xml"
	}
	return "text"
}

// Protocol endpoints, rooted under the version prefix.
const (
	PathHandshake    = "/v1/handshake"
	PathPrepare      = "/v1/prepare"
	PathExecute      = "/v1/execute"
	PathFetch        = "/v1/fetch"
	PathCloseCursor  = "/v1/cursor/close"
	PathCloseSession = "/v1/session/close"
	PathExplain      = "/v1/explain"
	PathCreateView   = "/v1/view"
	PathMetaLookup   = "/v1/meta/lookup"
	PathMetaTables   = "/v1/meta/tables"
	PathMetaProcs    = "/v1/meta/procedures"
	PathStats        = "/v1/stats"
)

// ProtocolVersion is sent in the handshake; a server refuses any other
// value, so peers built from different revisions part there instead of
// misreading chunks. Version 5 dropped the dialect field of prepare,
// execute and explain: every statement is SQL-92. Version 4 framed
// execute and fetch bodies as an envelope line plus a §4 payload; version
// 3 sent rows as a JSON array of row strings, version 2 opened every
// cursor empty, and clients that carried typed-atom rows sent none.
const ProtocolVersion = 5

// Atom is one non-NULL execute argument in transit: the lexical form plus
// the xdm.AtomicType it parses back into. NULL is a nil *Atom.
type Atom struct {
	T int    `json:"t"`
	V string `json:"v"`
}

// Error is a typed failure in transit (aqerr.QueryError flattened).
// RetryAfterMS is the server's backoff hint on shed responses: "come back
// in this long" — zero means no hint (the client uses its own backoff).
type Error struct {
	Kind         string `json:"kind"` // aqerr.Kind wire name
	Op           string `json:"op"`
	Msg          string `json:"msg"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// BudgetHeader carries the client's remaining deadline budget, in whole
// milliseconds, on every verb. The server clamps the request's context —
// and, for execute, the evaluation context — to it, so work the client
// has already abandoned is never evaluated. Absent or zero means no
// client deadline.
const BudgetHeader = "X-Aql-Budget-Ms"

// Handshake opens a session.
type HandshakeRequest struct {
	Client   string `json:"client,omitempty"` // free-form client identity
	Protocol int    `json:"protocol"`         // the client's ProtocolVersion
}

// HandshakeResponse returns the session token every later request carries.
type HandshakeResponse struct {
	Session string `json:"session"`
}

// PrepareRequest compiles a statement into the session's prepared table.
type PrepareRequest struct {
	Session string `json:"session"`
	SQL     string `json:"sql"`
	Mode    string `json:"mode"` // "text" (default) or "xml"
}

// PrepareResponse describes the prepared statement.
type PrepareResponse struct {
	Stmt       int64              `json:"stmt"`
	Columns    []resultset.Column `json:"columns"`
	ParamCount int                `json:"params"`
}

// ExecuteRequest starts an evaluation: either of a prepared statement
// (Stmt > 0) or of ad-hoc SQL (Stmt == 0, SQL/Mode set).
//
// ExecKey is the idempotency token: a client-unique key for this logical
// execute. When a retried request re-presents a key whose cursor is still
// open, the server replays that cursor and its first chunk instead of
// starting a second evaluation — a response lost to the network never
// leaks a duplicate running query. A result that ended in its first chunk
// left no cursor and so keeps no key: a retry whose response was lost
// evaluates again, which on this read-only platform holds nothing open
// and returns the same answer. BudgetMS is the client's remaining
// deadline in milliseconds; the server clamps the evaluation context to
// min(server QueryTimeout, BudgetMS), so abandoned work is not evaluated.
type ExecuteRequest struct {
	Session  string  `json:"session"`
	Stmt     int64   `json:"stmt,omitempty"`
	SQL      string  `json:"sql,omitempty"`
	Mode     string  `json:"mode,omitempty"`
	Args     []*Atom `json:"args,omitempty"`
	ExecKey  string  `json:"exec_key,omitempty"`
	BudgetMS int64   `json:"budget_ms,omitempty"`
}

// ExecuteResponse carries the result schema and the first chunk of rows,
// with FetchResponse's meaning: EOF marks stream end, Error a failure
// after the rows that preceded it. A chunk that ends the stream has
// already closed the evaluation, and Cursor is 0; otherwise Cursor names
// the open server-side cursor, the chunk is its sequence 1, and the rest
// streams through fetch calls from sequence 2.
type ExecuteResponse struct {
	Cursor  int64              `json:"cursor"`
	Columns []resultset.Column `json:"columns"`
	Chunk
	EOF   bool   `json:"eof,omitempty"`
	Error *Error `json:"error,omitempty"`
}

// FetchRequest pulls the next chunk of rows from a cursor.
//
// Seq makes fetch idempotent: the client numbers chunks 1, 2, 3, … per
// cursor — chunk 1 came with execute, so the first fetch is 2 — and the
// server caches the last chunk it produced. Re-presenting
// the current sequence number replays that chunk byte-identically (a retry
// never skips or doubles rows); presenting the next
// number advances the cursor. Every fetch is numbered: any other number,
// 0 included, is a typed permanent error.
type FetchRequest struct {
	Session string `json:"session"`
	Cursor  int64  `json:"cursor"`
	Seq     int64  `json:"seq,omitempty"`
}

// FetchResponse carries one chunk of rows, at most the server's FetchRows,
// in resultset.Rows.NextText's form. EOF marks stream end; Error carries a
// mid-stream failure and may accompany rows already produced (a truncated
// stream delivers its prefix *and* the error, never silently).
type FetchResponse struct {
	Chunk
	EOF   bool   `json:"eof,omitempty"`
	Error *Error `json:"error,omitempty"`
}

// Chunk is the rows an execute or fetch response carries, each one §4 row
// without its leading '>'. The rows travel after the envelope line, not in
// it; RowCount and RowBytes are the envelope's record of them (the row
// count and the payload's length in bytes), which WriteBody fills in and
// ReadBody holds the payload to.
type Chunk struct {
	Rows     []string `json:"-"`
	RowCount int      `json:"row_count"`
	RowBytes int      `json:"row_bytes"`
}

func (c *Chunk) chunk() *Chunk { return c }

// framed is implemented by the responses whose rows follow the envelope:
// *ExecuteResponse and *FetchResponse.
type framed interface{ chunk() *Chunk }

// CloseCursorRequest releases a cursor (idempotent: closing an unknown or
// already-closed cursor succeeds with Closed=false).
type CloseCursorRequest struct {
	Session string `json:"session"`
	Cursor  int64  `json:"cursor"`
}

// CloseCursorResponse reports whether a live cursor was actually closed.
type CloseCursorResponse struct {
	Closed bool `json:"closed"`
}

// CloseSessionRequest ends a session, closing its cursors and prepared
// statements.
type CloseSessionRequest struct {
	Session string `json:"session"`
}

// CloseSessionResponse acknowledges a session close (idempotent).
type CloseSessionResponse struct{}

// ExplainRequest compiles a statement and renders its plan.
type ExplainRequest struct {
	Session string `json:"session"`
	SQL     string `json:"sql"`
	Mode    string `json:"mode"`
}

// ExplainResponse is the rendered plan text.
type ExplainResponse struct {
	Text string `json:"text"`
}

// CreateViewRequest registers a logical data service (CREATE VIEW).
type CreateViewRequest struct {
	Session string `json:"session"`
	Path    string `json:"path"`
	Name    string `json:"name"`
	SQL     string `json:"sql"`
}

// CreateViewResponse acknowledges a view definition.
type CreateViewResponse struct{}

// LookupRequest resolves one table reference.
type LookupRequest struct {
	Session string `json:"session,omitempty"`
	Catalog string `json:"catalog,omitempty"`
	Schema  string `json:"schema,omitempty"`
	Table   string `json:"table"`
}

// LookupResponse returns the metadata, or the typed catalog failure:
// NotFound and Ambiguous reconstruct catalog.NotFoundError and
// catalog.AmbiguousError client-side, so a remote translator sees the
// same error shapes an in-process one does.
type LookupResponse struct {
	Meta      *catalog.TableMeta `json:"meta,omitempty"`
	NotFound  bool               `json:"not_found,omitempty"`
	Ambiguous []string           `json:"ambiguous,omitempty"`
}

// MetasRequest lists table or procedure metadata.
type MetasRequest struct {
	Session string `json:"session,omitempty"`
}

// MetasResponse lists table or procedure metadata.
type MetasResponse struct {
	Metas []*catalog.TableMeta `json:"metas"`
}

// StatsRequest asks for the server and pipeline counters.
type StatsRequest struct{}

// ErrorResponse is the body of any failed request.
type ErrorResponse struct {
	Error *Error `json:"error"`
}

// ServerStats is the server front end's own counter block.
type ServerStats struct {
	SessionsOpen      int64 `json:"sessions_open"`
	SessionsOpened    int64 `json:"sessions_opened"`
	SessionsReaped    int64 `json:"sessions_reaped"`
	CursorsOpen       int64 `json:"cursors_open"`
	CursorsOpened     int64 `json:"cursors_opened"`
	CursorsReaped     int64 `json:"cursors_reaped"`
	QueriesInFlight   int64 `json:"queries_in_flight"`
	PeakInFlight      int64 `json:"peak_in_flight"`
	AdmissionRejected int64 `json:"admission_rejected"`

	// Cost-aware admission gauges (PR 8). Weighted figures are in admission
	// slots: a query's weight is its compiled cost estimate divided by the
	// configured cost-per-slot, so cheap statements weigh 1 and expensive
	// scans weigh many.
	WeightedInFlight int64 `json:"weighted_in_flight"`
	WeightedCapacity int64 `json:"weighted_capacity"`
	WeightedPeak     int64 `json:"weighted_peak"`
	QueueDepth       int64 `json:"queue_depth"`
	QueuePeak        int64 `json:"queue_peak"`
	// Shed counters by reason: queue overflow and deadline-aware queue
	// timeout. Every admission shed is counted under exactly one.
	ShedQueueFull    int64 `json:"shed_queue_full"`
	ShedQueueTimeout int64 `json:"shed_queue_timeout"`
	// Idempotent replays served from cursor state instead of re-running.
	ExecReplays  int64 `json:"exec_replays"`
	FetchReplays int64 `json:"fetch_replays"`
	// PanicsRecovered counts handler panics turned into typed errors.
	PanicsRecovered int64 `json:"panics_recovered"`
}

// StatsResponse bundles the server's counters, its backend's compile and
// metadata cache counters, and its backend's pipeline snapshot. Each
// event is counted by one owner, so no figure appears in two blocks.
type StatsResponse struct {
	Server   ServerStats        `json:"server"`
	Compile  qcache.Stats       `json:"compile"`
	Metadata catalog.CacheStats `json:"metadata"`
	Pipeline obsv.Snapshot      `json:"pipeline"`
}

// ChunkContentType labels a framed execute or fetch body; every other body
// is application/json.
const ChunkContentType = "application/x-aql-chunk"

// ContentType is the Content-Type of v's body as WriteBody writes it.
func ContentType(v any) string {
	if _, ok := v.(framed); ok {
		return ChunkContentType
	}
	return "application/json"
}

// WriteBody appends the body of message v to buf: one JSON line, HTML
// escaping off (a column label or error message keeps '<' and '&' as one
// byte each). An *ExecuteResponse or *FetchResponse is framed instead: its
// envelope line, with RowCount and RowBytes set from its rows, then the
// rows as the §4 payload ">row>row…".
func WriteBody(buf *bytes.Buffer, v any) error {
	f, ok := v.(framed)
	var c *Chunk
	if ok {
		c = f.chunk()
		c.RowCount, c.RowBytes = len(c.Rows), len(c.Rows)
		for _, row := range c.Rows {
			c.RowBytes += len(row)
		}
	}
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil { // the envelope line, '\n' included
		return err
	}
	if c != nil {
		buf.Grow(c.RowBytes)
		for _, row := range c.Rows {
			buf.WriteString(resultset.RowDelimiter)
			buf.WriteString(row)
		}
	}
	return nil
}

// ReadBody decodes a body WriteBody wrote into v, which must be a fresh
// value: JSON leaves fields the body omits untouched. A framed body is
// checked against its envelope — a missing line end, a payload of another
// length, a payload that does not open with '>', or another number of rows
// is an error and leaves v's rows empty. Its rows are substrings of one
// string holding the whole payload, appended to v's Rows[:0] so a reader
// can lend one row slice to chunk after chunk.
func ReadBody(body []byte, v any) error {
	f, ok := v.(framed)
	if !ok {
		return json.Unmarshal(body, v)
	}
	c := f.chunk()
	rows := c.Rows[:0]
	c.Rows = rows
	nl := bytes.IndexByte(body, '\n')
	if nl < 0 {
		return errors.New("wire: chunk envelope has no line end")
	}
	if err := json.Unmarshal(body[:nl], v); err != nil {
		return fmt.Errorf("wire: chunk envelope: %w", err)
	}
	payload := body[nl+1:]
	if len(payload) != c.RowBytes {
		return fmt.Errorf("wire: chunk payload is %d bytes, envelope says %d", len(payload), c.RowBytes)
	}
	if len(payload) > 0 && payload[0] != resultset.RowDelimiter[0] {
		return errors.New("wire: chunk payload does not open with the row delimiter")
	}
	if n := bytes.Count(payload, []byte(resultset.RowDelimiter)); n != c.RowCount {
		return fmt.Errorf("wire: chunk payload holds %d rows, envelope says %d", n, c.RowCount)
	}
	rows = slices.Grow(rows, c.RowCount)
	text := string(payload)
	for text != "" {
		text = text[1:]
		end := strings.IndexByte(text, resultset.RowDelimiter[0])
		if end < 0 {
			end = len(text)
		}
		rows = append(rows, text[:end])
		text = text[end:]
	}
	c.Rows = rows
	return nil
}

// ReadRequest decodes a request body into v strictly: a field v does not
// declare, or anything but white space after the JSON value, is an error,
// so a misspelled field fails instead of being ignored. Response bodies go
// through ReadBody, which ignores fields it does not know. Decoders are
// pooled — a fresh json.Decoder per body costs an execute request 17
// allocations, against json.Unmarshal's 12 and the pool's 5 — and one that
// failed is dropped, so no state of a bad body outlives it.
func ReadRequest(body []byte, v any) error {
	d := requestDecoders.Get().(*requestDecoder)
	d.r.Reset(body)
	read := d.read
	err := d.dec.Decode(v)
	// The decoder reads ahead: what it read past the value is white space
	// of this body, checked here, and skipped by the next Decode.
	d.read += int64(len(body) - d.r.Len())
	if err == nil && len(bytes.TrimSpace(body[d.dec.InputOffset()-read:])) > 0 {
		err = errors.New("wire: request body holds more than one JSON value")
	}
	if err != nil {
		return err
	}
	d.r.Reset(nil)
	requestDecoders.Put(d)
	return nil
}

// requestDecoder is a strict JSON decoder over one body at a time; read
// counts the bytes it has read over all of them.
type requestDecoder struct {
	r    bytes.Reader
	dec  *json.Decoder
	read int64
}

var requestDecoders = sync.Pool{New: func() any {
	d := new(requestDecoder)
	d.dec = json.NewDecoder(&d.r)
	d.dec.DisallowUnknownFields()
	return d
}}

// maxPooledBuffer caps the buffers GetBuffer recycles, so one huge body
// does not pin its memory in the pool.
const maxPooledBuffer = 1 << 20

var bufferPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// GetBuffer returns an empty buffer for one request or response body.
func GetBuffer() *bytes.Buffer { return bufferPool.Get().(*bytes.Buffer) }

// PutBuffer recycles a buffer from GetBuffer. Nothing may hold its bytes
// afterwards: ReadBody copies what it keeps.
func PutBuffer(b *bytes.Buffer) {
	if b.Cap() <= maxPooledBuffer {
		b.Reset()
		bufferPool.Put(b)
	}
}
