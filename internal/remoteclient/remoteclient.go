// Package remoteclient is the thin-driver side of the wire protocol: the
// paper's client-side JDBC driver reimagined for this codebase. A Client
// speaks the internal/wire protocol to an aqlserve server and presents the
// same two surfaces the in-process platform does:
//
//   - the query surface, one method per wire verb (QueryDialect returning
//     *resultset.Rows, PrepareDialect returning reusable statements,
//     ExplainDialect, DefineView), which the database/sql driver opens
//     behind aql:// DSNs, and
//   - the catalog surface (Client implements catalog.Source, including
//     the typed NotFoundError/AmbiguousError shapes), so metadata-hungry
//     tools browse a remote server exactly as they browse a local catalog.
//
// Result rows stream in chunks: the execute response carries the first,
// and when that chunk ends the result the server has already closed the
// evaluation — one round trip, nothing to close. A longer result leaves a
// server-side cursor that the returned Rows pulls further chunks from
// over fetch calls through a RowCursor, preserving the platform's
// incremental delivery — first row before last row exists — across the
// wire, and closes when done. Each chunk arrives as the paper's §4 text:
// the body is read into a pooled buffer, the payload becomes one string,
// and its rows are substrings of it held in a row slice the cursor lends
// to chunk after chunk; wire.ReadBody holds the payload to the row count
// and length its envelope states, so a damaged body is a typed transient
// error the sequenced retry recovers from, never a silently short chunk.
// Mid-stream failures arrive as typed errors after any rows that preceded
// them (a truncated stream is never silent), and a cancelled client
// context surfaces as a timeout-kind error wrapping context.Canceled,
// distinguishable from server-side failures.
//
// Two transports exist: Dial speaks real HTTP to a remote address, and
// Loopback binds a client directly to a server's http.Handler in process
// — no sockets, no file descriptors — which is what lets the load harness
// simulate thousands of concurrent clients against one server.
//
// Every client carries a resilience net (see Options): transport
// failures classify as typed transient errors and idempotent verbs
// retry with backoff, honoring server Retry-After hints; a per-server
// circuit breaker fails fast when the transport itself is down; every
// execute carries an idempotency key and every fetch a sequence number,
// so a retried duplicate replays the server's cached chunk
// byte-identically instead of skipping or doubling rows (a retried
// execute whose result already ended evaluates again). Each verb also
// forwards the caller's remaining context deadline as an explicit
// budget header, so the server never keeps working on a request its
// caller has already abandoned.
package remoteclient

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"repro/internal/aqerr"
	"repro/internal/catalog"
	"repro/internal/resilient"
	"repro/internal/resultset"
	"repro/internal/translator"
	"repro/internal/wire"
	"repro/internal/xdm"

	"encoding/json"
)

// Client is one wire session against an aqlserve server. It is safe for
// concurrent use; all its configuration after the handshake is
// immutable (the breaker and exec-key counter are internally
// synchronized).
type Client struct {
	hc      *http.Client
	base    string
	session string
	opts    Options
	br      *resilient.Breaker
	execSeq atomic.Int64
}

// dialClient is the single pooled HTTP client every Dial session shares.
// Each verb is one POST, so without keep-alive pooling a busy client fleet
// re-handshakes TCP per request; one transport with a per-host idle pool
// amortizes connections across all sessions to the same server.
var dialClient = &http.Client{
	Transport: &http.Transport{
		Proxy:               http.ProxyFromEnvironment,
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 32,
		IdleConnTimeout:     90 * time.Second,
	},
}

// Dial connects to a server over real HTTP and opens a session with
// default resilience Options. All dialed clients share one pooled,
// keep-alive transport.
func Dial(baseURL string) (*Client, error) {
	return DialOptions(baseURL, Options{})
}

// DialOptions is Dial with explicit resilience knobs.
func DialOptions(baseURL string, opts Options) (*Client, error) {
	return connect(baseURL, dialClient, opts)
}

// Loopback binds a client directly to a server handler in-process: every
// request is a function call through an in-memory transport, so thousands
// of concurrent clients cost goroutines, not sockets.
func Loopback(h http.Handler) (*Client, error) {
	return LoopbackOptions(h, Options{})
}

// LoopbackOptions is Loopback with explicit resilience knobs.
func LoopbackOptions(h http.Handler, opts Options) (*Client, error) {
	return connect("http://loopback", &http.Client{Transport: loopbackTransport{h: h}}, opts)
}

func connect(base string, hc *http.Client, opts Options) (*Client, error) {
	opts = opts.withDefaults()
	c := &Client{hc: hc, base: strings.TrimSuffix(base, "/"), opts: opts}
	c.br = resilient.NewBreaker("server "+c.base, opts.BreakerThreshold, opts.BreakerCooldown)
	// A lost handshake response leaks a session until the idle reaper
	// collects it, which is why retrying it here is safe.
	resp, err := postRetry[wire.HandshakeResponse](context.Background(), c, "handshake", wire.PathHandshake,
		wire.HandshakeRequest{Client: "remoteclient", Protocol: wire.ProtocolVersion}, true)
	if err != nil {
		return nil, err
	}
	c.session = resp.Session
	return c, nil
}

// Session returns the server-issued session token.
func (c *Client) Session() string { return c.session }

// Close ends the session, closing its server-side cursors and prepared
// statements. Closing an already-closed (or reaped) session succeeds.
func (c *Client) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := postRetry[wire.CloseSessionResponse](ctx, c, "close session", wire.PathCloseSession,
		wire.CloseSessionRequest{Session: c.session}, true)
	return err
}

// loopbackTransport serves each request by calling the handler directly.
type loopbackTransport struct {
	h http.Handler
}

func (t loopbackTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if err := req.Context().Err(); err != nil {
		return nil, err
	}
	rw := &memResponse{header: make(http.Header), code: http.StatusOK}
	t.h.ServeHTTP(rw, req)
	if err := req.Context().Err(); err != nil {
		// The handler returned because the caller's context died (a stall
		// fault cancelled mid-request): surface the cancellation, as a real
		// transport would.
		return nil, err
	}
	return &http.Response{
		Status:     http.StatusText(rw.code),
		StatusCode: rw.code,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     rw.header,
		Body:       io.NopCloser(bytes.NewReader(rw.buf.Bytes())),
		Request:    req,
	}, nil
}

// memResponse is the minimal in-memory http.ResponseWriter behind the
// loopback transport.
type memResponse struct {
	header http.Header
	buf    bytes.Buffer
	code   int
	wrote  bool
}

func (m *memResponse) Header() http.Header { return m.header }

func (m *memResponse) WriteHeader(code int) {
	if !m.wrote {
		m.wrote = true
		m.code = code
	}
}

func (m *memResponse) Write(p []byte) (int, error) {
	m.wrote = true
	return m.buf.Write(p)
}

// post performs one request/response exchange, decoding the body into
// out with wire.ReadBody. Protocol failures decode the server's
// wire.Error back into a typed QueryError. Transport
// failures are classified here, and the split matters to every caller up
// to Rows.Err(): the caller's own context expiry surfaces as a
// timeout-kind error still matching errors.Is(ctx.Err()), while every
// other way an exchange can die without a server verdict — refused or
// reset connections, a response body cut off mid-stream or disagreeing
// with its envelope — is a typed transient error, never an untyped one a
// retry loop or breaker would have to string-match. The caller's
// remaining deadline also travels as an explicit budget header, so the
// server can stop (or never start) work the client will not wait for.
func (c *Client) post(ctx context.Context, op, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return aqerr.Errorf(aqerr.KindInternal, op, "encode request: %v", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return aqerr.Errorf(aqerr.KindInternal, op, "build request: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if dl, ok := ctx.Deadline(); ok {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			req.Header.Set(wire.BudgetHeader, strconv.FormatInt(ms, 10))
		}
	}
	res, err := c.hc.Do(req)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return aqerr.Wrap(op, err) // the caller gave up → timeout kind
		}
		return aqerr.New(aqerr.KindTransient, op, err) // server never answered
	}
	defer res.Body.Close()
	buf := wire.GetBuffer()
	defer wire.PutBuffer(buf)
	_, rerr := buf.ReadFrom(res.Body)
	if res.StatusCode != http.StatusOK {
		var er wire.ErrorResponse
		if rerr == nil && wire.ReadBody(buf.Bytes(), &er) == nil && er.Error != nil {
			return decodeError(er.Error)
		}
		// A non-OK status whose error body did not survive the trip: the
		// server's verdict is unknown, the transport is suspect.
		return aqerr.Errorf(aqerr.KindTransient, op, "server returned HTTP %d with unreadable error body", res.StatusCode)
	}
	if rerr == nil {
		rerr = wire.ReadBody(buf.Bytes(), out)
	}
	if rerr != nil {
		return aqerr.Errorf(aqerr.KindTransient, op, "malformed response: %v", rerr)
	}
	return nil
}

// decodeError rebuilds a typed QueryError from its wire form, so
// errors.As/Kind-based handling — including the Retry-After hint on a
// shed — is identical on both sides of the wire. A timeout the server's
// context caused keeps that cause: errors.Is matches
// context.DeadlineExceeded or context.Canceled, as it does in process.
func decodeError(we *wire.Error) error {
	kind, cause := aqerr.ParseKind(we.Kind), errors.New(we.Msg)
	for _, ctxErr := range []error{context.DeadlineExceeded, context.Canceled} {
		if prefix, ok := strings.CutSuffix(we.Msg, ctxErr.Error()); ok && kind == aqerr.KindTimeout {
			cause = fmt.Errorf("%s%w", prefix, ctxErr)
		}
	}
	qe := aqerr.New(kind, we.Op, cause)
	if we.RetryAfterMS > 0 {
		qe.RetryAfter = time.Duration(we.RetryAfterMS) * time.Millisecond
	}
	return qe
}

// encodeArgs converts Go parameter values to typed wire atoms.
func encodeArgs(op string, args []any) ([]*wire.Atom, error) {
	if len(args) == 0 {
		return nil, nil
	}
	out := make([]*wire.Atom, len(args))
	for i, a := range args {
		v, err := xdm.FromGo(a)
		if err != nil {
			return nil, aqerr.Errorf(aqerr.KindPermanent, op, "parameter %d: %v", i+1, err)
		}
		out[i] = &wire.Atom{T: int(v.Type()), V: v.Lexical()}
		if err := validText(op, out[i].V); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// validText refuses text that is not UTF-8: requests travel as JSON, which
// would carry it with U+FFFD in place of the bytes — another statement or
// value than the caller's.
func validText(op, text string) error {
	if !utf8.ValidString(text) {
		return aqerr.Errorf(aqerr.KindPermanent, op, "text is not valid UTF-8")
	}
	return nil
}

// QueryDialect runs an ad-hoc statement in the given dialect and result
// mode, returning a streaming result set whose rows arrive in fetch-sized
// chunks. The dialect name travels on the wire; empty means SQL-92. ctx
// governs the whole stream: cancelling it fails the next fetch with a
// timeout-kind error wrapping the context error.
func (c *Client) QueryDialect(ctx context.Context, dialect string, mode translator.ResultMode, text string, args ...any) (*resultset.Rows, error) {
	if err := validText("execute", text); err != nil {
		return nil, err
	}
	wargs, err := encodeArgs("execute", args)
	if err != nil {
		return nil, err
	}
	return c.execute(ctx, wire.ExecuteRequest{Session: c.session, SQL: text, Mode: wire.ModeName(mode), Dialect: dialect, Args: wargs})
}

func (c *Client) execute(ctx context.Context, req wire.ExecuteRequest) (*resultset.Rows, error) {
	// The exec key makes this verb idempotent: a retry after a lost
	// response replays the open cursor and its first chunk instead of
	// running the query twice; a result that ended in its first chunk left
	// nothing open, and a retry reads it again. The explicit budget lets
	// the server clamp evaluation — and bound the admission queue wait —
	// to what the caller will actually wait for.
	req.ExecKey = "x" + strconv.FormatInt(c.execSeq.Add(1), 10)
	if dl, ok := ctx.Deadline(); ok {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			req.BudgetMS = ms
		}
	}
	resp, err := postRetry[wire.ExecuteResponse](ctx, c, "execute", wire.PathExecute, req, true)
	if err != nil {
		return nil, err
	}
	cur := &remoteCursor{c: c, ctx: ctx, cursor: resp.Cursor, dec: resultset.TextDecoder{Cols: resp.Columns}}
	cur.take(1, wire.FetchResponse{Chunk: resp.Chunk, EOF: resp.EOF, Error: resp.Error})
	return resultset.NewStreaming(cur), nil
}

// Stmt is a prepared statement pinned in the server session.
type Stmt struct {
	c      *Client
	id     int64
	cols   []resultset.Column
	params int
}

// Prepare is PrepareDialect in SQL-92.
func (c *Client) Prepare(ctx context.Context, sql string, mode translator.ResultMode) (*Stmt, error) {
	return c.PrepareDialect(ctx, "", sql, mode)
}

// PrepareDialect compiles a statement server-side and pins it in the
// session's prepared table until the session closes ("" dialect =
// SQL-92). The server recompiles it only when the catalog, statistics or
// a source it touched moved on (CREATE VIEW, say).
func (c *Client) PrepareDialect(ctx context.Context, dialect, text string, mode translator.ResultMode) (*Stmt, error) {
	if err := validText("prepare", text); err != nil {
		return nil, err
	}
	// Retry-safe: a duplicate prepare pins a second copy of the statement,
	// reclaimed with the session — never a semantic change.
	resp, err := postRetry[wire.PrepareResponse](ctx, c, "prepare", wire.PathPrepare,
		wire.PrepareRequest{Session: c.session, SQL: text, Mode: wire.ModeName(mode), Dialect: dialect}, true)
	if err != nil {
		return nil, err
	}
	return &Stmt{c: c, id: resp.Stmt, cols: resp.Columns, params: resp.ParamCount}, nil
}

// Columns returns the prepared statement's result schema.
func (s *Stmt) Columns() []resultset.Column { return s.cols }

// ParamCount returns the number of ? placeholders.
func (s *Stmt) ParamCount() int { return s.params }

// Cost is 1: the server that holds the statement weighs it itself.
func (s *Stmt) Cost() int64 { return 1 }

// Execute runs the prepared statement with the given parameters.
func (s *Stmt) Execute(ctx context.Context, args ...any) (*resultset.Rows, error) {
	wargs, err := encodeArgs("execute", args)
	if err != nil {
		return nil, err
	}
	return s.c.execute(ctx, wire.ExecuteRequest{Session: s.c.session, Stmt: s.id, Args: wargs})
}

// ExplainDialect compiles a statement remotely and returns its rendered
// artifact, as EXPLAIN prints it ("" dialect = SQL-92).
func (c *Client) ExplainDialect(ctx context.Context, dialect, text string, mode translator.ResultMode) (string, error) {
	if err := validText("explain", text); err != nil {
		return "", err
	}
	resp, err := postRetry[wire.ExplainResponse](ctx, c, "explain", wire.PathExplain,
		wire.ExplainRequest{Session: c.session, SQL: text, Mode: wire.ModeName(mode), Dialect: dialect}, true)
	return resp.Text, err
}

// DefineView registers a logical data service on the server. It is the
// one verb with a durable side effect, so it is never retried: a lost
// response must surface to the caller, not risk a second registration.
func (c *Client) DefineView(ctx context.Context, path, name, sql string) error {
	if err := validText("create view", sql); err != nil {
		return err
	}
	_, err := postRetry[wire.CreateViewResponse](ctx, c, "create view", wire.PathCreateView,
		wire.CreateViewRequest{Session: c.session, Path: path, Name: name, SQL: sql}, false)
	return err
}

// ServerStats fetches the server's counter block and pipeline snapshot.
func (c *Client) ServerStats(ctx context.Context) (wire.StatsResponse, error) {
	return postRetry[wire.StatsResponse](ctx, c, "stats", wire.PathStats, wire.StatsRequest{}, true)
}

// Lookup implements catalog.Source against the remote catalog.
func (c *Client) Lookup(ref catalog.TableRef) (*catalog.TableMeta, error) {
	return c.LookupContext(context.Background(), ref)
}

// LookupContext implements catalog.ContextSource, reconstructing the
// typed not-found/ambiguous failures a local catalog would return.
func (c *Client) LookupContext(ctx context.Context, ref catalog.TableRef) (*catalog.TableMeta, error) {
	resp, err := postRetry[wire.LookupResponse](ctx, c, "metadata lookup", wire.PathMetaLookup,
		wire.LookupRequest{Session: c.session, Catalog: ref.Catalog, Schema: ref.Schema, Table: ref.Table}, true)
	if err != nil {
		return nil, err
	}
	switch {
	case resp.NotFound:
		return nil, &catalog.NotFoundError{Ref: ref}
	case len(resp.Ambiguous) > 0:
		return nil, &catalog.AmbiguousError{Ref: ref, Schemas: resp.Ambiguous}
	case resp.Meta == nil:
		return nil, fmt.Errorf("remoteclient: empty metadata response for %s", ref)
	}
	return resp.Meta, nil
}

// Tables implements catalog.Source.
func (c *Client) Tables() ([]*catalog.TableMeta, error) {
	resp, err := postRetry[wire.MetasResponse](context.Background(), c, "metadata tables", wire.PathMetaTables,
		wire.MetasRequest{Session: c.session}, true)
	return resp.Metas, err
}

// Procedures implements catalog.Source.
func (c *Client) Procedures() ([]*catalog.TableMeta, error) {
	resp, err := postRetry[wire.MetasResponse](context.Background(), c, "metadata procedures", wire.PathMetaProcs,
		wire.MetasRequest{Session: c.session}, true)
	return resp.Metas, err
}

// remoteCursor is the chunked resultset.RowCursor behind remote queries.
// It starts from the chunk the execute response carried and fetches the
// rest; cursor 0 means that chunk ended the stream and the server holds
// nothing. Rows buffer one chunk at a time, in a row slice each fetch
// reuses; EOF and errors are terminal and sticky, and an in-band error is
// delivered only after the rows that preceded it (truncation semantics
// match the in-process fault path).
type remoteCursor struct {
	c      *Client
	ctx    context.Context
	cursor int64                 // 0: closed by the server at execute
	dec    resultset.TextDecoder // types rows, carving them from one slab

	seq     int64 // last successfully consumed chunk sequence number
	buf     []string
	pos     int
	eof     bool
	pending error
	closed  bool
}

// Columns implements resultset.RowCursor.
func (rc *remoteCursor) Columns() []resultset.Column { return rc.dec.Cols }

// Next implements resultset.RowCursor: one row per call, typed by the
// in-process decoder (failing as it fails), io.EOF after the last.
func (rc *remoteCursor) Next() ([]xdm.Atomic, error) {
	for {
		if rc.pos < len(rc.buf) {
			row := rc.buf[rc.pos]
			rc.pos++
			return rc.dec.Decode(row)
		}
		if rc.pending != nil {
			return nil, rc.pending
		}
		if rc.eof || rc.closed {
			return nil, io.EOF
		}
		seq := rc.seq + 1
		resp, err := rc.fetchChunk(seq, rc.buf)
		if err != nil {
			rc.pending = err
			return nil, err
		}
		if resp.Error != nil && rc.c.opts.MaxRetries > 0 && aqerr.Transient(decodeError(resp.Error)) {
			// An in-band transient error may have damaged only this
			// transmission (a chunk truncated mid-flight travels as its
			// prefix plus the error). One same-sequence replay recovers the
			// server's intact cached chunk; a genuinely failed cursor
			// replays the identical error and it is delivered below.
			retries.Inc()
			if r2, err2 := rc.fetchChunk(seq, nil); err2 == nil { // resp keeps its rows
				if r2.Error == nil {
					rescued.Inc()
				}
				resp = r2
			}
		}
		rc.take(seq, resp)
	}
}

// take makes chunk seq the buffered one, recording how it ends the stream.
func (rc *remoteCursor) take(seq int64, resp wire.FetchResponse) {
	rc.seq = seq
	rc.buf, rc.pos = resp.Rows, 0
	switch {
	case resp.Error != nil:
		rc.pending = decodeError(resp.Error)
	case resp.EOF:
		rc.eof = true
	case len(resp.Rows) == 0:
		// Defensive: a chunk with no rows and no terminal marker would
		// spin Next; treat it as a protocol error.
		rc.pending = aqerr.Errorf(aqerr.KindInternal, "fetch", "empty chunk without EOF")
	}
}

// fetchChunk pulls one sequenced chunk, its rows appended to rows[:0]. A
// retry re-presents the same sequence number, so the server replays the
// chunk rather than advances.
func (rc *remoteCursor) fetchChunk(seq int64, rows []string) (wire.FetchResponse, error) {
	req := wire.FetchRequest{Session: rc.c.session, Cursor: rc.cursor, Seq: seq}
	var resp wire.FetchResponse
	err := rc.c.retry(rc.ctx, "fetch", true, func() error {
		resp = wire.FetchResponse{Chunk: wire.Chunk{Rows: rows}}
		return rc.c.post(rc.ctx, "fetch", wire.PathFetch, req, &resp)
	})
	return resp, err
}

// Close implements resultset.RowCursor, releasing the server-side cursor
// (which cancels the remote evaluation). It uses its own deadline rather
// than the stream context, so cancelling a query still cleans up its
// server state. A result the server closed at execute posts nothing.
//
// The two ways a cursor closes have different stakes. Mid-stream, the
// close IS the cancellation — if it fails the server may keep evaluating,
// so the error surfaces. After the stream already ended (EOF or a
// delivered error), the server has released the query's admission slot
// and the close only reclaims the session's cursor-table entry; session
// close and the idle reaper reclaim it anyway, so a failure of that
// hygiene call must not retroactively fail a fully-delivered query.
func (rc *remoteCursor) Close() error {
	if rc.closed {
		return nil
	}
	rc.closed = true
	rc.buf = nil
	if rc.cursor == 0 {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := postRetry[wire.CloseCursorResponse](ctx, rc.c, "close cursor", wire.PathCloseCursor,
		wire.CloseCursorRequest{Session: rc.c.session, Cursor: rc.cursor}, true)
	if rc.eof || rc.pending != nil {
		return nil // best-effort cleanup after a terminal stream
	}
	return err
}
