// Package server is the network front end of the platform: the AquaLogic
// DSP server process the paper's thin JDBC driver talks to. Everything the
// repo previously did in-process behind the facade — metadata lookups,
// SQL→XQuery compilation, streaming evaluation, §4 result rows — is
// exposed here over an HTTP wire protocol (internal/wire) with
// per-session prepared-statement and cursor tables, connection/session
// limits, admission control, and idle-session reaping. Requests are JSON;
// a chunk of rows leaves as one §4 text payload behind a JSON envelope
// line, each row written straight from the chunk's row strings (in text
// mode, the evaluator's own).
//
// The server is deliberately a thin shell over a Backend, the client
// contract session.Session that the aqualogic Platform implements: each
// wire verb serializes one of its calls, a prepared statement is the
// session's own Prepared, and translation, planning, caching, resilience,
// and streaming all stay where they are. What the server adds is the
// multi-tenant discipline a wire boundary forces:
//
//   - Sessions. A handshake opens a session; prepared statements and open
//     cursors are per-session state, bounded by MaxSessions. Sessions idle
//     longer than SessionIdleTimeout are reaped — their cursors closed,
//     which cancels the underlying evaluations, so an abandoned client
//     cannot pin evaluator goroutines or buffered rows.
//   - Admission control. A concurrency semaphore bounds evaluations in
//     flight; executions beyond it wait briefly and are then rejected with
//     a typed unavailable error rather than queueing without bound.
//   - Backpressure. Rows leave the server only in chunks of at most
//     FetchRows: the first in the execute response, the rest through
//     fetch calls. A result that fits the first chunk closes its cursor
//     before execute replies, so a point query is one round trip and
//     leaves no server state. The evaluator's bounded-channel cursor
//     blocks the producer once its 64-row buffer fills, so a slow reader
//     holds a query's whole memory footprint to one channel's worth of
//     rows — and a reader that never returns is eventually reaped, which
//     cancels the evaluation.
//
// Fault points named srv/* hook the request surface into the faultnet
// chaos layer. Every counter the server keeps (sessions, in-flight
// queries, admission rejections and sheds, cursors reaped, replays) belongs
// to the Server instance and is read through Stats and /v1/stats.
package server

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/aqerr"
	"repro/internal/catalog"
	"repro/internal/faultnet"
	"repro/internal/obsv"
	"repro/internal/qcache"
	"repro/internal/resultset"
	"repro/internal/session"
	"repro/internal/translator"
	"repro/internal/wire"
	"repro/internal/xdm"
)

// Backend is the session the server serves, plus the three stats reads
// /v1/stats reports next to the server's own counters. The aqualogic
// Platform satisfies it; tests may substitute fakes.
type Backend interface {
	session.Session
	CompileStats() qcache.Stats
	MetadataStats() catalog.CacheStats
	Stats() obsv.Snapshot
}

// Config bounds one server instance. Zero fields take the defaults below;
// so do negative ones, except SessionIdleTimeout, where negative disables
// reaping.
type Config struct {
	// MaxSessions caps concurrently open sessions (default 4096).
	MaxSessions int
	// MaxConcurrentQueries sizes the admission semaphore: evaluations in
	// flight at once, across all sessions (default 256).
	MaxConcurrentQueries int
	// AdmissionWait is how long an execute waits for an admission slot
	// before being rejected with a typed unavailable error (default 50ms).
	// A client that sent a shorter deadline budget waits only that long.
	AdmissionWait time.Duration
	// CostPerSlot converts a compiled query's cost estimate (predicted
	// tuple visits) into admission slots: weight = 1 + (cost-1)/CostPerSlot,
	// so statements under one slot's worth of work weigh 1. Zero or
	// negative takes the default (10000). The weights are load-bearing:
	// with every query weighing 1 (math.MaxInt64) TestOverloadContract's
	// 2x phase shed nothing on 5 of 20 runs.
	CostPerSlot int64
	// MaxQueryWeight clamps one query's admission weight so a single
	// monster statement cannot starve the server (default
	// MaxConcurrentQueries/4, minimum 1). It never exceeds
	// MaxConcurrentQueries: a heavier query could never be admitted, and
	// at the head of the queue it would block every arrival behind it.
	// Kept with CostPerSlot: it is the weights' upper end.
	MaxQueryWeight int64
	// AdmissionQueue bounds how many executions may wait for admission at
	// once; arrivals beyond it shed immediately (default
	// 4×MaxConcurrentQueries).
	AdmissionQueue int
	// SessionIdleTimeout reaps sessions (and their cursors: the attached
	// evaluations are cancelled) that have not issued a request for this
	// long (default 60s; negative disables reaping).
	SessionIdleTimeout time.Duration
	// FetchRows is the per-fetch row chunk cap when the client does not
	// ask for a specific size (default 256).
	FetchRows int
	// QueryTimeout bounds each evaluation's lifetime from execute to last
	// fetch (0 = unbounded). A cursor still open at the deadline surfaces
	// a timeout-kind error on its next fetch.
	QueryTimeout time.Duration
	// Faults, when set, arms the srv/* fault points: every request site
	// misbehaves on the injector's deterministic schedule.
	Faults *faultnet.Injector
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 4096
	}
	if c.MaxConcurrentQueries <= 0 {
		c.MaxConcurrentQueries = 256
	}
	if c.AdmissionWait <= 0 {
		c.AdmissionWait = 50 * time.Millisecond
	}
	if c.SessionIdleTimeout == 0 {
		c.SessionIdleTimeout = 60 * time.Second
	}
	if c.FetchRows <= 0 {
		c.FetchRows = 256
	}
	if c.CostPerSlot <= 0 {
		c.CostPerSlot = 10000
	}
	if c.MaxQueryWeight <= 0 {
		c.MaxQueryWeight = max(int64(c.MaxConcurrentQueries)/4, 1)
	}
	c.MaxQueryWeight = min(c.MaxQueryWeight, int64(c.MaxConcurrentQueries))
	if c.AdmissionQueue <= 0 {
		c.AdmissionQueue = 4 * c.MaxConcurrentQueries
	}
	return c
}

// Server owns the session table and the admission semaphore. Create with
// New, expose with Handler, shut down with Close.
type Server struct {
	b   Backend
	cfg Config

	baseCtx context.Context // parent of every evaluation; Close cancels it
	stop    context.CancelFunc

	adm *admission // cost-weighted admission slots + queue

	mu       sync.Mutex
	sessions map[string]*wireSession
	closed   bool

	nextSession atomic.Int64
	reaperDone  chan struct{}

	sessionsOpened    atomic.Int64
	sessionsReaped    atomic.Int64
	cursorsOpened     atomic.Int64
	cursorsReaped     atomic.Int64
	cursorsOpen       atomic.Int64
	inFlight          atomic.Int64
	peakInFlight      obsv.Gauge
	admissionRejected atomic.Int64
	execReplays       atomic.Int64
	fetchReplays      atomic.Int64
	panicsRecovered   atomic.Int64
}

// New builds a server over a backend. The returned server is serving
// state immediately; wire it to HTTP with Handler.
func New(b Backend, cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		b:        b,
		cfg:      cfg,
		baseCtx:  ctx,
		stop:     cancel,
		adm:      newAdmission(cfg),
		sessions: make(map[string]*wireSession),
	}
	if cfg.SessionIdleTimeout > 0 {
		s.reaperDone = make(chan struct{})
		go s.reapLoop()
	}
	return s
}

// Close shuts the server down: no new requests are accepted, every open
// session is closed (cancelling its in-flight evaluations), and the idle
// reaper exits. After Close returns no server-owned goroutine is running.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	open := make([]*wireSession, 0, len(s.sessions))
	for _, ss := range s.sessions {
		open = append(open, ss)
	}
	s.sessions = map[string]*wireSession{}
	s.mu.Unlock()

	for _, ss := range open {
		ss.close(false)
	}
	s.stop()
	if s.reaperDone != nil {
		<-s.reaperDone
	}
}

// Stats snapshots the instance counters.
func (s *Server) Stats() wire.ServerStats {
	s.mu.Lock()
	open := int64(len(s.sessions))
	s.mu.Unlock()
	st := s.adm.snapshot()
	st.SessionsOpen = open
	st.SessionsOpened = s.sessionsOpened.Load()
	st.SessionsReaped = s.sessionsReaped.Load()
	st.CursorsOpen = s.cursorsOpen.Load()
	st.CursorsOpened = s.cursorsOpened.Load()
	st.CursorsReaped = s.cursorsReaped.Load()
	st.QueriesInFlight = s.inFlight.Load()
	st.PeakInFlight = s.peakInFlight.Load()
	st.AdmissionRejected = s.admissionRejected.Load()
	st.ExecReplays = s.execReplays.Load()
	st.FetchReplays = s.fetchReplays.Load()
	st.PanicsRecovered = s.panicsRecovered.Load()
	return st
}

// reapLoop closes sessions idle past the configured timeout.
func (s *Server) reapLoop() {
	defer close(s.reaperDone)
	interval := s.cfg.SessionIdleTimeout / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	if interval > time.Second {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-t.C:
			s.reapIdle(time.Now())
		}
	}
}

// reapIdle closes every session whose last request is older than the idle
// timeout. Reaping closes the session's cursors, which cancels their
// evaluations — the leak guard for abandoned clients.
func (s *Server) reapIdle(now time.Time) {
	cutoff := now.Add(-s.cfg.SessionIdleTimeout).UnixNano()
	s.mu.Lock()
	var idle []*wireSession
	for id, ss := range s.sessions {
		if ss.lastUsed.Load() < cutoff {
			idle = append(idle, ss)
			delete(s.sessions, id)
		}
	}
	s.mu.Unlock()
	for _, ss := range idle {
		ss.close(true)
		s.sessionsReaped.Add(1)
	}
}

// admit takes weight admission slots through the cost-aware semaphore,
// waiting at most AdmissionWait (or the client's remaining deadline
// budget, whichever is shorter). The typed unavailable error it returns
// on a shed — with its Retry-After hint — is the load signal clients
// back off on.
func (s *Server) admit(ctx context.Context, weight int64, budget time.Duration) error {
	if err := s.adm.admit(ctx, weight, budget); err != nil {
		s.admissionRejected.Add(1)
		return err
	}
	s.peakInFlight.SetMax(s.inFlight.Add(1))
	return nil
}

// release returns a query's admission slots.
func (s *Server) release(weight int64) {
	s.adm.release(weight)
	s.inFlight.Add(-1)
}

// fault rolls the named srv/* fault point and realizes the scheduled
// fault, if any. Truncation has no meaning for unary request sites and is
// realized as its transient error; the fetch path handles it inline
// instead, where there are rows to truncate.
func (s *Server) fault(ctx context.Context, site string) error {
	if s.cfg.Faults == nil {
		return nil
	}
	k, ok := s.cfg.Faults.Roll(site)
	if !ok {
		return nil
	}
	return s.cfg.Faults.Perform(ctx, site, k)
}

// wireSession is one wire client's server-side state.
type wireSession struct {
	id  string
	srv *Server

	lastUsed atomic.Int64 // unix nanos of the last request

	mu      sync.Mutex
	stmts   map[int64]session.Prepared
	cursors map[int64]*cursor
	// execKeys maps an execute idempotency token to the open cursor it
	// opened: a retried execute replays the cursor instead of
	// re-evaluating. A key leaves the map with its cursor.
	execKeys map[string]int64
	nextID   int64
	closed   bool
}

// cursor is one open server-side cursor: a streaming result set plus the
// admission slots its evaluation occupies.
type cursor struct {
	rows    *resultset.Rows
	cancel  context.CancelFunc
	weight  int64  // admission slots held until release
	execKey string // idempotency token that opened this cursor, if any

	mu       sync.Mutex
	eof      bool
	failed   *wire.Error // sticky: re-reported on every later fetch
	released bool        // admission slots returned
	// Sequenced-fetch replay state: the last chunk produced and its
	// sequence number, starting with execute's chunk as sequence 1. A
	// retried fetch re-presenting lastSeq gets lastResp byte-identically
	// instead of advancing the cursor.
	lastSeq  int64
	lastResp wire.FetchResponse
}

// handshake opens a session for a client of this protocol version.
func (s *Server) handshake(ctx context.Context, req wire.HandshakeRequest) (wire.HandshakeResponse, error) {
	if req.Protocol != wire.ProtocolVersion {
		return wire.HandshakeResponse{}, aqerr.Errorf(aqerr.KindPermanent, "handshake",
			"client speaks wire protocol %d, server speaks %d", req.Protocol, wire.ProtocolVersion)
	}
	if err := s.fault(ctx, "srv/handshake"); err != nil {
		return wire.HandshakeResponse{}, aqerr.Wrap("handshake", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return wire.HandshakeResponse{}, aqerr.Errorf(aqerr.KindUnavailable, "handshake", "server is shut down")
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.admissionRejected.Add(1)
		return wire.HandshakeResponse{}, aqerr.Errorf(aqerr.KindUnavailable, "handshake",
			"session limit reached (%d open)", s.cfg.MaxSessions)
	}
	id := fmt.Sprintf("s%06x", s.nextSession.Add(1))
	ss := &wireSession{
		id:       id,
		srv:      s,
		stmts:    make(map[int64]session.Prepared),
		cursors:  make(map[int64]*cursor),
		execKeys: make(map[string]int64),
	}
	ss.lastUsed.Store(time.Now().UnixNano())
	s.sessions[id] = ss
	s.sessionsOpened.Add(1)
	return wire.HandshakeResponse{Session: id}, nil
}

// lookupSession resolves a session token, touching its idle clock. A
// token the server no longer knows — never issued, closed, or reaped —
// is an unavailable-kind error: the client must open a new session.
func (s *Server) lookupSession(id string) (*wireSession, error) {
	s.mu.Lock()
	ss, ok := s.sessions[id]
	s.mu.Unlock()
	if !ok {
		return nil, aqerr.Errorf(aqerr.KindUnavailable, "session", "unknown or expired session %q", id)
	}
	ss.lastUsed.Store(time.Now().UnixNano())
	return ss, nil
}

// closeSession ends a session explicitly.
func (s *Server) closeSession(ctx context.Context, req wire.CloseSessionRequest) error {
	if err := s.fault(ctx, "srv/session-close"); err != nil {
		return aqerr.Wrap("close session", err)
	}
	s.mu.Lock()
	ss, ok := s.sessions[req.Session]
	delete(s.sessions, req.Session)
	s.mu.Unlock()
	if !ok {
		return nil // idempotent
	}
	ss.close(false)
	return nil
}

// close tears a session down: every open cursor is closed, cancelling its
// evaluation and returning its admission slot. reaped marks the teardown
// as the idle reaper's (for the cursor-leak counters).
func (ss *wireSession) close(reaped bool) {
	ss.mu.Lock()
	if ss.closed {
		ss.mu.Unlock()
		return
	}
	ss.closed = true
	cursors := make([]*cursor, 0, len(ss.cursors))
	for _, c := range ss.cursors {
		cursors = append(cursors, c)
	}
	ss.cursors = map[int64]*cursor{}
	ss.stmts = map[int64]session.Prepared{}
	ss.execKeys = map[string]int64{}
	ss.mu.Unlock()
	for _, c := range cursors {
		c.closeCursor(ss.srv)
		if reaped {
			ss.srv.cursorsReaped.Add(1)
		}
	}
}

// closeCursor releases one cursor exactly once: the streaming result set
// closes (cancelling the producer through the cursor plumbing), the
// evaluation context is cancelled, and the admission slot returns.
func (c *cursor) closeCursor(s *Server) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rows.Close()
	if c.cancel != nil {
		c.cancel()
		c.cancel = nil
	}
	c.releaseLocked(s)
	s.cursorsOpen.Add(-1)
}

// releaseLocked returns the admission slots once per cursor (EOF, error,
// or close — whichever happens first).
func (c *cursor) releaseLocked(s *Server) {
	if !c.released {
		c.released = true
		s.release(c.weight)
	}
}

// prepare compiles a statement into the session's prepared table.
func (s *Server) prepare(ctx context.Context, req wire.PrepareRequest) (wire.PrepareResponse, error) {
	ss, err := s.lookupSession(req.Session)
	if err != nil {
		return wire.PrepareResponse{}, err
	}
	if err := s.fault(ctx, "srv/prepare"); err != nil {
		return wire.PrepareResponse{}, aqerr.Wrap("prepare", err)
	}
	st, err := s.prepareText(ctx, "prepare", req.SQL, req.Mode)
	if err != nil {
		return wire.PrepareResponse{}, err
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		return wire.PrepareResponse{}, aqerr.Errorf(aqerr.KindUnavailable, "session", "session %q is closed", ss.id)
	}
	ss.nextID++
	id := ss.nextID
	ss.stmts[id] = st
	return wire.PrepareResponse{Stmt: id, Columns: st.Columns(), ParamCount: st.ParamCount()}, nil
}

// execute starts an evaluation — of a prepared statement or of ad-hoc SQL
// — under cost-aware admission control and answers with its first chunk
// of rows. A chunk that ends the stream closes the cursor before the
// reply; otherwise the cursor is registered for fetch. A request
// re-presenting the idempotency key of an open cursor replays that cursor
// and its first chunk instead of evaluating again: a response lost on the
// wire costs the retrying client nothing and never duplicates work.
func (s *Server) execute(ctx context.Context, req wire.ExecuteRequest) (wire.ExecuteResponse, error) {
	ss, err := s.lookupSession(req.Session)
	if err != nil {
		return wire.ExecuteResponse{}, err
	}
	if err := s.fault(ctx, "srv/execute"); err != nil {
		return wire.ExecuteResponse{}, aqerr.Wrap("execute", err)
	}

	if req.ExecKey != "" {
		ss.mu.Lock()
		id, ok := ss.execKeys[req.ExecKey]
		cur := ss.cursors[id]
		ss.mu.Unlock()
		if ok {
			return s.replayExecute(id, cur)
		}
	}

	args := make([]any, len(req.Args))
	for i, a := range req.Args {
		if a == nil {
			return wire.ExecuteResponse{}, aqerr.Errorf(aqerr.KindPermanent, "execute",
				"parameter %d: NULL parameters are not supported", i+1)
		}
		v, err := xdm.ParseAtomic(a.V, xdm.AtomicType(a.T))
		if err != nil {
			return wire.ExecuteResponse{}, aqerr.Errorf(aqerr.KindPermanent, "execute", "parameter %d: %v", i+1, err)
		}
		args[i] = v
	}

	// A prepared statement executes as it stands; ad-hoc text is prepared
	// first, its one resolution through the compile cache. Either way the
	// statement carries the cost admission weighs it by.
	st, err := s.statement(ctx, ss, req)
	if err != nil {
		return wire.ExecuteResponse{}, err
	}
	weight := s.adm.weightFor(st.Cost())
	budget := time.Duration(req.BudgetMS) * time.Millisecond
	if err := s.admit(ctx, weight, budget); err != nil {
		return wire.ExecuteResponse{}, err
	}
	// The evaluation outlives this request: it is parented on the server's
	// base context (not the HTTP request's), bounded by QueryTimeout —
	// clamped to the client's remaining deadline budget, so work the
	// caller has already abandoned is never evaluated — and cancelled by
	// cursor close or session reaping.
	timeout := s.cfg.QueryTimeout
	if budget > 0 && (timeout <= 0 || budget < timeout) {
		timeout = budget
	}
	evalCtx, cancel := context.WithCancel(s.baseCtx)
	if timeout > 0 {
		evalCtx, cancel = context.WithTimeout(s.baseCtx, timeout)
	}
	rows, err := st.Execute(evalCtx, args...)
	if err != nil {
		cancel()
		s.release(weight)
		return wire.ExecuteResponse{}, aqerr.Wrap("execute", err)
	}
	cur := &cursor{rows: rows, cancel: cancel, weight: weight, execKey: req.ExecKey}
	s.cursorsOpened.Add(1)
	s.cursorsOpen.Add(1)

	cur.mu.Lock()
	first := cur.nextChunkLocked(s, s.cfg.FetchRows)
	cur.lastSeq, cur.lastResp = 1, first
	cur.mu.Unlock()
	if first.EOF || first.Error != nil {
		// The evaluation is over and its slots are back: close the cursor
		// now, so the result holds no server state and needs no close
		// request. Such a cursor is never registered, so its exec key is
		// not kept either.
		cur.closeCursor(s)
		return chunkResponse(0, cur, first), nil
	}

	ss.mu.Lock()
	if ss.closed {
		ss.mu.Unlock()
		cur.closeCursor(s)
		return wire.ExecuteResponse{}, aqerr.Errorf(aqerr.KindUnavailable, "session", "session %q is closed", ss.id)
	}
	if id, ok := ss.execKeys[req.ExecKey]; ok {
		// A retry raced the original, and the original registered first:
		// keep its cursor, drop this duplicate evaluation.
		orig := ss.cursors[id]
		ss.mu.Unlock()
		cur.closeCursor(s)
		return s.replayExecute(id, orig)
	}
	ss.nextID++
	id := ss.nextID
	ss.cursors[id] = cur
	if req.ExecKey != "" {
		ss.execKeys[req.ExecKey] = id
	}
	ss.mu.Unlock()
	return chunkResponse(id, cur, first), nil
}

// statement resolves an execute's statement: a prepared one by id, or
// ad-hoc text prepared now and kept by no table.
func (s *Server) statement(ctx context.Context, ss *wireSession, req wire.ExecuteRequest) (session.Prepared, error) {
	if req.Stmt == 0 {
		return s.prepareText(ctx, "execute", req.SQL, req.Mode)
	}
	ss.mu.Lock()
	st, ok := ss.stmts[req.Stmt]
	ss.mu.Unlock()
	if !ok {
		return nil, aqerr.Errorf(aqerr.KindPermanent, "execute", "unknown prepared statement %d", req.Stmt)
	}
	return st, nil
}

// prepareText prepares statement text through the session, in the result
// mode it arrived with.
func (s *Server) prepareText(ctx context.Context, op, text, mode string) (session.Prepared, error) {
	m, err := parseMode(mode)
	if err != nil {
		return nil, err
	}
	st, err := s.b.Prepare(ctx, text, m)
	return st, aqerr.Wrap(op, err)
}

// replayExecute answers a re-presented exec key from the open cursor it
// opened: the same cursor id and, byte-identical, its first chunk. The
// client fetches only after it has that chunk, so a key re-presented once
// the cursor has moved on is a protocol error, not a lost response.
func (s *Server) replayExecute(id int64, cur *cursor) (wire.ExecuteResponse, error) {
	cur.mu.Lock()
	defer cur.mu.Unlock()
	if cur.lastSeq != 1 {
		return wire.ExecuteResponse{}, aqerr.Errorf(aqerr.KindPermanent, "execute",
			"idempotency key %q: cursor %d has moved past its first chunk", cur.execKey, id)
	}
	s.execReplays.Add(1)
	return chunkResponse(id, cur, cur.lastResp), nil
}

// chunkResponse is execute's reply: the cursor id (0 once closed), the
// result schema and the first chunk.
func chunkResponse(id int64, cur *cursor, chunk wire.FetchResponse) wire.ExecuteResponse {
	return wire.ExecuteResponse{Cursor: id, Columns: cur.rows.Columns(),
		Chunk: chunk.Chunk, EOF: chunk.EOF, Error: chunk.Error}
}

// nextChunkLocked fills one chunk of at most limit rows: the loop behind
// execute's first chunk and every fetch. EOF and errors are sticky —
// past the end a chunk re-reports them — and the end of the stream
// returns the admission slots at once, before the cursor closes. A chunk
// after the first is sized for its predecessor's row count up front: a
// result that filled one chunk most likely fills the next. A text-mode
// row is the evaluator's own text, a substring of the batch it crossed the
// cursor in, so filling a chunk copies no row.
func (c *cursor) nextChunkLocked(s *Server, limit int) wire.FetchResponse {
	if c.failed != nil {
		return wire.FetchResponse{Error: c.failed}
	}
	if c.eof {
		return wire.FetchResponse{EOF: true}
	}
	var resp wire.FetchResponse
	if n := len(c.lastResp.Rows); n > 0 {
		resp.Rows = make([]string, 0, min(n, limit))
	}
	for len(resp.Rows) < limit {
		row, ok := c.rows.NextText()
		if !ok {
			if rerr := c.rows.Err(); rerr != nil {
				c.failed = wireError("fetch", rerr)
				resp.Error = c.failed
			} else {
				c.eof = true
				resp.EOF = true
			}
			c.releaseLocked(s)
			break
		}
		resp.Rows = append(resp.Rows, row)
	}
	return resp
}

// fetch pulls the next chunk of rows from a cursor. EOF and errors are
// sticky: fetching past the end re-reports them instead of failing the
// session. A truncation fault injected at this site returns the chunk's
// prefix together with the transient error — partial data never travels
// silently.
func (s *Server) fetch(ctx context.Context, req wire.FetchRequest) (wire.FetchResponse, error) {
	ss, err := s.lookupSession(req.Session)
	if err != nil {
		return wire.FetchResponse{}, err
	}
	ss.mu.Lock()
	cur, ok := ss.cursors[req.Cursor]
	ss.mu.Unlock()
	if !ok {
		return wire.FetchResponse{}, aqerr.Errorf(aqerr.KindPermanent, "fetch", "unknown cursor %d", req.Cursor)
	}

	var truncate bool
	if s.cfg.Faults != nil {
		if k, fired := s.cfg.Faults.Roll("srv/fetch"); fired {
			if k == faultnet.KindTruncate {
				truncate = true
			} else if err := s.cfg.Faults.Perform(ctx, "srv/fetch", k); err != nil {
				return wire.FetchResponse{}, aqerr.Wrap("fetch", err)
			}
		}
	}

	cur.mu.Lock()
	defer cur.mu.Unlock()
	// Replay the cached chunk for the current number, advance for the
	// next, reject anything else (0 included). This is what makes fetch
	// idempotent — a retried duplicate of chunk n gets the same bytes,
	// never a skipped or doubled chunk.
	switch {
	case req.Seq == cur.lastSeq:
		s.fetchReplays.Add(1)
		return cur.lastResp, nil
	case req.Seq != cur.lastSeq+1:
		return wire.FetchResponse{}, aqerr.Errorf(aqerr.KindPermanent, "fetch",
			"fetch sequence %d out of order (expected %d or %d)", req.Seq, cur.lastSeq, cur.lastSeq+1)
	}
	resp := cur.nextChunkLocked(s, s.cfg.FetchRows)
	cur.lastSeq, cur.lastResp = req.Seq, resp
	if truncate {
		// A connection dropped mid-chunk: the prefix travels with the
		// transient error, exactly like faultnet's data-surface truncation.
		// The replay cache keeps the intact chunk — the damage is to this
		// transmission, not the cursor, so a sequenced retry recovers the
		// full chunk instead of replaying the fault.
		resp.Rows = resp.Rows[:len(resp.Rows)/2]
		resp.EOF = false
		ferr := &faultnet.Error{Site: "srv/fetch", Kind: faultnet.KindTruncate}
		resp.Error = wireError("fetch", aqerr.Wrap("fetch", ferr))
	}
	return resp, nil
}

// closeCursor releases one cursor. Closing an unknown (or already closed)
// cursor is a successful no-op, so double close is safe on a retrying
// transport.
func (s *Server) closeCursor(ctx context.Context, req wire.CloseCursorRequest) (wire.CloseCursorResponse, error) {
	ss, err := s.lookupSession(req.Session)
	if err != nil {
		return wire.CloseCursorResponse{}, err
	}
	if err := s.fault(ctx, "srv/cursor-close"); err != nil {
		return wire.CloseCursorResponse{}, aqerr.Wrap("close cursor", err)
	}
	ss.mu.Lock()
	cur, ok := ss.cursors[req.Cursor]
	delete(ss.cursors, req.Cursor)
	if ok && cur.execKey != "" {
		delete(ss.execKeys, cur.execKey)
	}
	ss.mu.Unlock()
	if !ok {
		return wire.CloseCursorResponse{Closed: false}, nil
	}
	cur.closeCursor(s)
	return wire.CloseCursorResponse{Closed: true}, nil
}

// explain renders a statement's compiled artifact through the session,
// with this call's compile- and catalog-cache effects, as in-process
// EXPLAIN does.
func (s *Server) explain(ctx context.Context, req wire.ExplainRequest) (wire.ExplainResponse, error) {
	if _, err := s.lookupSession(req.Session); err != nil {
		return wire.ExplainResponse{}, err
	}
	if err := s.fault(ctx, "srv/explain"); err != nil {
		return wire.ExplainResponse{}, aqerr.Wrap("explain", err)
	}
	mode, err := parseMode(req.Mode)
	if err != nil {
		return wire.ExplainResponse{}, err
	}
	lines, err := s.b.Explain(ctx, req.SQL, mode)
	if err != nil {
		return wire.ExplainResponse{}, aqerr.Wrap("explain", err)
	}
	return wire.ExplainResponse{Text: strings.Join(lines, "\n")}, nil
}

// createView registers a logical data service through the backend.
func (s *Server) createView(ctx context.Context, req wire.CreateViewRequest) error {
	if _, err := s.lookupSession(req.Session); err != nil {
		return err
	}
	if err := s.fault(ctx, "srv/view"); err != nil {
		return aqerr.Wrap("create view", err)
	}
	return s.b.DefineView(req.Path, req.Name, req.SQL)
}

// lookupMeta serves one metadata lookup, encoding the typed catalog
// failures so the client can reconstruct them.
func (s *Server) lookupMeta(ctx context.Context, req wire.LookupRequest) (wire.LookupResponse, error) {
	if err := s.fault(ctx, "srv/meta"); err != nil {
		return wire.LookupResponse{}, aqerr.Wrap("metadata lookup", err)
	}
	ref := catalog.TableRef{Catalog: req.Catalog, Schema: req.Schema, Table: req.Table}
	meta, err := catalog.LookupContext(ctx, s.b.Metadata(), ref)
	if err != nil {
		var nf *catalog.NotFoundError
		if errors.As(err, &nf) {
			return wire.LookupResponse{NotFound: true}, nil
		}
		var amb *catalog.AmbiguousError
		if errors.As(err, &amb) {
			return wire.LookupResponse{Ambiguous: amb.Schemas}, nil
		}
		return wire.LookupResponse{}, aqerr.Wrap("metadata lookup", err)
	}
	return wire.LookupResponse{Meta: meta}, nil
}

// parseMode decodes the wire name of the result mode a statement's text
// arrives with: "" is text, the driver's default. An unknown name is a
// typed permanent error: retrying cannot help.
func parseMode(mode string) (translator.ResultMode, error) {
	switch mode {
	case "", "text":
		return translator.ModeText, nil
	case "xml":
		return translator.ModeXML, nil
	}
	return 0, aqerr.Errorf(aqerr.KindPermanent, "prepare", "unknown result mode %q", mode)
}

// wireError flattens an error for transit, classifying unclassified ones
// on the way (so every wire error carries a kind). Retry-After hints on
// shed errors travel with it.
func wireError(op string, err error) *wire.Error {
	err = aqerr.Wrap(op, err)
	var qe *aqerr.QueryError
	if errors.As(err, &qe) {
		msg := ""
		if qe.Err != nil {
			msg = qe.Err.Error()
		}
		return &wire.Error{Kind: qe.Kind.String(), Op: qe.Op, Msg: msg,
			RetryAfterMS: int64(aqerr.RetryAfterHint(err) / time.Millisecond)}
	}
	return &wire.Error{Kind: aqerr.KindUnknown.String(), Op: op, Msg: err.Error()}
}
