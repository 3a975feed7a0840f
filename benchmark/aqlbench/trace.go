package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	aqualogic "repro"
	"repro/internal/catalog"
	"repro/internal/resultset"
	"repro/internal/server"
)

// A span is one interval at a layer boundary, recorded by the benchmark
// round a call into the layer's public functions. Spans of one operation
// share Op; Parent is the span that caused this one (0 = root). A span
// that stands for many short calls (one per row) is aggregated: Start and
// End bracket the calls, Busy is the time actually spent inside them and
// Calls counts them. For a plain span Busy = End − Start.
//
// Backend spans of the served workloads are detached (Op −1, Parent 0):
// the server parents evaluations on its own base context, so from outside
// the product a backend call cannot be tied to the request that caused it.
type span struct {
	ID, Parent, Op   int32
	name             int32 // index into the tracer's names: spans hold no pointers
	Start, End, Busy int64 // ns since the tracer started
	Calls            int32
}

// maxSpans bounds one traced pass; 60 s of the busiest workload records a
// third of it.
const maxSpans = 1 << 20

// tracer keeps spans in memory, off the Go heap, until the run ends.
type tracer struct {
	t0      time.Time
	mu      sync.Mutex
	buf     []span
	n       int
	dropped int
	names   []string
	ids     map[string]int32
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), buf: offheap[span](maxSpans), ids: map[string]int32{}}
}

// release unmaps the span buffer; the tracer holds no spans afterwards.
func (t *tracer) release() {
	release(t.buf)
	t.buf, t.n = nil, 0
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// spans returns the recorded spans.
func (t *tracer) spans() []span { return t.buf[:t.n] }

// Name returns a span's name.
func (t *tracer) name(s span) string { return t.names[s.name] }

// add records a finished span and returns its id (0 if the buffer is full).
func (t *tracer) add(op, parent int32, name string, start, end, busy int64, calls int32) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n == len(t.buf) {
		t.dropped++
		return 0
	}
	nid, ok := t.ids[name]
	if !ok {
		nid = int32(len(t.names))
		t.names = append(t.names, name)
		t.ids[name] = nid
	}
	t.n++
	t.buf[t.n-1] = span{int32(t.n), parent, op, nid, start, end, busy, calls}
	return int32(t.n)
}

// open reserves a span whose children are recorded before it ends.
func (t *tracer) open(op, parent int32, name string) int32 {
	return t.add(op, parent, name, t.now(), 0, 0, 1)
}

func (t *tracer) close(id int32) {
	end := t.now()
	t.mu.Lock()
	if id > 0 {
		s := &t.buf[id-1]
		s.End, s.Busy = end, end-s.Start
	}
	t.mu.Unlock()
}

// timed runs f as a plain child span.
func (t *tracer) timed(op, parent int32, name string, f func()) {
	start := t.now()
	f()
	end := t.now()
	t.add(op, parent, name, start, end, end-start, 1)
}

func (t *tracer) reset() {
	t.mu.Lock()
	t.n = 0
	t.mu.Unlock()
}

// dump writes the spans as a JSON array.
func (t *tracer) dump(w io.Writer) error {
	type named struct {
		ID     int32  `json:"id"`
		Parent int32  `json:"parent"`
		Op     int32  `json:"op"`
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Busy   int64  `json:"busy_ns"`
		Calls  int32  `json:"calls"`
	}
	out := make([]named, t.n)
	for i, s := range t.spans() {
		out[i] = named{s.ID, s.Parent, s.Op, t.name(s), s.Start, s.End, s.Busy, s.Calls}
	}
	return json.NewEncoder(w).Encode(out)
}

// total is, for one span name, busy time, self time (busy minus the busy
// time of direct children) and calls.
type total struct{ busy, self, calls int64 }

func (t *tracer) totals() map[string]total {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, t.n+1)
	for _, s := range t.spans() {
		child[s.Parent] += s.Busy
	}
	out := map[string]total{}
	for _, s := range t.spans() {
		x := out[t.name(s)]
		x.busy += s.Busy
		x.self += s.Busy - child[s.ID]
		x.calls += int64(s.Calls)
		out[t.name(s)] = x
	}
	return out
}

// layer sums self time over every span whose name starts with prefix.
func layer(tot map[string]total, prefix string) (self int64) {
	for name, x := range tot {
		if strings.HasPrefix(name, prefix) {
			self += x.self
		}
	}
	return self
}

// ---- in-process shim: the evaluator's cursor seen from the decoder ----

// timedStream wraps the xqeval cursor handed to resultset.StreamText /
// StreamXML and accumulates the time the decoder spends waiting in it, so
// the decoder's self time is its Next minus this.
type timedStream struct {
	src   resultset.ItemStream
	busy  int64
	calls int32
}

func (s *timedStream) Next() (aqualogic.Sequence, error) {
	t := time.Now()
	seq, err := s.src.Next()
	s.busy += int64(time.Since(t))
	s.calls++
	return seq, err
}

func (s *timedStream) Close() error { return s.src.Close() }

// RowAligned forwards the cursor's one-chunk-per-row hint, which the
// decoders probe for.
func (s *timedStream) RowAligned() bool {
	ra, ok := s.src.(interface{ RowAligned() bool })
	return ok && ra.RowAligned()
}

// ---- served shims: handler middleware and backend wrapper ----

// serverTrace is the traced pass's view of the server: a middleware round
// srv.Handler() and a wrapper round the server.Backend it was built on.
type serverTrace struct {
	t *tracer
	// current maps a session id to the caller's running op: *opRef.
	current sync.Map

	requests  atomic.Int64
	respBytes atomic.Int64

	mu      sync.Mutex
	fetches [][]byte // a sample of fetch response bodies, for offline replay
}

// opRef is what a caller publishes before each traced op.
type opRef struct{ op, root atomic.Int32 }

const maxFetchSamples = 64

// countingWriter counts (and optionally copies) the response body.
type countingWriter struct {
	http.ResponseWriter
	n    int64
	copy *bytes.Buffer
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	if w.copy != nil {
		w.copy.Write(p)
	}
	return w.ResponseWriter.Write(p)
}

// sessionOf pulls the session id out of a request body without decoding
// the rest; every verb but the handshake carries one.
func sessionOf(body []byte) string {
	var probe struct {
		Session string `json:"session"`
	}
	_ = json.Unmarshal(body, &probe) // a body without a session is the handshake
	return probe.Session
}

func (st *serverTrace) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := st.t.now()
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		cw := &countingWriter{ResponseWriter: w}
		isFetch := strings.HasSuffix(r.URL.Path, "/fetch")
		if isFetch {
			st.mu.Lock()
			if len(st.fetches) < maxFetchSamples {
				cw.copy = &bytes.Buffer{}
			}
			st.mu.Unlock()
		}
		next.ServeHTTP(cw, r)
		end := st.t.now()

		op, root := int32(-1), int32(0)
		if ref, ok := st.current.Load(sessionOf(body)); ok {
			op, root = ref.(*opRef).op.Load(), ref.(*opRef).root.Load()
		}
		st.t.add(op, root, "server.handler"+r.URL.Path[strings.LastIndexByte(r.URL.Path, '/'):], start, end, end-start, 1)
		st.requests.Add(1)
		st.respBytes.Add(cw.n)
		if cw.copy != nil {
			st.mu.Lock()
			st.fetches = append(st.fetches, cw.copy.Bytes())
			st.mu.Unlock()
		}
	})
}

// tracedBackend times every call the server makes into the platform,
// including each row pulled from the Rows it returns.
type tracedBackend struct {
	*aqualogic.Platform
	t *tracer
}

var _ server.Backend = (*tracedBackend)(nil)

func (b *tracedBackend) CompileDialect(ctx context.Context, d aqualogic.Dialect, text string, mode aqualogic.ResultMode) (*aqualogic.CompiledQuery, error) {
	before := b.Platform.CompileStats().Misses
	start := b.t.now()
	cq, err := b.Platform.CompileDialect(ctx, d, text, mode)
	end := b.t.now()
	// With two sessions a concurrent miss can be charged to this call; the
	// served workloads compile nothing after warm-up, so it does not arise.
	name := "qcache.hit"
	if b.Platform.CompileStats().Misses != before {
		name = "qcache.miss"
	}
	b.t.add(-1, 0, name, start, end, end-start, 1)
	return cq, err
}

func (b *tracedBackend) QueryDialect(ctx context.Context, d aqualogic.Dialect, mode aqualogic.ResultMode, text string, args ...any) (*aqualogic.Rows, error) {
	start := b.t.now()
	rows, err := b.Platform.QueryDialect(ctx, d, mode, text, args...)
	end := b.t.now()
	b.t.add(-1, 0, "backend.query", start, end, end-start, 1)
	if err != nil {
		return nil, err
	}
	return resultset.NewStreaming(&timedRows{RowCursor: rows.Cursor(), t: b.t}), nil
}

// Metadata wraps the catalog source so browse requests count as backend
// time too.
func (b *tracedBackend) Metadata() aqualogic.MetadataSource {
	return timedSource{b.Platform.Metadata(), b.t}
}

type timedSource struct {
	src aqualogic.MetadataSource
	t   *tracer
}

func (s timedSource) Lookup(ref catalog.TableRef) (m *catalog.TableMeta, err error) {
	s.t.timed(-1, 0, "backend.metadata", func() { m, err = s.src.Lookup(ref) })
	return m, err
}

func (s timedSource) Tables() (ms []*catalog.TableMeta, err error) {
	s.t.timed(-1, 0, "backend.metadata", func() { ms, err = s.src.Tables() })
	return ms, err
}

func (s timedSource) Procedures() (ms []*catalog.TableMeta, err error) {
	s.t.timed(-1, 0, "backend.metadata", func() { ms, err = s.src.Procedures() })
	return ms, err
}

// timedRows times the server's row pulls; one aggregated span per cursor
// is recorded when the server closes it.
type timedRows struct {
	resultset.RowCursor
	t           *tracer
	first, last int64
	busy        int64
	calls       int32
	closed      bool
}

func (r *timedRows) Next() ([]aqualogic.Atomic, error) {
	start := r.t.now()
	row, err := r.RowCursor.Next()
	r.last = r.t.now()
	if r.calls == 0 {
		r.first = start
	}
	r.busy += r.last - start
	r.calls++
	return row, err
}

func (r *timedRows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	start := r.t.now()
	err := r.RowCursor.Close()
	end := r.t.now()
	if r.calls == 0 {
		r.first = start
	}
	r.t.add(-1, 0, "backend.rows", r.first, end, r.busy+end-start, r.calls+1)
	return err
}
