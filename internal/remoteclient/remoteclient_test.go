package remoteclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"testing"
	"time"

	"repro/internal/aqerr"
	"repro/internal/catalog"
	"repro/internal/obsv"
	"repro/internal/qcache"
	"repro/internal/resultset"
	"repro/internal/server"
	"repro/internal/session"
	"repro/internal/translator"
	"repro/internal/wire"
	"repro/internal/xdm"
)

// script is a scripted backend's answer to one statement: the integers
// 1..rows, then err. With early set, err fails the evaluation itself,
// before any row exists. With stall set, the first row waits for the
// evaluation's context to end and fails with its error.
type script struct {
	rows  int
	err   error
	early bool
	stall bool
}

// scripted is a server.Backend whose statement texts name scripts.
type scripted map[string]script

// Prepare compiles nothing: the statement looks its script up when it
// executes, and admission weighs it 1.
func (b scripted) Prepare(_ context.Context, text string, _ translator.ResultMode) (session.Prepared, error) {
	return scriptedStmt{b, text}, nil
}

type scriptedStmt struct {
	b    scripted
	text string
}

func (scriptedStmt) Columns() []resultset.Column { return counterColumns }

func (scriptedStmt) ParamCount() int { return 0 }

func (scriptedStmt) Cost() int64 { return 1 }

func (st scriptedStmt) Execute(ctx context.Context, _ ...any) (*resultset.Rows, error) {
	sc, ok := st.b[st.text]
	switch {
	case !ok:
		return nil, aqerr.Errorf(aqerr.KindPermanent, "scripted", "no script %q", st.text)
	case sc.early:
		return nil, sc.err
	}
	return resultset.NewStreaming(&counter{n: sc.rows, err: sc.err, stall: sc.stall, ctx: ctx}), nil
}

func (scripted) Explain(context.Context, string, translator.ResultMode) ([]string, error) {
	return nil, errors.New("scripted backend: no compiler")
}

func (scripted) Call(context.Context, string, string, []xdm.Sequence) (xdm.Sequence, error) {
	return nil, errors.New("scripted backend: no functions")
}

func (scripted) DefineView(string, string, string) error {
	return errors.New("scripted backend: read-only")
}

func (scripted) Metadata() catalog.Source { return nil }

func (scripted) QueryTimeout() time.Duration { return 0 }

func (scripted) CompileStats() qcache.Stats { return qcache.Stats{} }

func (scripted) MetadataStats() catalog.CacheStats { return catalog.CacheStats{} }

func (scripted) Stats() obsv.Snapshot { return obsv.Snapshot{} }

var counterColumns = []resultset.Column{{Label: "N", ElementName: "N", Type: catalog.SQLInteger}}

// counter yields the integers 1..n, one per row, then err (io.EOF if nil);
// a stalled counter instead waits for ctx to end and fails with its error.
type counter struct {
	i, n  int
	err   error
	stall bool
	ctx   context.Context
}

func (c *counter) Columns() []resultset.Column { return counterColumns }

func (c *counter) Next() ([]xdm.Atomic, error) {
	if c.stall {
		<-c.ctx.Done()
		return nil, aqerr.Wrap("query", c.ctx.Err())
	}
	if c.i == c.n {
		if c.err != nil {
			return nil, c.err
		}
		return nil, io.EOF
	}
	c.i++
	return []xdm.Atomic{xdm.Integer(c.i)}, nil
}

func (c *counter) Close() error { return nil }

// harness is a client without retries, looped back to a server over a
// scripted backend, that records the path of every request after the
// handshake and the sequence number of every fetch.
type harness struct {
	srv   *server.Server
	c     *Client
	paths []string
	seqs  []int64
}

func newHarness(t *testing.T, b scripted, fetchRows int) *harness {
	t.Helper()
	hn := &harness{srv: server.New(b, server.Config{FetchRows: fetchRows, SessionIdleTimeout: time.Minute})}
	h := hn.srv.Handler()
	record := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hn.paths = append(hn.paths, r.URL.Path)
		if r.URL.Path == wire.PathFetch {
			body, _ := io.ReadAll(r.Body)
			var fr wire.FetchRequest
			if err := json.Unmarshal(body, &fr); err == nil {
				hn.seqs = append(hn.seqs, fr.Seq)
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		h.ServeHTTP(w, r)
	})
	c, err := LoopbackOptions(record, Options{MaxRetries: -1})
	if err != nil {
		hn.srv.Close()
		t.Fatal(err)
	}
	hn.c = c
	t.Cleanup(func() {
		_ = c.Close()
		hn.srv.Close()
	})
	hn.reset()
	return hn
}

func (hn *harness) reset() { hn.paths, hn.seqs = nil, nil }

// expect checks the requests sent since the last reset and that the
// server holds no cursor and no admission slot.
func (hn *harness) expect(t *testing.T, paths ...string) {
	t.Helper()
	if !reflect.DeepEqual(hn.paths, paths) {
		t.Fatalf("requests %q, want %q", hn.paths, paths)
	}
	if st := hn.srv.Stats(); st.CursorsOpen != 0 || st.WeightedInFlight != 0 || st.QueriesInFlight != 0 {
		t.Fatalf("server state left behind: %+v", st)
	}
	hn.reset()
}

// ints reads every remaining row's integer.
func ints(t *testing.T, rows *resultset.Rows) []int64 {
	t.Helper()
	var got []int64
	for rows.Next() {
		n, _, err := rows.Int64(0)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, n)
	}
	return got
}

// TestInlineEOFPostsNoClose: a result that ends in the execute response's
// chunk is one request, and closing it — drained or not — posts nothing.
func TestInlineEOFPostsNoClose(t *testing.T) {
	hn := newHarness(t, scripted{"two": {rows: 2}}, 3)
	ctx := context.Background()

	rows, err := hn.c.Query(ctx, translator.ModeText, "two")
	if err != nil {
		t.Fatal(err)
	}
	if got := ints(t, rows); !reflect.DeepEqual(got, []int64{1, 2}) || rows.Err() != nil {
		t.Fatalf("rows %v, err %v", got, rows.Err())
	}
	rows.Close()
	hn.expect(t, wire.PathExecute)

	rows, err = hn.c.Query(ctx, translator.ModeText, "two")
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	rows.Close()
	hn.expect(t, wire.PathExecute)
}

// TestMultiChunkStream: past the first chunk the client fetches from
// sequence 2, and closing mid-stream releases the server's cursor.
func TestMultiChunkStream(t *testing.T) {
	hn := newHarness(t, scripted{"ten": {rows: 10}}, 3)
	ctx := context.Background()

	rows, err := hn.c.Query(ctx, translator.ModeText, "ten")
	if err != nil {
		t.Fatal(err)
	}
	if got := ints(t, rows); len(got) != 10 || got[9] != 10 || rows.Err() != nil {
		t.Fatalf("rows %v, err %v", got, rows.Err())
	}
	rows.Close()
	if !reflect.DeepEqual(hn.seqs, []int64{2, 3, 4}) {
		t.Fatalf("fetch sequence numbers %v, want [2 3 4]", hn.seqs)
	}
	hn.expect(t, wire.PathExecute, wire.PathFetch, wire.PathFetch, wire.PathFetch, wire.PathCloseCursor)

	rows, err = hn.c.Query(ctx, translator.ModeText, "ten")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if !rows.Next() {
			t.Fatalf("row %d: %v", i+1, rows.Err())
		}
	}
	if st := hn.srv.Stats(); st.CursorsOpen != 1 {
		t.Fatalf("mid-stream: %d cursors open, want 1", st.CursorsOpen)
	}
	rows.Close()
	if !reflect.DeepEqual(hn.seqs, []int64{2}) {
		t.Fatalf("fetch sequence numbers %v, want [2]", hn.seqs)
	}
	hn.expect(t, wire.PathExecute, wire.PathFetch, wire.PathCloseCursor)
}

// TestErrorKindsCrossTheWire sends every aqerr.Kind, and a Retry-After
// hint on unavailable, through both ways a server error reaches the
// client: the HTTP error body of an execute that fails before its first
// row, and the in-band error of a chunk that fails after two rows. Either
// way the client rebuilds the same QueryError — kind, op, message and
// hint — and the in-band one arrives after its prefix, through Rows.Err,
// in the one execute exchange.
func TestErrorKindsCrossTheWire(t *testing.T) {
	type sent struct {
		kind  aqerr.Kind
		after time.Duration
	}
	table := []sent{
		{aqerr.KindUnknown, 0},
		{aqerr.KindTransient, 0},
		{aqerr.KindPermanent, 0},
		{aqerr.KindUnavailable, 0},
		{aqerr.KindUnavailable, 40 * time.Millisecond},
		{aqerr.KindTimeout, 0},
		{aqerr.KindResourceLimit, 0},
		{aqerr.KindInternal, 0},
	}
	const op = "data service EDGE"
	b := scripted{}
	for _, s := range table {
		qe := &aqerr.QueryError{Kind: s.kind, Op: op, Err: errors.New("broke <&> " + s.kind.String()), RetryAfter: s.after}
		b[fmt.Sprintf("early %v %v", s.kind, s.after)] = script{err: qe, early: true}
		b[fmt.Sprintf("late %v %v", s.kind, s.after)] = script{rows: 2, err: qe}
	}
	hn := newHarness(t, b, 8)
	ctx := context.Background()

	check := func(t *testing.T, s sent, err error) {
		t.Helper()
		var qe *aqerr.QueryError
		if !errors.As(err, &qe) {
			t.Fatalf("%v is not a QueryError", err)
		}
		if qe.Kind != s.kind || qe.Op != op || qe.Err == nil || qe.Err.Error() != "broke <&> "+s.kind.String() {
			t.Fatalf("got kind %v op %q cause %v, want %v %q %q", qe.Kind, qe.Op, qe.Err, s.kind, op, "broke <&> "+s.kind.String())
		}
		if got := aqerr.RetryAfterHint(err); got != s.after {
			t.Fatalf("Retry-After %v, want %v", got, s.after)
		}
	}
	for _, s := range table {
		t.Run(fmt.Sprintf("%v %v", s.kind, s.after), func(t *testing.T) {
			_, err := hn.c.Query(ctx, translator.ModeText, fmt.Sprintf("early %v %v", s.kind, s.after))
			check(t, s, err)
			hn.expect(t, wire.PathExecute)

			rows, err := hn.c.Query(ctx, translator.ModeText, fmt.Sprintf("late %v %v", s.kind, s.after))
			if err != nil {
				t.Fatalf("execute: %v", err)
			}
			if got := ints(t, rows); !reflect.DeepEqual(got, []int64{1, 2}) {
				t.Fatalf("prefix %v, want [1 2]", got)
			}
			check(t, s, rows.Err())
			rows.Close()
			hn.expect(t, wire.PathExecute)
		})
	}
}

// TestServerTimeoutKeepsCause: when the server's own evaluation deadline
// ends a query — here its QueryTimeout, while the client waits unbounded —
// the timeout the client rebuilds still matches context.DeadlineExceeded,
// as it does in process. A cancellation keeps context.Canceled the same
// way; other kinds carrying the same text gain no cause.
func TestServerTimeoutKeepsCause(t *testing.T) {
	srv := server.New(scripted{"stall": {stall: true}}, server.Config{QueryTimeout: 20 * time.Millisecond, SessionIdleTimeout: time.Minute})
	c, err := LoopbackOptions(srv.Handler(), Options{MaxRetries: -1})
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = c.Close()
		srv.Close()
	})
	rows, err := c.Query(context.Background(), translator.ModeText, "stall")
	if err == nil {
		rows.Next()
		err = rows.Err()
		rows.Close()
	}
	var qe *aqerr.QueryError
	if !errors.As(err, &qe) || qe.Kind != aqerr.KindTimeout || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("server-side expiry: %v, want a timeout matching context.DeadlineExceeded", err)
	}
	if want := "aqualogic: query: timeout: context deadline exceeded"; err.Error() != want {
		t.Fatalf("message %q, want %q", err, want)
	}

	for _, tc := range []struct {
		we    wire.Error
		cause error
	}{
		{wire.Error{Kind: "timeout", Op: "evaluate", Msg: "context canceled"}, context.Canceled},
		{wire.Error{Kind: "timeout", Op: "fetch", Msg: "stream: context deadline exceeded"}, context.DeadlineExceeded},
		{wire.Error{Kind: "permanent", Op: "evaluate", Msg: "context canceled"}, nil},
		{wire.Error{Kind: "timeout", Op: "evaluate", Msg: "budget spent"}, nil},
	} {
		err := decodeError(&tc.we)
		for _, cause := range []error{context.Canceled, context.DeadlineExceeded} {
			if errors.Is(err, cause) != (cause == tc.cause) {
				t.Fatalf("%+v: errors.Is(%v) = %v", tc.we, cause, !(cause == tc.cause))
			}
		}
		if want := fmt.Sprintf("aqualogic: %s: %s: %s", tc.we.Op, tc.we.Kind, tc.we.Msg); err.Error() != want {
			t.Fatalf("message %q, want %q", err, want)
		}
	}
}
