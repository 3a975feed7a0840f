package remoteclient

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"slices"
	"strconv"
	"sync"
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

// edgeTable is a read-only server.Backend answering every statement with
// the same rows: an integer and a string full of the §4 delimiters, their
// escapes, a newline and NULLs.
type edgeTable struct{ n int }

var edgeColumns = []resultset.Column{
	{Label: "N", ElementName: "N", Type: catalog.SQLInteger},
	{Label: "S", ElementName: "S", Type: catalog.SQLVarchar, Nullable: true},
}

// Prepare compiles nothing; every statement is the table.
func (b edgeTable) Prepare(context.Context, string, translator.ResultMode) (session.Prepared, error) {
	return b, nil
}

func (edgeTable) Columns() []resultset.Column { return edgeColumns }

func (edgeTable) ParamCount() int { return 0 }

func (edgeTable) Cost() int64 { return 1 }

func (b edgeTable) Execute(context.Context, ...any) (*resultset.Rows, error) {
	return resultset.NewStreaming(&edgeCursor{n: b.n}), nil
}

func (edgeTable) Explain(context.Context, string, translator.ResultMode) ([]string, error) {
	return nil, errors.New("edge backend: no compiler")
}

func (edgeTable) Call(context.Context, string, string, []xdm.Sequence) (xdm.Sequence, error) {
	return nil, errors.New("edge backend: no functions")
}

func (edgeTable) DefineView(string, string, string) error {
	return errors.New("edge backend: read-only")
}

func (edgeTable) Metadata() catalog.Source { return nil }

func (edgeTable) QueryTimeout() time.Duration { return 0 }

func (edgeTable) CompileStats() qcache.Stats { return qcache.Stats{} }

func (edgeTable) MetadataStats() catalog.CacheStats { return catalog.CacheStats{} }

func (edgeTable) Stats() obsv.Snapshot { return obsv.Snapshot{} }

type edgeCursor struct{ i, n int }

func (c *edgeCursor) Columns() []resultset.Column { return edgeColumns }

func (c *edgeCursor) Next() ([]xdm.Atomic, error) {
	if c.i == c.n {
		return nil, io.EOF
	}
	c.i++
	row := []xdm.Atomic{xdm.Integer(c.i), nil}
	if c.i%4 != 0 {
		row[1] = xdm.String(fmt.Sprintf("r%d <a&b> >x< &null; \"q\"\n\r%d", c.i, c.i*7))
	}
	return row, nil
}

func (c *edgeCursor) Close() error { return nil }

// mangler is a RoundTripper over the loopback transport that damages
// chunk bodies — execute and fetch responses — on a schedule: the at-th
// one, or with every set every other one from there on.
type mangler struct {
	next   http.RoundTripper
	damage func([]byte) []byte
	at     int
	every  bool

	mu      sync.Mutex
	chunks  int // chunk bodies seen
	damaged int // chunk bodies changed
}

func (m *mangler) RoundTrip(req *http.Request) (*http.Response, error) {
	res, err := m.next.RoundTrip(req)
	if err != nil || res.StatusCode != http.StatusOK || res.Header.Get("Content-Type") != wire.ChunkContentType {
		return res, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.chunks++
	if m.chunks != m.at && !(m.every && m.chunks > m.at && (m.chunks-m.at)%2 == 0) {
		return res, nil
	}
	body, err := io.ReadAll(res.Body)
	if err != nil {
		return nil, err
	}
	if bad := m.damage(body); !bytes.Equal(bad, body) {
		m.damaged++
		body = bad
	}
	res.Body = io.NopCloser(bytes.NewReader(body))
	return res, nil
}

var rowCount = regexp.MustCompile(`"row_count":(\d+)`)

// damages are the ways a chunk body can disagree with its envelope.
var damages = []struct {
	name string
	fn   func([]byte) []byte
}{
	{"last byte cut", func(b []byte) []byte { return b[:len(b)-1] }},
	{"last row cut at '>'", func(b []byte) []byte { return b[:bytes.LastIndexByte(b, '>')] }},
	{"extra row", func(b []byte) []byte { return append(slices.Clip(b), ">99<extra"...) }},
	{"no line end after the envelope", func(b []byte) []byte {
		nl := bytes.IndexByte(b, '\n')
		return append(slices.Clone(b[:nl]), b[nl+1:]...)
	}},
	{"row count disagrees", func(b []byte) []byte {
		return rowCount.ReplaceAllFunc(b, func(m []byte) []byte {
			n, _ := strconv.Atoi(string(rowCount.FindSubmatch(m)[1]))
			return []byte(`"row_count":` + strconv.Itoa(n+1))
		})
	}},
}

// mangledClient loops a client with opts back to a server over edgeTable
// through m.
func mangledClient(t *testing.T, m *mangler, rows, fetchRows int, opts Options) *Client {
	t.Helper()
	srv := server.New(edgeTable{n: rows}, server.Config{FetchRows: fetchRows, SessionIdleTimeout: time.Minute})
	m.next = loopbackTransport{h: srv.Handler()}
	c, err := connect("http://loopback", &http.Client{Transport: m}, opts)
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = c.Close()
		srv.Close()
	})
	return c
}

// texts drains rows as §4 row texts, with the error the stream ended on.
func texts(rows *resultset.Rows) ([]string, error) {
	var out []string
	for text, ok := rows.NextText(); ok; text, ok = rows.NextText() {
		out = append(out, text)
	}
	err := rows.Err()
	rows.Close()
	return out, err
}

// TestFramingNet drives the loopback transport through a RoundTripper that
// damages chunk bodies so they disagree with their envelopes. Without
// retries each damage is a typed transient error that delivers no row of
// the damaged chunk — on the execute response no result at all, on a
// fetch the earlier chunks' rows and then the error. With retries the
// client re-presents the exec key or fetch sequence, and the replayed
// chunks deliver rows byte-identical to the in-process oracle.
func TestFramingNet(t *testing.T) {
	const total, fetchRows = 23, 5
	oracle, err := texts(resultset.NewStreaming(&edgeCursor{n: total}))
	if err != nil || len(oracle) != total {
		t.Fatalf("oracle: %d rows, %v", len(oracle), err)
	}
	transient := func(err error) bool {
		var qe *aqerr.QueryError
		return errors.As(err, &qe) && qe.Kind == aqerr.KindTransient
	}
	ctx := context.Background()
	for _, d := range damages {
		t.Run(d.name, func(t *testing.T) {
			m := &mangler{damage: d.fn, at: 1}
			c := mangledClient(t, m, total, fetchRows, Options{MaxRetries: -1})
			if rows, err := c.Query(ctx, translator.ModeText, "q"); !transient(err) || m.damaged != 1 {
				t.Fatalf("damaged execute (%d damaged): rows %v, err %v; want a typed transient error", m.damaged, rows, err)
			}

			m = &mangler{damage: d.fn, at: 2}
			c = mangledClient(t, m, total, fetchRows, Options{MaxRetries: -1})
			rows, err := c.Query(ctx, translator.ModeText, "q")
			if err != nil {
				t.Fatal(err)
			}
			got, err := texts(rows)
			if !transient(err) || !slices.Equal(got, oracle[:fetchRows]) || m.damaged != 1 {
				t.Fatalf("damaged fetch: %d rows then %v; want the first chunk's %d rows, then a typed transient error", len(got), err, fetchRows)
			}

			m = &mangler{damage: d.fn, at: 1, every: true}
			c = mangledClient(t, m, total, fetchRows, Options{})
			rows, err = c.Query(ctx, translator.ModeText, "q")
			if err != nil {
				t.Fatal(err)
			}
			if got, err := texts(rows); err != nil || !slices.Equal(got, oracle) {
				t.Fatalf("with retries: %d rows %q then %v; want the oracle's %d rows %q", len(got), got, err, total, oracle)
			}
			if want := (total + fetchRows - 1) / fetchRows; m.damaged != want {
				t.Fatalf("%d of %d chunk bodies damaged, want every chunk's first of %d", m.damaged, m.chunks, want)
			}
		})
	}
}
