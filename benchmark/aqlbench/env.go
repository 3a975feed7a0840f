package main

import (
	"fmt"
	"net"
	"net/http"

	aqualogic "repro"
	"repro/benchmark/gen"
	"repro/internal/remoteclient"
	"repro/internal/server"
)

var sqlTypes = map[gen.Kind]aqualogic.Column{
	gen.Int:  {Type: aqualogic.SQLInteger},
	gen.Str:  {Type: aqualogic.SQLVarchar, Precision: 64},
	gen.Dec:  {Type: aqualogic.SQLDecimal, Precision: 12, Scale: 2},
	gen.Date: {Type: aqualogic.SQLDate},
}

// newPlatform serves generated tables through the stock constructor:
// aqualogic.New over a plain application and engine, default compile
// cache, nothing configured — what a library user gets.
func newPlatform(tabs []*gen.Table) *aqualogic.Platform {
	app := &aqualogic.Application{Name: "BenchApp"}
	engine := aqualogic.NewEngine()
	for _, t := range tabs {
		cols := make([]aqualogic.Column, len(t.Cols))
		for i, c := range t.Cols {
			cols[i] = sqlTypes[c.Kind]
			cols[i].Name, cols[i].Nullable = c.Name, c.Nullable
		}
		app.AddDSFile(&aqualogic.DSFile{Path: t.Path, Name: t.Name,
			Functions: []*aqualogic.Function{aqualogic.NewRelationalImport(t.Path, t.Name, cols)}})
		rows := make([]*aqualogic.Element, len(t.Rows))
		pairs := make([]string, 2*len(t.Cols))
		for i, r := range t.Rows {
			for j, v := range r {
				pairs[2*j], pairs[2*j+1] = t.Cols[j].Name, v // NewRow skips "" (SQL NULL)
			}
			rows[i] = aqualogic.NewRow(t.Name, pairs...)
		}
		aqualogic.RegisterRows(engine, "ld:"+t.Path+"/"+t.Name, t.Name, rows)
	}
	return aqualogic.New(app, engine)
}

// served is a platform behind the stock server on a real TCP listener,
// with one dialed session per caller.
type served struct {
	srv     *server.Server
	hs      *http.Server
	done    chan struct{}
	clients []*remoteclient.Client
}

// serve starts server.New(backend, Config{}) on 127.0.0.1:0 and dials
// one session per caller. wrap, when set, interposes the trace
// middleware round the server's handler.
func serve(backend server.Backend, callers int, wrap func(http.Handler) http.Handler) (*served, error) {
	srv := server.New(backend, server.Config{})
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &served{srv: srv, hs: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns ErrServerClosed on Close
	}()
	for i := 0; i < callers; i++ {
		c, err := remoteclient.Dial("http://" + ln.Addr().String())
		if err != nil {
			s.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		s.clients = append(s.clients, c)
	}
	return s, nil
}

// close ends the sessions, stops the listener and waits for the serve
// goroutine and the server's reaper to exit. No request is in flight by
// then, so the connections are closed outright: a graceful Shutdown would
// wait five seconds on any connection the client's pool dialed and never
// used.
func (s *served) close() {
	for _, c := range s.clients {
		_ = c.Close() // best effort: the server is going away
	}
	_ = s.hs.Close()
	<-s.done
	s.srv.Close()
}
