package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/aqerr"
	"repro/internal/wire"
)

// Handler exposes the server over HTTP. Every endpoint is a POST of one
// JSON request to one wire path, answered with the body wire.WriteBody
// writes — JSON, or for execute and fetch an envelope line plus the
// chunk's §4 payload; failures travel as a wire.Error body with a
// kind-derived status code. Each handler sits behind a panic
// recovery boundary, so an injected srv/* panic — or a real engine bug —
// becomes a typed internal error on one request, counted in
// PanicsRecovered, not a dead server process.
func (s *Server) Handler() http.Handler {
	mux := &router{ServeMux: http.NewServeMux(), panics: &s.panicsRecovered}
	handle(mux, wire.PathHandshake, s.handshake)
	handle(mux, wire.PathPrepare, s.prepare)
	handle(mux, wire.PathExecute, s.execute)
	handle(mux, wire.PathFetch, s.fetch)
	handle(mux, wire.PathCloseCursor, s.closeCursor)
	handle(mux, wire.PathCloseSession, func(ctx context.Context, req wire.CloseSessionRequest) (wire.CloseSessionResponse, error) {
		return wire.CloseSessionResponse{}, s.closeSession(ctx, req)
	})
	handle(mux, wire.PathExplain, s.explain)
	handle(mux, wire.PathCreateView, func(ctx context.Context, req wire.CreateViewRequest) (wire.CreateViewResponse, error) {
		return wire.CreateViewResponse{}, s.createView(ctx, req)
	})
	handle(mux, wire.PathMetaLookup, s.lookupMeta)
	handle(mux, wire.PathMetaTables, func(ctx context.Context, req wire.MetasRequest) (wire.MetasResponse, error) {
		if err := s.fault(ctx, "srv/meta"); err != nil {
			return wire.MetasResponse{}, aqerr.Wrap("metadata tables", err)
		}
		metas, err := s.b.Metadata().Tables()
		return wire.MetasResponse{Metas: metas}, aqerr.Wrap("metadata tables", err)
	})
	handle(mux, wire.PathMetaProcs, func(ctx context.Context, req wire.MetasRequest) (wire.MetasResponse, error) {
		if err := s.fault(ctx, "srv/meta"); err != nil {
			return wire.MetasResponse{}, aqerr.Wrap("metadata procedures", err)
		}
		metas, err := s.b.Metadata().Procedures()
		return wire.MetasResponse{Metas: metas}, aqerr.Wrap("metadata procedures", err)
	})
	handle(mux, wire.PathStats, func(ctx context.Context, req wire.StatsRequest) (wire.StatsResponse, error) {
		return wire.StatsResponse{Server: s.Stats(), Compile: s.b.CompileStats(),
			Metadata: s.b.MetadataStats(), Pipeline: s.b.Stats()}, nil
	})
	return mux
}

// router is the server's mux with the counter its handlers' recovered
// panics go to.
type router struct {
	*http.ServeMux
	panics *atomic.Int64
}

// maxRequestBytes bounds every request body. The largest legitimate
// request is one statement's text (or a view definition) plus its bound
// arguments; anything larger is refused with a typed resource-limit error
// before it is buffered.
const maxRequestBytes = 1 << 20

// handle registers one POST endpoint with the shared decode / recover /
// encode discipline.
func handle[Req, Resp any](mux *router, path string, fn func(ctx context.Context, req Req) (Resp, error)) {
	mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req Req
		if err := readRequest(w, r, &req); err != nil {
			writeWireError(w, err)
			return
		}
		// Honor the client's deadline budget on every verb: the request
		// context is clamped to the remaining budget, so server-side work
		// the caller has already given up on is cancelled, not completed.
		ctx := r.Context()
		if ms := r.Header.Get(wire.BudgetHeader); ms != "" {
			if n, perr := strconv.ParseInt(ms, 10, 64); perr == nil && n > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Duration(n)*time.Millisecond)
				defer cancel()
			}
		}
		resp, err := func() (resp Resp, err error) {
			defer func() {
				if r := recover(); r != nil {
					mux.panics.Add(1)
					err = aqerr.Errorf(aqerr.KindInternal, "serve "+path, "recovered panic: %v", r)
				}
			}()
			return fn(ctx, req)
		}()
		if err != nil {
			writeWireError(w, err)
			return
		}
		writeBody(w, http.StatusOK, &resp)
	})
}

// readRequest decodes a request body, read whole into a pooled buffer,
// refusing fields the request does not declare (wire.ReadRequest).
// The buffer grows to at most maxRequestBytes: a longer body is refused
// when its first byte past the bound arrives, not buffered (bytes.Buffer's
// own ReadFrom would double the buffer past the bound first).
func readRequest(w http.ResponseWriter, r *http.Request, req any) error {
	buf := wire.GetBuffer()
	defer wire.PutBuffer(buf)
	body := http.MaxBytesReader(w, r.Body, maxRequestBytes)
	var err error
	for err == nil {
		if buf.Len() == maxRequestBytes {
			_, err = body.Read(make([]byte, 1)) // io.EOF, or the bound's error
			break
		}
		buf.Grow(min(bytes.MinRead, maxRequestBytes-buf.Len()))
		free := buf.AvailableBuffer()[:buf.Available()]
		var n int
		n, err = body.Read(free)
		buf.Write(free[:n])
	}
	if err == io.EOF {
		err = wire.ReadRequest(buf.Bytes(), req)
	}
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return nil
	case errors.As(err, &tooBig):
		return aqerr.Errorf(aqerr.KindResourceLimit, "decode", "request body exceeds %d bytes", tooBig.Limit)
	default:
		return aqerr.Errorf(aqerr.KindPermanent, "decode", "malformed request: %v", err)
	}
}

// writeBody writes one response body as wire.WriteBody frames it, built in
// a pooled buffer and sent with its length.
func writeBody(w http.ResponseWriter, status int, body any) {
	buf := wire.GetBuffer()
	defer wire.PutBuffer(buf)
	if err := wire.WriteBody(buf, body); err != nil {
		writeWireError(w, aqerr.Errorf(aqerr.KindInternal, "encode", "response body: %v", err))
		return
	}
	w.Header().Set("Content-Type", wire.ContentType(body))
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes()) // the client sees a short body as a transport failure
}

// writeWireError encodes a typed failure as a wire.Error body. The HTTP
// status mirrors the kind so generic middleware can reason about it, but
// clients rebuild the typed error from the body's kind string.
func writeWireError(w http.ResponseWriter, err error) {
	we := wireError("serve", err)
	status := http.StatusBadRequest
	switch aqerr.ParseKind(we.Kind) {
	case aqerr.KindTransient:
		status = http.StatusBadGateway
	case aqerr.KindUnavailable:
		status = http.StatusServiceUnavailable
	case aqerr.KindTimeout:
		status = http.StatusGatewayTimeout
	case aqerr.KindResourceLimit:
		status = http.StatusInsufficientStorage
	case aqerr.KindInternal, aqerr.KindUnknown:
		status = http.StatusInternalServerError
	}
	writeBody(w, status, wire.ErrorResponse{Error: we})
}
