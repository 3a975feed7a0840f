package driver

import (
	"context"
	"database/sql/driver"
	"errors"
	"strings"
	"time"

	"repro/internal/aqerr"
	"repro/internal/catalog"
	"repro/internal/remoteclient"
	"repro/internal/resultset"
	"repro/internal/translator"
	"repro/internal/xdm"
)

// remoteSession is the Session of an aql:// connection: one wire session
// to an aqlserve server. Its prepared statements are the wire client's.
type remoteSession struct{ c *remoteclient.Client }

// Prepare implements Session with the prepare verb.
func (r remoteSession) Prepare(ctx context.Context, text string, mode translator.ResultMode) (Prepared, error) {
	st, err := r.c.Prepare(ctx, text, mode)
	if err != nil {
		return nil, sessionGone(err)
	}
	return remoteStmt{st}, nil
}

// remoteStmt is a statement prepared in a wire session.
type remoteStmt struct{ *remoteclient.Stmt }

// Execute implements Prepared with the execute verb.
func (s remoteStmt) Execute(ctx context.Context, args ...any) (*resultset.Rows, error) {
	rows, err := s.Stmt.Execute(ctx, args...)
	return rows, sessionGone(err)
}

// Explain implements Session with the explain verb.
func (r remoteSession) Explain(ctx context.Context, text string, mode translator.ResultMode) ([]string, error) {
	plan, err := r.c.Explain(ctx, text, mode)
	if err != nil {
		return nil, sessionGone(err)
	}
	return strings.Split(strings.TrimRight(plan, "\n"), "\n"), nil
}

// Call implements Session: the wire protocol has no verb for it.
func (remoteSession) Call(context.Context, string, string, []xdm.Sequence) (xdm.Sequence, error) {
	return nil, aqerr.Errorf(aqerr.KindPermanent, "call", "CALL is not served over the wire")
}

// DefineView implements Session with the create-view verb.
func (r remoteSession) DefineView(path, name, sql string) error {
	return r.c.DefineView(context.Background(), path, name, sql)
}

// Metadata implements Session: the client browses the server's catalog.
func (r remoteSession) Metadata() catalog.Source { return r.c }

// QueryTimeout implements Session. The server bounds evaluations itself.
func (remoteSession) QueryTimeout() time.Duration { return 0 }

// sessionGone turns the server's refusal of a session it no longer holds —
// reaped after its idle timeout, or closed — into driver.ErrBadConn, so
// database/sql drops the connection and retries on a new session. The
// server refuses such a request before doing anything, so the retry
// cannot repeat work.
func sessionGone(err error) error {
	var qe *aqerr.QueryError
	if errors.As(err, &qe) && qe.Kind == aqerr.KindUnavailable && qe.Op == "session" {
		return driver.ErrBadConn
	}
	return err
}
