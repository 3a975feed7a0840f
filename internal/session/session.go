// Package session is the platform's one client contract (paper §2,
// Figure 1): a Session prepares a statement once, and its Prepared
// executes it many times. aqualogic.Platform is a Session, the wire
// server serves one, and an aql:// connection holds one on the client
// side. The package is a leaf, so the server can name it without
// importing the driver.
package session

import (
	"context"
	"time"

	"repro/internal/catalog"
	"repro/internal/qfront"
	"repro/internal/resultset"
	"repro/internal/translator"
	"repro/internal/xdm"
)

// Session is the platform a client holds: one in this process, or a wire
// session to a server. Every call reads the platform's current state, so
// metadata, compile-cache and configuration changes made after a client
// opened it reach the client.
type Session interface {
	// Prepare compiles a statement through the platform's compile cache.
	Prepare(ctx context.Context, dialect qfront.Dialect, text string, mode translator.ResultMode) (Prepared, error)
	// Explain renders a statement's compiled artifact, one line per row,
	// with what this call did to the compile and metadata caches.
	Explain(ctx context.Context, dialect qfront.Dialect, text string, mode translator.ResultMode) ([]string, error)
	// Call invokes a data service function — what CALL runs.
	Call(ctx context.Context, namespace, name string, args []xdm.Sequence) (xdm.Sequence, error)
	// DefineView registers a logical data service (CREATE VIEW).
	DefineView(path, name, sql string) error
	// Metadata is the catalog SHOW and CALL resolve against.
	Metadata() catalog.Source
	// QueryTimeout bounds executions that arrive without a deadline; zero
	// means unbounded.
	QueryTimeout() time.Duration
}

// Prepared is a compiled statement that executes many times with
// different parameters, concurrently if need be. An execution resolves no
// statement text: the statement keeps its compiled artifact and recompiles
// only when the catalog, the statistics or a source it touched has moved
// on since.
type Prepared interface {
	Columns() []resultset.Column
	ParamCount() int
	// Cost is the statement's admission score (qcache.CompiledQuery.Cost),
	// at least 1: what a server weighs an execution by before it starts.
	// A statement a remote server holds reports 1; that server weighs it.
	Cost() int64
	Execute(ctx context.Context, args ...any) (*resultset.Rows, error)
}
