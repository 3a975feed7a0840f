// Package driver implements the Go analog of the paper's JDBC driver: a
// database/sql/driver that is a client of the platform. SQL arrives
// through the standard database/sql API and is handed to a Session — the
// platform's one compile-and-execute path, compile cache and metadata
// cache — which compiles it once at Prepare time (the prepared-statement
// path) and evaluates it per execution. The driver holds no translator,
// engine or cache of its own.
//
// Beyond SELECT, the driver supports the metadata-browsing and
// stored-procedure surfaces reporting tools use:
//
//	SHOW CATALOGS / SHOW SCHEMAS / SHOW TABLES / SHOW PROCEDURES
//	SHOW COLUMNS FROM <table>
//	CALL <function>(args…)   — parameterized data service functions
//
// The DSN names a registered session, optionally selecting the §4 result
// mode and the query dialect: "demo", "demo?mode=text" (default),
// "demo?mode=xml", "demo?dialect=path" (default "sql").
package driver

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/qfront"
	"repro/internal/resultset"
	"repro/internal/translator"
	"repro/internal/xdm"
)

// Session is the platform a connection is a client of. Every call reads
// the platform's current state, so metadata, compile-cache and
// configuration changes made after registration reach every connection.
type Session interface {
	// Prepare compiles a statement through the platform's compile cache.
	Prepare(ctx context.Context, dialect qfront.Dialect, text string, mode translator.ResultMode) (Prepared, error)
	// Explain renders a statement's compiled artifact, one line per row.
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
// different parameters, concurrently if need be.
type Prepared interface {
	Columns() []resultset.Column
	ParamCount() int
	Execute(ctx context.Context, args ...any) (*resultset.Rows, error)
}

var (
	registryMu sync.RWMutex
	registry   = map[string]Session{}
)

// Register installs a session under a DSN name.
func Register(name string, s Session) {
	registryMu.Lock()
	defer registryMu.Unlock()
	registry[name] = s
}

// Driver implements driver.Driver.
type Driver struct{}

// Open implements driver.Driver.
func (Driver) Open(dsn string) (driver.Conn, error) {
	name := dsn
	c := &conn{mode: translator.ModeText, dialect: qfront.DialectSQL}
	if i := strings.IndexByte(dsn, '?'); i >= 0 {
		name = dsn[:i]
		for _, kv := range strings.Split(dsn[i+1:], "&") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("aqualogic: malformed DSN option %q", kv)
			}
			switch k {
			case "mode":
				switch v {
				case "text":
					c.mode = translator.ModeText
				case "xml":
					c.mode = translator.ModeXML
				default:
					return nil, fmt.Errorf("aqualogic: unknown result mode %q", v)
				}
			case "dialect":
				c.dialect = qfront.Dialect(v)
			default:
				return nil, fmt.Errorf("aqualogic: unknown DSN option %q", k)
			}
		}
	}
	if _, err := qfront.Lookup(c.dialect); err != nil {
		return nil, fmt.Errorf("aqualogic: %v", err)
	}
	registryMu.RLock()
	c.sess = registry[name]
	registryMu.RUnlock()
	if c.sess == nil {
		return nil, fmt.Errorf("aqualogic: no registered server %q", name)
	}
	return c, nil
}

func init() {
	sql.Register("aqualogic", Driver{})
}
