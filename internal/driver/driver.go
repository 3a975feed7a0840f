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
// The DSN picks the transport and, optionally, the §4 result mode and the
// query dialect:
//
//	dsn    = target [ "?" option { "&" option } ]
//	target = name | "aql://" host ":" port
//	option = "mode=" ( "text" | "xml" ) | "dialect=" dialect-name
//
// A name opens the session registered under it in this process ("demo",
// "demo?mode=xml", "demo?dialect=path"). An aql:// address opens a wire
// session to the aqlserve server there, one per connection, ended when
// the connection closes ("aql://127.0.0.1:7117?mode=xml"). The defaults
// are mode=text and dialect=sql. Both transports run the same statements,
// except CALL over aql://, which fails with a permanent error: the wire
// protocol has no verb that calls a data service function.
package driver

import (
	"database/sql"
	"database/sql/driver"
	"net"
	"strings"
	"sync"

	"repro/internal/aqerr"
	"repro/internal/qfront"
	"repro/internal/remoteclient"
	"repro/internal/session"
	"repro/internal/translator"
)

// Session and Prepared are the platform's client contract: a connection
// holds a Session, in this process or a wire session to a server (aql://
// DSNs), and a prepared SELECT holds its Prepared.
type (
	Session  = session.Session
	Prepared = session.Prepared
)

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

// Open implements driver.Driver. Every malformed DSN, unknown name or
// unreachable server is a typed error.
func (Driver) Open(dsn string) (driver.Conn, error) {
	name := dsn
	c := &conn{mode: translator.ModeText, dialect: qfront.DialectSQL}
	if i := strings.IndexByte(dsn, '?'); i >= 0 {
		name = dsn[:i]
		for _, kv := range strings.Split(dsn[i+1:], "&") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, openError("malformed DSN option %q", kv)
			}
			switch k {
			case "mode":
				switch v {
				case "text":
					c.mode = translator.ModeText
				case "xml":
					c.mode = translator.ModeXML
				default:
					return nil, openError("unknown result mode %q", v)
				}
			case "dialect":
				c.dialect = qfront.Dialect(v)
			default:
				return nil, openError("unknown DSN option %q", k)
			}
		}
	}
	if _, err := qfront.Lookup(c.dialect); err != nil {
		return nil, openError("%v", err)
	}
	if addr, ok := strings.CutPrefix(name, "aql://"); ok {
		addr = strings.TrimSuffix(addr, "/")
		if host, port, err := net.SplitHostPort(addr); err != nil || host == "" || port == "" {
			return nil, openError("DSN %q needs aql://host:port", dsn)
		}
		client, err := remoteclient.Dial("http://" + addr)
		if err != nil {
			return nil, err
		}
		c.sess = remoteSession{client}
		return c, nil
	}
	registryMu.RLock()
	c.sess = registry[name]
	registryMu.RUnlock()
	if c.sess == nil {
		return nil, openError("no registered server %q", name)
	}
	return c, nil
}

func openError(format string, args ...any) error {
	return aqerr.Errorf(aqerr.KindPermanent, "open", format, args...)
}

func init() {
	sql.Register("aqualogic", Driver{})
}
