// Command aqlshell is an interactive SQL shell over the demo AquaLogic
// deployment, speaking through the database/sql driver — the closest thing
// to pointing a JDBC console at the paper's system.
//
// Supported statements: SQL-92 SELECT (translated to XQuery and executed),
// EXPLAIN <select> (stage-by-stage translation trace, cache effect, query
// contexts, and the generated XQuery), SHOW CATALOGS/SCHEMAS/TABLES/
// PROCEDURES, SHOW COLUMNS FROM <t>, CALL <proc>(args), plus the shell
// commands \d <dialect> (switch the query language: "sql" is the default,
// "path" the graph-pattern front end — every later statement, \x, \p, and
// \c parse in the chosen dialect), \x, \c and \p (the XQuery, query
// contexts and evaluator plan of the statement's compiled artifact, the
// one its executions run), \s (pipeline metrics snapshot),
// \r (resilience counters: retries, breaker trips, stale serves, injected
// faults), \src (per-source federation health: metadata generations,
// breaker states, and scan attribution for every registered backend),
// \q (compile-cache counters: hits, misses, single-flight
// shares, evictions, invalidations, size, metadata generation), and
// \f n (fetch size: page results n rows at a time straight off the live
// cursor — rows print as the evaluation produces them, and abandoning a
// page cancels the rest of the query; \f 0 restores whole-result
// formatting). Type "quit" or "exit" to leave.
//
// With -server <url> (http://host:port) the shell opens the same
// database/sql driver on an aql://host:port DSN instead, so every statement —
// SELECT, SHOW, EXPLAIN, CREATE VIEW, paging — runs in a wire session of
// a running aqlserve process (CALL is refused: the wire has no verb for
// it). \s renders the server's pipeline metrics, session and cursor
// counters, and its platform's compile and metadata caches; \r renders
// the server's admission/queue/shed gauges from /v1/stats alongside
// the shell's stats client's breaker. \x, \c, \p, \q and \src read the
// in-process platform and are unavailable with -server.
package main

import (
	"bufio"
	"context"
	"database/sql"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	aqualogic "repro"
	_ "repro/internal/driver"
	"repro/internal/remoteclient"
)

func main() {
	serverURL := flag.String("server", "", "aqlserve URL (e.g. http://127.0.0.1:7117); empty runs the in-process demo")
	flag.Parse()
	var (
		p     *aqualogic.Platform  // the in-process demo; nil with -server
		stats *remoteclient.Client // with -server: the session \s and \r read the server's counters through
		dsn   = "demo"
	)
	if *serverURL != "" {
		var err error
		if stats, err = remoteclient.Dial(*serverURL); err != nil {
			fmt.Fprintln(os.Stderr, "aqlshell: connect:", err)
			os.Exit(1)
		}
		defer stats.Close()
		dsn = "aql://" + strings.TrimPrefix(*serverURL, "http://")
	} else {
		p = aqualogic.Demo()
		p.RegisterDriver(dsn)
	}
	dialect := aqualogic.DialectSQL
	db, err := sql.Open("aqualogic", dsn)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aqlshell:", err)
		os.Exit(1)
	}
	defer func() { db.Close() }()

	fmt.Println("aqlshell — SQL over the AquaLogic-style demo deployment")
	if stats != nil {
		fmt.Printf("connected to %s as %s\n", *serverURL, dsn)
	}
	fmt.Println(`type SQL (SELECT/SHOW/CALL), "EXPLAIN SELECT ..." for the stage trace,`)
	fmt.Println(`"\x SELECT ..." to see the XQuery, "\c SELECT ..." to see the query`)
	fmt.Println(`contexts (Figure 4), "\p SELECT ..." for the evaluator's query plan`)
	fmt.Println(`(with per-scan cardinality and hash-join cost annotations once source`)
	fmt.Println(`statistics are observed — run a query over the tables first),`)
	fmt.Println(`"\s" for pipeline metrics (incl. stats hits and parallel workers),`)
	fmt.Println(`"\r" for resilience counters, "\src" for per-source federation`)
	fmt.Println(`health (metadata generations, breakers, scan attribution), "\q" for`)
	fmt.Println(`compile-cache counters, "\f n" to page results n rows at a time off`)
	fmt.Println(`the live cursor (\f 0 to turn paging off), "\d <dialect>" to switch`)
	fmt.Printf("query language (registered: %s), \"quit\" or \"exit\" to leave\n",
		strings.Join(dialectNames(), ", "))

	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	fetchSize := 0 // 0: materialize and align columns; n>0: page n rows at a time
	for {
		fmt.Print("sql> ")
		if !scanner.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(scanner.Text())
		switch {
		case line == "":
			continue
		case strings.EqualFold(line, "quit") || strings.EqualFold(line, "exit"):
			return
		case p == nil && (line == `\q` || line == `\src` || strings.HasPrefix(line, `\x `) ||
			strings.HasPrefix(line, `\c `) || strings.HasPrefix(line, `\p `)):
			fmt.Println(`\x, \c, \p, \q and \src read the in-process platform (run without -server)`)
		case line == `\d`:
			fmt.Printf("dialect: %s (registered: %s)\n", dialect, strings.Join(dialectNames(), ", "))
		case strings.HasPrefix(line, `\d `):
			name := strings.TrimSpace(strings.TrimPrefix(line, `\d `))
			d, ok := lookupDialect(name)
			if !ok {
				fmt.Printf("unknown dialect %q (registered: %s)\n", name, strings.Join(dialectNames(), ", "))
				continue
			}
			// Reopen the DSN with the dialect option: every connection the
			// pool hands out from here on parses in the chosen language.
			next, err := sql.Open("aqualogic", dsn+"?dialect="+string(d))
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			db.Close()
			db, dialect = next, d
			fmt.Printf("dialect: %s\n", dialect)
		case line == `\q`:
			cs := p.CompileStats()
			fmt.Printf("compile cache: hits=%d misses=%d shared=%d evictions=%d invalidations=%d\n",
				cs.Hits, cs.Misses, cs.Shared, cs.Evictions, cs.Invalidations)
			fmt.Printf("entries: %d/%d, metadata generation: %d\n", cs.Size, cs.MaxEntries, cs.Generation)
		case line == `\f`:
			if fetchSize > 0 {
				fmt.Printf("fetch size: %d rows per page\n", fetchSize)
			} else {
				fmt.Println("paging off (results materialize before printing)")
			}
		case strings.HasPrefix(line, `\f `):
			n, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(line, `\f `)))
			if err != nil || n < 0 {
				fmt.Println(`usage: \f <rows-per-page>   (0 turns paging off)`)
				continue
			}
			fetchSize = n
			if n == 0 {
				fmt.Println("paging off")
			} else {
				fmt.Printf("paging %d row(s) at a time\n", n)
			}
		case strings.HasPrefix(line, `\x `):
			cq, err := p.CompileDialect(context.Background(), dialect, strings.TrimPrefix(line, `\x `), aqualogic.ModeXML)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Println(cq.XQuery())
		case line == `\s` && stats != nil:
			renderRemoteStats(stats)
		case line == `\s`:
			p.Stats().Render(os.Stdout)
			cache, cs := p.MetadataStats(), p.CompileStats()
			fmt.Printf("platform metadata cache: hits=%d misses=%d\n", cache.Hits, cache.Misses)
			fmt.Printf("platform compile cache: hits=%d misses=%d shared=%d\n", cs.Hits, cs.Misses, cs.Shared)
		case line == `\r` && stats != nil:
			renderRemoteResilience(stats)
		case line == `\r`:
			p.Stats().RenderResilience(os.Stdout)
			cache := p.MetadataStats()
			fmt.Printf("metadata cache: stale serves=%d shared fetches=%d degraded=%v\n",
				cache.StaleServes, cache.Shared, cache.Degraded)
		case line == `\src`:
			health := p.FederationStats()
			if len(health) == 0 {
				fmt.Printf("single-source platform (%s): no federation registered\n", p.App.Name)
				continue
			}
			scans := p.Stats().SourceScans
			for _, h := range health {
				fmt.Printf("source %s: metadata generation=%d cache hits=%d misses=%d degraded=%v scans=%d\n",
					h.Name, h.Generation, h.Metadata.Hits, h.Metadata.Misses, h.Metadata.Degraded, scans[h.Name])
				svcs := make([]string, 0, len(h.Breakers))
				for svc := range h.Breakers {
					svcs = append(svcs, svc)
				}
				sort.Strings(svcs)
				for _, svc := range svcs {
					fmt.Printf("  breaker %s: %v\n", svc, h.Breakers[svc])
				}
			}
		case strings.HasPrefix(line, `\p `):
			cq, err := p.CompileDialect(context.Background(), dialect, strings.TrimPrefix(line, `\p `), aqualogic.ModeText)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("-- dialect: %s\n", cq.Dialect)
			for _, planLine := range cq.Plan.Describe() {
				fmt.Println(planLine)
			}
			fmt.Println("-- streaming: " + cq.Plan.Stream.Describe())
		case strings.HasPrefix(line, `\c `):
			cq, err := p.CompileDialect(context.Background(), dialect, strings.TrimPrefix(line, `\c `), aqualogic.ModeXML)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Print(cq.Res.Contexts.Tree())
		default:
			if err := runQuery(db, line, fetchSize, scanner); err != nil {
				fmt.Println("error:", err)
			}
		}
	}
}

// dialectNames lists the locally registered dialects.
func dialectNames() []string {
	ds := aqualogic.Dialects()
	names := make([]string, len(ds))
	for i, d := range ds {
		names[i] = string(d)
	}
	return names
}

// lookupDialect resolves a dialect name against the local registry
// ("" = sql).
func lookupDialect(name string) (aqualogic.Dialect, bool) {
	if name == "" {
		return aqualogic.DialectSQL, true
	}
	for _, d := range aqualogic.Dialects() {
		if string(d) == name {
			return d, true
		}
	}
	return "", false
}

func statsCtx() context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	_ = cancel // bounded by the timeout; the verb returns long before
	return ctx
}

// renderRemoteStats is the wire-mode \s: the server's pipeline metrics,
// session and cursor counters, and its platform's caches.
func renderRemoteStats(c *remoteclient.Client) {
	resp, err := c.ServerStats(statsCtx())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	resp.Pipeline.Render(os.Stdout)
	s := resp.Server
	fmt.Printf("server sessions: open=%d opened=%d reaped=%d; cursors: open=%d opened=%d reaped=%d\n",
		s.SessionsOpen, s.SessionsOpened, s.SessionsReaped, s.CursorsOpen, s.CursorsOpened, s.CursorsReaped)
	fmt.Printf("server queries: in-flight=%d peak=%d admission-rejected=%d\n",
		s.QueriesInFlight, s.PeakInFlight, s.AdmissionRejected)
	cs, md := resp.Compile, resp.Metadata
	fmt.Printf("server compile cache: hits=%d misses=%d shared=%d evictions=%d size=%d\n",
		cs.Hits, cs.Misses, cs.Shared, cs.Evictions, cs.Size)
	fmt.Printf("server metadata cache: hits=%d misses=%d stale serves=%d degraded=%v\n",
		md.Hits, md.Misses, md.StaleServes, md.Degraded)
}

// renderRemoteResilience is the wire-mode \r: the server's overload
// posture (weighted admission, queue, sheds by reason, idempotent
// replays, recovered panics) and its platform's defenses, then this
// shell's own: its client's breaker and retries.
func renderRemoteResilience(c *remoteclient.Client) {
	if resp, err := c.ServerStats(statsCtx()); err != nil {
		fmt.Println("error:", err)
	} else {
		s := resp.Server
		fmt.Printf("server admission: weighted in-flight %d/%d (peak %d), queue depth %d (peak %d)\n",
			s.WeightedInFlight, s.WeightedCapacity, s.WeightedPeak, s.QueueDepth, s.QueuePeak)
		fmt.Printf("server shed: queue-full=%d queue-timeout=%d\n", s.ShedQueueFull, s.ShedQueueTimeout)
		fmt.Printf("server replays: execute=%d fetch=%d; sessions open=%d cursors open=%d; panics recovered=%d\n",
			s.ExecReplays, s.FetchReplays, s.SessionsOpen, s.CursorsOpen, s.PanicsRecovered)
		resp.Pipeline.RenderResilience(os.Stdout)
	}
	br, r := c.Breaker(), remoteclient.Retries()
	opens, fastFails := br.Stats()
	fmt.Printf("client breaker: %s (opened=%d fast-fails=%d), retries=%d (rescued: %d)\n",
		br.State(), opens, fastFails, r.RemoteRetries, r.RemoteRetrySuccesses)
}

// runQuery prints a statement's result. With paging off it aligns the
// columns once every row has arrived; with paging on it prints rows
// straight off the streaming cursor, pageSize at a time: the first page
// appears while the evaluation is still running, and declining the next
// page closes the result set, which cancels the remaining evaluation.
func runQuery(db *sql.DB, query string, pageSize int, in *bufio.Scanner) error {
	rows, err := db.Query(query)
	if err != nil {
		return err
	}
	defer rows.Close()
	cols, err := rows.Columns()
	if err != nil {
		return err
	}
	if pageSize > 0 {
		fmt.Println(strings.Join(cols, " | "))
	}
	raw := make([]any, len(cols))
	for i := range raw {
		raw[i] = new(sql.NullString)
	}
	var table [][]string
	n := 0
	for rows.Next() {
		if err := rows.Scan(raw...); err != nil {
			return err
		}
		rec := make([]string, len(cols))
		for i := range raw {
			rec[i] = "NULL"
			if ns := raw[i].(*sql.NullString); ns.Valid {
				rec[i] = ns.String
			}
		}
		n++
		if pageSize == 0 {
			table = append(table, rec)
			continue
		}
		fmt.Println(strings.Join(rec, " | "))
		if n%pageSize == 0 {
			fmt.Printf("-- %d row(s) so far; Enter for next %d, q to stop -- ", n, pageSize)
			if !in.Scan() || strings.EqualFold(strings.TrimSpace(in.Text()), "q") {
				fmt.Printf("(%d row(s), rest of the query cancelled)\n", n)
				return rows.Close()
			}
		}
	}
	if err := rows.Err(); err != nil {
		return err
	}
	if pageSize == 0 {
		printTable(cols, table)
	}
	fmt.Printf("(%d row(s))\n", n)
	return nil
}

// printTable prints rows under their column labels, aligned.
func printTable(cols []string, table [][]string) {
	widths := make([]int, len(cols))
	for i, c := range cols {
		widths[i] = len(c)
	}
	for _, rec := range table {
		for i, v := range rec {
			widths[i] = max(widths[i], len(v))
		}
	}
	printRow := func(vals []string) {
		for i, v := range vals {
			if i > 0 {
				fmt.Print(" | ")
			}
			fmt.Printf("%-*s", widths[i], v)
		}
		fmt.Println()
	}
	printRow(cols)
	for i, w := range widths {
		if i > 0 {
			fmt.Print("-+-")
		}
		fmt.Print(strings.Repeat("-", w))
	}
	fmt.Println()
	for _, rec := range table {
		printRow(rec)
	}
}
