package gen

import (
	"fmt"
	"strings"
)

// Classes are the seven statement shapes of the ad-hoc workload (the
// paper's example span, as in the repo's P2 experiment).
var Classes = []string{"simple", "filter", "join", "subquery", "grouped", "outerjoin", "complex"}

// Adhoc draws n distinct statements over the Small tables. Statement i has
// class i mod 7 and, within its class, a structure fixed by its ordinal —
// how many columns, which kinds of predicate, which aggregate, HAVING and
// ORDER BY or not — so every seed compiles the same mix of shapes. The
// seed chooses the tables, the columns and every operator and literal.
// Each call carries the answer computed from the rows.
func Adhoc(r *Rand, tabs []*Table, n int) []Call {
	seen := map[string]bool{}
	calls := make([]Call, 0, n)
	for len(calls) < n {
		i := len(calls)
		q, rows := adhocStmt(r, tabs, Classes[i%len(Classes)], shape(i/len(Classes)))
		if seen[q.SQL] {
			continue
		}
		seen[q.SQL] = true
		calls = append(calls, Call{Q: q, Want: q.digest(rows)})
	}
	return calls
}

// shape is a statement's ordinal within its class, read as mixed-radix
// digits: each structural choice takes the next digit.
type shape int

func (s *shape) pick(n int) int {
	d := int(*s) % n
	*s /= shape(n)
	return d
}

func adhocStmt(r *Rand, tabs []*Table, class string, sh shape) (*Query, [][]string) {
	whole := sh
	a := tabs[r.Intn(len(tabs))]
	b := tabs[r.Intn(len(tabs))]
	for b == a {
		b = tabs[r.Intn(len(tabs))]
	}
	na := len(a.Cols)
	q := &Query{Class: class}
	// pick draws k distinct column positions of one table.
	pick := func(k int) []int { return perm(r, na)[:k] }
	names := func(t *Table, qual string, cols []int) string {
		s := make([]string, len(cols))
		for i, c := range cols {
			s[i] = qual + t.Cols[c].Name
		}
		return strings.Join(s, ", ")
	}
	kinds := func(t *Table, cols []int) []Kind {
		k := make([]Kind, len(cols))
		for i, c := range cols {
			k[i] = t.Cols[c].Kind
		}
		return k
	}
	id, grp, qty, ref := a.col("ID"), a.col("GRP"), a.col("QTY"), a.col("REF")

	switch class {
	case "simple":
		cols := pick(2 + sh.pick(3))
		q.SQL = "SELECT " + names(a, "", cols) + " FROM " + a.Name
		q.Kinds = kinds(a, cols)
		return q, project(a.Rows, cols...)

	case "filter":
		connect := []func(a, b pred) pred{and, or}[sh.pick(2)]
		cols := pick(2 + sh.pick(3))
		f1, f2 := sh.pick(4), sh.pick(4) // the forms vary fastest, the columns slowest
		p := connect(randPred(r, a, sh.pick(na), f1, "", 0), randPred(r, a, sh.pick(na), f2, "", 0))
		q.SQL = "SELECT " + names(a, "", cols) + " FROM " + a.Name + " WHERE " + p.sql
		q.Kinds = kinds(a, cols)
		return q, project(filter(a.Rows, p), cols...)

	case "join", "outerjoin":
		ca, cb, kw := ref, id, "INNER"
		if class == "outerjoin" {
			kw = "LEFT OUTER"
			ca, cb = []int{ref, grp, qty}[sh.pick(3)], []int{id, grp, qty}[sh.pick(3)]
		}
		left, right := pick(1+sh.pick(2)), pick(1+sh.pick(2))
		// The filter reads the left side only, so outer-join padding and
		// WHERE do not interact.
		p := randPred(r, a, sh.pick(na), sh.pick(4), "A.", 0)
		q.SQL = fmt.Sprintf("SELECT %s, %s FROM %s A %s JOIN %s B ON A.%s = B.%s WHERE %s",
			names(a, "A.", left), names(b, "B.", right), a.Name, kw, b.Name, a.Cols[ca].Name, b.Cols[cb].Name, p.sql)
		out := append([]int{}, left...)
		for _, c := range right {
			out = append(out, na+c)
		}
		q.Kinds = append(kinds(a, left), kinds(b, right)...)
		return q, project(filter(join(a, b, ca, cb, class == "outerjoin"), p), out...)

	case "subquery":
		x, y := []int{id, grp, ref, qty}[sh.pick(4)], sh.pick(na)
		inner := randPred(r, a, sh.pick(na), sh.pick(4), "", 0)
		derived := &Table{Cols: []Column{{"X", a.Cols[x].Kind, true}, {"Y", a.Cols[y].Kind, true}},
			Rows: project(filter(a.Rows, inner), x, y)}
		if allNull(derived.Rows, 0) {
			return adhocStmt(r, tabs, class, whole) // nothing for the outer predicate to sample; draw other tables
		}
		outer := randPred(r, derived, 0, sh.pick(4), "S.", 0)
		q.SQL = fmt.Sprintf("SELECT S.X, S.Y FROM (SELECT %s X, %s Y FROM %s WHERE %s) AS S WHERE %s",
			a.Cols[x].Name, a.Cols[y].Name, a.Name, inner.sql, outer.sql)
		q.Kinds = []Kind{a.Cols[x].Kind, a.Cols[y].Kind}
		return q, filter(derived.Rows, outer)

	case "grouped":
		ag := randAgg(&sh, a, 0)
		rows, where := a.Rows, ""
		if sh.pick(2) == 0 {
			p := randPred(r, a, sh.pick(na), sh.pick(4), "", 0)
			rows, where = filter(rows, p), " WHERE "+p.sql
		}
		out := group(rows, grp, []agg{{fn: "COUNT", col: -1}, ag})
		having := ""
		if k := sh.pick(3); k > 0 {
			having = fmt.Sprintf(" HAVING COUNT(*) > %d", k-1)
			out = filter(out, pred{ok: func(row []string) bool { return atoi(row[1]) > int64(k-1) }})
		}
		q.Kinds = []Kind{Int, Int, ag.outKind()}
		order := ""
		if sh.pick(2) == 0 {
			order, q.Ordered = " ORDER BY CNT DESC, GRP", true
			sortRows(out, q.Kinds, desc(1), 0)
		}
		q.SQL = fmt.Sprintf("SELECT GRP, COUNT(*) CNT, %s(%s) V FROM %s%s GROUP BY GRP%s%s",
			ag.fn, a.Cols[ag.col].Name, a.Name, where, having, order)
		return q, out

	default: // complex: join + filter + group + order
		ag := randAgg(&sh, b, na)
		g0, g1 := r.Intn(3), r.Intn(3)
		in := pred{fmt.Sprintf("B.GRP IN (%d, %d)", g0, g1), func(row []string) bool {
			return atoi(row[na+grp]) == int64(g0) || atoi(row[na+grp]) == int64(g1)
		}}
		p := and(in, randPred(r, a, sh.pick(na), sh.pick(4), "A.", 0))
		out := group(filter(join(a, b, ref, id, false), p), grp, []agg{{fn: "COUNT", col: -1}, ag})
		q.Kinds, q.Ordered = []Kind{Int, Int, ag.outKind()}, true
		sortRows(out, q.Kinds, desc(1), 0)
		q.SQL = fmt.Sprintf("SELECT A.GRP, COUNT(*) CNT, %s(B.%s) M FROM %s A INNER JOIN %s B ON A.REF = B.ID WHERE %s GROUP BY A.GRP ORDER BY CNT DESC, A.GRP",
			ag.fn, b.Cols[ag.col-na].Name, a.Name, b.Name, p.sql)
		return q, out
	}
}

// randAgg takes the shape's aggregate over a numeric column of t, whose
// columns start at offset off in the rows it will see.
func randAgg(sh *shape, t *Table, off int) agg {
	c := []int{t.col("QTY"), t.col("AMT"), t.col("ID")}[sh.pick(3)]
	return agg{fn: []string{"COUNT", "SUM", "MIN", "MAX"}[sh.pick(4)], col: off + c, kind: t.Cols[c].Kind}
}

func allNull(rows [][]string, c int) bool {
	for _, r := range rows {
		if r[c] != "" {
			return false
		}
	}
	return true
}

// ScanSQL is the streamed scan: four of W's eight columns, an int, a
// varchar that needs escaping, a decimal and a second varchar.
const ScanSQL = "SELECT C0, C1, C2, C4 FROM W WHERE C0 > ?"

// Scan draws the scan's parameter variants: thresholds under a tenth of
// the table, so between 90 % and 100 % of the rows qualify. The draws are
// stratified — one per equal slice of that range, in seeded order — so
// every seed's variants select the same number of rows in total.
func Scan(r *Rand, w *Table, variants int) []Call {
	q := &Query{Class: "scan", SQL: ScanSQL, Kinds: []Kind{Int, Str, Dec, Str}}
	calls := make([]Call, variants)
	for i, slot := range r.Perm(variants) {
		t := stratum(r, slot, variants, len(w.Rows)/10)
		p := pred{ok: func(row []string) bool { return atoi(row[0]) > int64(t) }}
		calls[i] = Call{Q: q, Args: []any{t}, Want: q.digest(project(filter(w.Rows, p), 0, 1, 2, 4))}
	}
	return calls
}

// Reports draws the three XML-mode statements of the join/group workload
// over Shop data, each with its parameter variants: a grouped, ordered
// revenue report; a left outer join that NULL-pads customers without
// orders; a NOT EXISTS drill.
func Reports(r *Rand, shop []*Table, variants int) [3][]Call {
	cust, ord := shop[0], shop[2]
	nc := len(cust.Cols)
	joined := join(cust, ord, cust.col("CUSTOMERID"), ord.col("CUSTOMERID"), false)
	status, total, city := nc+ord.col("STATUS"), nc+ord.col("TOTAL"), cust.col("CITY")

	report := &Query{Class: "report", XML: true, Ordered: true, Kinds: []Kind{Str, Int, Dec, Dec},
		SQL: "SELECT C.CITY, COUNT(*) CNT, SUM(O.TOTAL) REVENUE, MAX(O.TOTAL) TOP" +
			" FROM CUSTOMERS C INNER JOIN PO_CUSTOMERS O ON C.CUSTOMERID = O.CUSTOMERID" +
			" WHERE O.STATUS IN ('OPEN', 'SHIPPED') GROUP BY C.CITY HAVING COUNT(*) > ? ORDER BY CNT DESC, C.CITY"}
	open := filter(joined, pred{ok: func(row []string) bool { return row[status] == "OPEN" || row[status] == "SHIPPED" }})
	groups := group(open, city, []agg{{fn: "COUNT", col: -1}, {"SUM", total, Dec}, {"MAX", total, Dec}})
	sortRows(groups, report.Kinds, desc(1), 0)
	perCity := len(open) / 8

	outer := &Query{Class: "outer", XML: true, Kinds: []Kind{Int, Str, Int, Dec},
		SQL: "SELECT C.CUSTOMERID, C.CUSTOMERNAME, O.ORDERID, O.TOTAL" +
			" FROM CUSTOMERS C LEFT OUTER JOIN PO_CUSTOMERS O ON C.CUSTOMERID = O.CUSTOMERID WHERE C.CUSTOMERID >= ?"}
	padded := join(cust, ord, cust.col("CUSTOMERID"), ord.col("CUSTOMERID"), true)

	drill := &Query{Class: "drill", XML: true, Kinds: []Kind{Int, Str},
		SQL: "SELECT C.CUSTOMERID, C.CUSTOMERNAME FROM CUSTOMERS C WHERE NOT EXISTS" +
			" (SELECT 1 FROM PO_CUSTOMERS O WHERE O.CUSTOMERID = C.CUSTOMERID AND O.TOTAL > ?)"}

	var out [3][]Call
	for _, slot := range r.Perm(variants) {
		// Most cities pass the HAVING floor; which ones depends on the draw.
		floor := perCity*6/10 + stratum(r, slot, variants, perCity/2)
		out[0] = append(out[0], Call{Q: report, Args: []any{floor},
			Want: report.digest(filter(groups, pred{ok: func(row []string) bool { return atoi(row[1]) > int64(floor) }}))})

		// Skip at most the first twentieth of the customers.
		from := 1000 + stratum(r, slot, variants, len(cust.Rows)/20)
		out[1] = append(out[1], Call{Q: outer, Args: []any{from},
			Want: outer.digest(project(filter(padded, pred{ok: func(row []string) bool { return atoi(row[0]) >= int64(from) }}),
				0, 1, nc+ord.col("ORDERID"), total))})

		limit := 500 + stratum(r, slot, variants, 4000)
		big := map[string]bool{} // customers with an order above the limit
		for _, o := range ord.Rows {
			if t := o[ord.col("TOTAL")]; t != "" && cents(t) > int64(limit)*100 {
				big[o[ord.col("CUSTOMERID")]] = true
			}
		}
		out[2] = append(out[2], Call{Q: drill, Args: []any{limit},
			Want: drill.digest(project(filter(cust.Rows, pred{ok: func(row []string) bool { return !big[row[0]] }}), 0, 1))})
	}
	return out
}

// stratum draws from the slot-th of n equal slices of [0, width].
func stratum(r *Rand, slot, n, width int) int {
	lo, hi := slot*width/n, (slot+1)*width/n
	return lo + r.Intn(hi-lo+1)
}

// Lookups draws the served point workload's two prepared statements over
// Shop data, one call per customer: a one-row lookup by key and a drill
// into that customer's order items.
func Lookups(shop []*Table) (point, drill []Call) {
	cust, ord, item := shop[0], shop[2], shop[3]
	pq := &Query{Class: "point", Kinds: []Kind{Int, Str, Str, Date},
		SQL: "SELECT CUSTOMERID, CUSTOMERNAME, CITY, SIGNUPDATE FROM CUSTOMERS WHERE CUSTOMERID = ?"}
	dq := &Query{Class: "drill", Kinds: []Kind{Int, Str, Str, Int, Dec},
		SQL: "SELECT O.ORDERID, O.STATUS, I.PRODUCT, I.QUANTITY, I.PRICE" +
			" FROM PO_CUSTOMERS O INNER JOIN PO_ITEMS I ON O.ORDERID = I.ORDERID WHERE O.CUSTOMERID = ?"}
	no := len(ord.Cols)
	lines := join(ord, item, ord.col("ORDERID"), item.col("ORDERID"), false)
	for _, c := range cust.Rows {
		id := c[0]
		point = append(point, Call{Q: pq, Args: []any{int(atoi(id))}, Want: pq.digest([][]string{c})})
		mine := filter(lines, pred{ok: func(row []string) bool { return row[ord.col("CUSTOMERID")] == id }})
		drill = append(drill, Call{Q: dq, Args: []any{int(atoi(id))},
			Want: dq.digest(project(mine, 0, ord.col("STATUS"), no+item.col("PRODUCT"), no+item.col("QUANTITY"), no+item.col("PRICE")))})
	}
	return point, drill
}
