// Package gen is the benchmark's seeded input generator and its answer
// checker. Everything the program under test receives — table rows,
// statement texts, parameter values — is drawn here from one seed with a
// local linear congruential generator (not math/rand, so the output is
// byte-identical across Go versions). Every statement's expected answer
// is computed here too, in plain Go straight from the generated rows:
// nested loops, maps and sorts, no XQuery and no product code, so a
// consistent mistranslation in the product cannot hide behind an oracle
// that shares its evaluator.
package gen

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Rand is a 64-bit LCG (Knuth's MMIX constants), high bits returned.
type Rand struct{ s uint64 }

// NewRand seeds a generator; equal seeds give equal streams.
func NewRand(seed uint64) *Rand {
	r := &Rand{s: seed*0x9E3779B97F4A7C15 + 0x1234567}
	r.Next()
	return r
}

// Next returns the next 31 high-quality bits.
func (r *Rand) Next() uint64 {
	r.s = r.s*6364136223846793005 + 1442695040888963407
	return r.s >> 33
}

// Intn returns a value in [0, n).
func (r *Rand) Intn(n int) int { return int(r.Next() % uint64(n)) }

// Kind is a column's value class; it fixes the SQL type the benchmark
// declares and how the checker canonicalizes lexical forms.
type Kind int

// Column kinds.
const (
	Int Kind = iota
	Str
	Dec // two decimals in the data; compared with trailing zeros trimmed
	Date
)

// Column is one column of a generated table.
type Column struct {
	Name     string
	Kind     Kind
	Nullable bool
}

// Table is generated relational data: Rows[i][j] is the lexical value of
// column j in row i, and the empty string is SQL NULL.
type Table struct {
	Path, Name string
	Cols       []Column
	Rows       [][]string
}

func (t *Table) col(name string) int {
	for i, c := range t.Cols {
		if c.Name == name {
			return i
		}
	}
	panic("gen: no column " + name + " in " + t.Name)
}

// Digest is an answer's fingerprint: the row count plus one checksum per
// output column and one over whole rows. Ordered digests depend on row
// order (the statement has a total ORDER BY); unordered ones do not.
type Digest struct {
	Rows int
	Sums []uint64
}

// Equal reports whether two digests describe the same answer.
func (d Digest) Equal(o Digest) bool {
	if d.Rows != o.Rows || len(d.Sums) != len(o.Sums) {
		return false
	}
	for i := range d.Sums {
		if d.Sums[i] != o.Sums[i] {
			return false
		}
	}
	return true
}

// Query is one statement text with the shape of its answer.
type Query struct {
	Class   string
	SQL     string
	XML     bool   // evaluate in XML result mode (else §4 text mode)
	Ordered bool   // the statement fixes a total row order
	Kinds   []Kind // output column kinds
}

// Call is one execution the benchmark issues: a query, its parameter
// values, and the digest the result must have.
type Call struct {
	Q    *Query
	Args []any
	Want Digest
}

// Hasher folds result rows into a Digest. The benchmark feeds it the
// product's output cell by cell; the generator feeds it expected rows.
type Hasher struct {
	q   *Query
	d   Digest
	row uint64
}

// NewHasher starts a digest for one result of q.
func (q *Query) NewHasher() *Hasher {
	return &Hasher{q: q, d: Digest{Sums: make([]uint64, len(q.Kinds)+1)}}
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
	nullHash  = 0x9ae16a3b2f90404f
)

// Cell adds the value of output column col of the current row.
func (h *Hasher) Cell(col int, v string, null bool) {
	x := uint64(nullHash)
	if !null {
		if h.q.Kinds[col] == Dec {
			v = trimDec(v)
		}
		x = fnvOffset
		for i := 0; i < len(v); i++ {
			x = (x ^ uint64(v[i])) * fnvPrime
		}
	}
	if h.q.Ordered {
		h.d.Sums[col] = h.d.Sums[col]*fnvPrime + x
	} else {
		h.d.Sums[col] += x
	}
	h.row = (h.row ^ x) * fnvPrime
}

// EndRow closes the current row.
func (h *Hasher) EndRow() {
	last := len(h.d.Sums) - 1
	if h.q.Ordered {
		h.d.Sums[last] = h.d.Sums[last]*fnvPrime + h.row
	} else {
		h.d.Sums[last] += h.row * (h.row | 1)
	}
	h.row = 0
	h.d.Rows++
}

// Digest returns the fingerprint of the rows added so far.
func (h *Hasher) Digest() Digest { return h.d }

func (q *Query) digest(rows [][]string) Digest {
	h := q.NewHasher()
	for _, r := range rows {
		for i, v := range r {
			h.Cell(i, v, v == "")
		}
		h.EndRow()
	}
	return h.Digest()
}

// trimDec is the decimal canonical form: rounded to the columns' two
// decimals, no trailing fractional zeros. The rounding is for the
// product's sake: its xs:decimal is a float64, so SUM over DECIMAL
// columns comes back as 85.19999999999999; the answer is checked to the
// cent, not to the representation.
func trimDec(s string) string {
	dot := strings.IndexByte(s, '.')
	if dot < 0 {
		return s
	}
	if len(s)-dot > 3 {
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			s = strconv.FormatFloat(math.Round(f*100)/100, 'f', 2, 64)
		}
	}
	s = strings.TrimRight(s, "0")
	return strings.TrimSuffix(s, ".")
}

func atoi(s string) int64 {
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		panic(err)
	}
	return n
}

// cents parses a generated decimal ("12.30") into hundredths.
func cents(s string) int64 {
	whole, frac, _ := strings.Cut(s, ".")
	frac = (frac + "00")[:2]
	return atoi(whole)*100 + atoi(frac)
}

func fmtCents(c int64) string { return fmt.Sprintf("%d.%02d", c/100, c%100) }

// num reads an Int or Dec cell as hundredths, so both compare exactly.
func num(k Kind, s string) int64 {
	if k == Dec {
		return cents(s)
	}
	return atoi(s) * 100
}

// ---- data sets ----

var words = []string{"alpha", "bravo", "delta", "echo", "gamma", "kilo", "lima", "sigma"}

// escText is appended to generated strings so every varchar needs XML
// escaping and carries both §4 text-mode delimiters.
const escText = " <R&D> 100%"

// Small builds the ad-hoc compile data: n tables T00… of 8 rows each with
// the same six columns. The tables are tiny on purpose — the workload
// measures compilation, so evaluation must cost little.
func Small(r *Rand, n int) []*Table {
	cols := []Column{
		{"ID", Int, false}, {"GRP", Int, false}, {"QTY", Int, true},
		{"NAME", Str, true}, {"AMT", Dec, true}, {"REF", Int, false},
	}
	out := make([]*Table, n)
	for t := range out {
		tb := &Table{Path: "Bench", Name: fmt.Sprintf("T%02d", t), Cols: cols}
		for _, id := range perm(r, 8) {
			row := []string{
				strconv.Itoa(id + 1), strconv.Itoa(r.Intn(3)), strconv.Itoa(r.Intn(10)),
				words[r.Intn(len(words))] + strconv.Itoa(r.Intn(4)) + escText,
				fmtCents(int64(100 + r.Intn(9900))), strconv.Itoa(1 + r.Intn(8)),
			}
			nullSome(r, cols, row)
			tb.Rows = append(tb.Rows, row)
		}
		out[t] = tb
	}
	return out
}

// Wide builds the scan table W: rows × 8 columns cycling int / varchar /
// decimal, one nullable cell in eight NULL. C0 is a permutation of
// 1…rows, so `C0 > t` selects exactly rows−t rows.
func Wide(r *Rand, rows int) *Table {
	tb := &Table{Path: "Bench", Name: "W"}
	for c := 0; c < 8; c++ {
		tb.Cols = append(tb.Cols, Column{"C" + strconv.Itoa(c), []Kind{Int, Str, Dec}[c%3], c > 0})
	}
	for _, k := range perm(r, rows) {
		row := make([]string, 8)
		row[0] = strconv.Itoa(k + 1)
		for c := 1; c < 8; c++ {
			switch tb.Cols[c].Kind {
			case Int:
				row[c] = strconv.Itoa(r.Intn(1000000))
			case Str:
				row[c] = words[r.Intn(len(words))] + "-" + strconv.Itoa(r.Intn(100000)) + escText
			case Dec:
				row[c] = fmtCents(int64(r.Intn(10000000)))
			}
		}
		nullSome(r, tb.Cols, row)
		tb.Rows = append(tb.Rows, row)
	}
	return tb
}

var (
	cities   = []string{"Springfield", "Riverton", "Lakeside", "Hillcrest", "Marble Falls", "Oak Grove", "Fairview", ""}
	statuses = []string{"OPEN", "SHIPPED", "CLOSED", "HOLD"}
	products = []string{"Widget", "Sprocket", "Gizmo", "Flange", "Gear", "Bracket", "Coupling"}
)

// Shop builds data shaped like the paper's example application:
// CUSTOMERS, PAYMENTS, PO_CUSTOMERS (orders) and PO_ITEMS, with customer
// ids from 1000 and order ids from 5000. The shape is the same for every
// seed, so that two seeds cost the same to query: every eighth customer
// has no order (the outer-join case) and the rest share the orders
// evenly; orders carry 1…5 items, by the buyer's place among the buyers
// and the round of the rotation, so that the sizes of the customers' order
// histories are the same multiset for every seed; statuses and cities (one
// of them NULL) come in equal parts. The seed decides who is who, and
// every value.
func Shop(r *Rand, customers, orders int) []*Table {
	date := func(y0 int) string {
		return fmt.Sprintf("200%d-%02d-%02d", y0+r.Intn(3), 1+r.Intn(12), 1+r.Intn(28))
	}
	cust := &Table{Path: "Shop", Name: "CUSTOMERS", Cols: []Column{
		{"CUSTOMERID", Int, false}, {"CUSTOMERNAME", Str, true}, {"CITY", Str, true}, {"SIGNUPDATE", Date, true}}}
	pay := &Table{Path: "Shop", Name: "PAYMENTS", Cols: []Column{
		{"PAYMENTID", Int, false}, {"CUSTID", Int, false}, {"PAYMENT", Dec, true}, {"PAYDATE", Date, true}}}
	ord := &Table{Path: "Shop", Name: "PO_CUSTOMERS", Cols: []Column{
		{"ORDERID", Int, false}, {"CUSTOMERID", Int, false}, {"ORDERDATE", Date, true}, {"STATUS", Str, true}, {"TOTAL", Dec, true}}}
	item := &Table{Path: "Shop", Name: "PO_ITEMS", Cols: []Column{
		{"ITEMID", Int, false}, {"ORDERID", Int, false}, {"PRODUCT", Str, true}, {"QUANTITY", Int, true}, {"PRICE", Dec, true}}}
	var buyers []string
	role := r.Perm(customers) // a customer's place in every rotation below
	for i := 0; i < customers; i++ {
		id := strconv.Itoa(1000 + i)
		name := words[r.Intn(len(words))] + " & " + products[r.Intn(len(products))] + " <" + strconv.Itoa(r.Intn(1000)) + ">"
		row := []string{id, name, cities[role[i]%len(cities)], date(0)}
		if role[i]%10 == 9 {
			row[3] = ""
		}
		cust.Rows = append(cust.Rows, row)
		if role[i]%8 != 7 {
			buyers = append(buyers, id)
		}
		for j := 0; j < role[i]%4; j++ {
			pay.Rows = append(pay.Rows, []string{strconv.Itoa(len(pay.Rows) + 1), id, fmtCents(int64(500 + r.Intn(100000))), date(3)})
		}
	}
	turn, state := r.Perm(orders), r.Perm(orders)
	for i := 0; i < orders; i++ {
		id := strconv.Itoa(5000 + i)
		buyer, round := turn[i]%len(buyers), turn[i]/len(buyers)
		ord.Rows = append(ord.Rows, []string{id, buyers[buyer], date(4),
			statuses[state[i]%len(statuses)], fmtCents(int64(1000 + r.Intn(500000)))})
		for j := 0; j <= (buyer+round)%5; j++ {
			item.Rows = append(item.Rows, []string{strconv.Itoa((5000+i)*100 + j), id, products[r.Intn(len(products))],
				strconv.Itoa(1 + r.Intn(20)), fmtCents(int64(100 + r.Intn(20000)))})
		}
	}
	return []*Table{cust, pay, ord, item}
}

// Perm returns a seeded permutation of 0…n−1. The workloads walk
// permutations where they could draw with replacement, so that every run
// uses each input equally often and runs differ only in order.
func (r *Rand) Perm(n int) []int { return perm(r, n) }

func perm(r *Rand, n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], i
	}
	return p
}

func nullSome(r *Rand, cols []Column, row []string) {
	for c := range row {
		if cols[c].Nullable && r.Intn(8) == 0 {
			row[c] = ""
		}
	}
}

// ---- plain-Go relational helpers (the oracle) ----

// pred is a WHERE fragment with its meaning. ok returns SQL "true" only:
// a comparison with NULL is false, which is exact because the generated
// predicates are never negated.
type pred struct {
	sql string
	ok  func(row []string) bool
}

func and(a, b pred) pred {
	return pred{a.sql + " AND " + b.sql, func(r []string) bool { return a.ok(r) && b.ok(r) }}
}

func or(a, b pred) pred {
	return pred{"(" + a.sql + " OR " + b.sql + ")", func(r []string) bool { return a.ok(r) || b.ok(r) }}
}

var cmpOps = []struct {
	sql string
	ok  func(a, b int64) bool
}{
	{"=", func(a, b int64) bool { return a == b }}, {"<>", func(a, b int64) bool { return a != b }},
	{"<", func(a, b int64) bool { return a < b }}, {"<=", func(a, b int64) bool { return a <= b }},
	{">", func(a, b int64) bool { return a > b }}, {">=", func(a, b int64) bool { return a >= b }},
}

// randPred draws a predicate over column c of t, written against the
// qualifier q ("" or "A."); off is the column's offset in the row the
// predicate will see (non-zero on the right side of a join). form (0…3)
// fixes the predicate's syntax — a NULL test, or per kind a comparison,
// BETWEEN, IN, equality or LIKE — and the seed fills in the operator and
// the literals, taken from values that occur so predicates select
// something.
func randPred(r *Rand, t *Table, c, form int, q string, off int) pred {
	col, name, at := t.Cols[c], q+t.Cols[c].Name, off+c
	sample := func() string {
		for tries := 0; tries < 64; tries++ {
			if v := t.Rows[r.Intn(len(t.Rows))][c]; v != "" {
				return v
			}
		}
		return map[Kind]string{Int: "1", Str: "none", Dec: "1.00", Date: "2000-01-01"}[col.Kind] // column all NULL
	}
	if col.Nullable && form == 3 {
		if r.Intn(2) == 0 {
			return pred{name + " IS NULL", func(row []string) bool { return row[at] == "" }}
		}
		return pred{name + " IS NOT NULL", func(row []string) bool { return row[at] != "" }}
	}
	switch col.Kind {
	case Str:
		v := sample()
		if form%2 == 0 {
			return pred{name + " = '" + v + "'", func(row []string) bool { return row[at] == v }}
		}
		pre := v[:1+r.Intn(4)]
		return pred{name + " LIKE '" + pre + "%'", func(row []string) bool { return strings.HasPrefix(row[at], pre) }}
	case Dec:
		lit := fmtCents(cents(sample()) + int64(r.Intn(200)))
		op := cmpOps[2+r.Intn(4)]
		return pred{name + " " + op.sql + " " + lit, func(row []string) bool { return row[at] != "" && op.ok(cents(row[at]), cents(lit)) }}
	}
	v := atoi(sample())
	switch form {
	case 0:
		lo, hi := v-int64(r.Intn(3)), v+int64(r.Intn(3))
		return pred{fmt.Sprintf("%s BETWEEN %d AND %d", name, lo, hi), func(row []string) bool {
			return row[at] != "" && atoi(row[at]) >= lo && atoi(row[at]) <= hi
		}}
	case 1:
		set := []int64{v, v + 1 + int64(r.Intn(3)), v - 1 - int64(r.Intn(3))}
		return pred{fmt.Sprintf("%s IN (%d, %d, %d)", name, set[0], set[1], set[2]), func(row []string) bool {
			return row[at] != "" && (atoi(row[at]) == set[0] || atoi(row[at]) == set[1] || atoi(row[at]) == set[2])
		}}
	}
	op := cmpOps[r.Intn(len(cmpOps))]
	return pred{fmt.Sprintf("%s %s %d", name, op.sql, v), func(row []string) bool { return row[at] != "" && op.ok(atoi(row[at]), v) }}
}

func filter(rows [][]string, p pred) [][]string {
	var out [][]string
	for _, r := range rows {
		if p.ok(r) {
			out = append(out, r)
		}
	}
	return out
}

// join is a nested-loop equi-join of a.ca = b.cb; rows are the two sides
// concatenated. With outer set, left rows without a match are padded with
// NULLs. NULL keys never match.
func join(a, b *Table, ca, cb int, outer bool) [][]string {
	var out [][]string
	for _, ra := range a.Rows {
		matched := false
		for _, rb := range b.Rows {
			if ra[ca] != "" && ra[ca] == rb[cb] {
				out = append(out, append(append([]string{}, ra...), rb...))
				matched = true
			}
		}
		if outer && !matched {
			out = append(out, append(append([]string{}, ra...), make([]string, len(b.Cols))...))
		}
	}
	return out
}

func project(rows [][]string, cols ...int) [][]string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = make([]string, len(cols))
		for j, c := range cols {
			out[i][j] = r[c]
		}
	}
	return out
}

// agg is one aggregate over a column (col < 0 is COUNT(*)).
type agg struct {
	fn   string // COUNT, SUM, MIN, MAX
	col  int
	kind Kind // of the aggregated column
}

func (a agg) outKind() Kind {
	if a.fn == "COUNT" {
		return Int
	}
	return a.kind
}

func (a agg) eval(rows [][]string) string {
	var n, acc int64
	for _, r := range rows {
		if a.col >= 0 && r[a.col] == "" {
			continue // aggregates skip NULLs
		}
		n++
		if a.fn == "COUNT" {
			continue
		}
		switch v := num(a.kind, r[a.col]); {
		case n == 1, a.fn == "MIN" && v < acc, a.fn == "MAX" && v > acc:
			acc = v
		case a.fn == "SUM":
			acc += v
		}
	}
	switch {
	case a.fn == "COUNT":
		return strconv.FormatInt(n, 10)
	case n == 0:
		return "" // SUM/MIN/MAX of nothing is NULL
	case a.kind == Dec:
		return fmtCents(acc)
	}
	return strconv.FormatInt(acc/100, 10)
}

// group evaluates GROUP BY key with the given aggregates; output rows are
// key followed by one value per aggregate, in first-appearance order.
func group(rows [][]string, key int, aggs []agg) [][]string {
	var keys []string
	parts := map[string][][]string{}
	for _, r := range rows {
		if _, ok := parts[r[key]]; !ok {
			keys = append(keys, r[key])
		}
		parts[r[key]] = append(parts[r[key]], r)
	}
	var out [][]string
	for _, k := range keys {
		row := []string{k}
		for _, a := range aggs {
			row = append(row, a.eval(parts[k]))
		}
		out = append(out, row)
	}
	return out
}

// sortRows orders by the given keys (negative index−1 = descending on
// that column). Cells compare numerically for Int/Dec kinds and as text
// otherwise; NULL sorts lowest, as the product's ORDER BY does.
func sortRows(rows [][]string, kinds []Kind, keys ...int) {
	sort.SliceStable(rows, func(i, j int) bool {
		for _, k := range keys {
			desc := k < 0
			if desc {
				k = -k - 1
			}
			a, b := rows[i][k], rows[j][k]
			var c int
			switch {
			case a == b:
				continue
			case a == "":
				c = -1
			case b == "":
				c = 1
			case kinds[k] == Int || kinds[k] == Dec:
				c = 1
				if num(kinds[k], a) < num(kinds[k], b) {
					c = -1
				}
			default:
				c = strings.Compare(a, b)
			}
			return (c < 0) != desc
		}
		return false
	})
}

func desc(col int) int { return -col - 1 }
