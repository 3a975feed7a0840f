package sqlparser

import (
	"strconv"
	"strings"

	"repro/internal/obsv"
	"repro/internal/qfront"
)

// Front is the SQL-92 query front end: stage one of the translation
// pipeline packaged behind the qfront.Frontend seam. It installs itself
// as qfront.Lookup's answer at init.
type Front struct{}

func init() { qfront.Register(Front{}) }

// Parse implements qfront.Frontend: syntactic recognition, observed as
// separate lex and parse spans (the spans the EXPLAIN stage trace has
// always shown for SQL statements).
func (Front) Parse(sql string, tr *obsv.Trace) (*qfront.SelectStmt, error) {
	sp := tr.StartStage(obsv.StageLex)
	sp.SetInput(len(sql))
	toks, err := Lex(sql)
	if err != nil {
		return nil, err
	}
	sp.SetOutput(len(toks))
	sp.End()

	sp = tr.StartStage(obsv.StageParse)
	sp.SetInput(len(toks))
	stmt, err := ParseTokens(toks)
	if err != nil {
		return nil, err
	}
	sp.Add("params", int64(stmt.ParamCount))
	sp.End()
	return stmt, nil
}

// Normalize implements qfront.Frontend: the compile-cache key form of a
// SQL statement. Lexing collapses whitespace, comments, and keyword /
// identifier case while preserving everything meaning-bearing (delimited
// identifiers keep case, literals keep exact text). Each token renders
// as type:len:text so no two distinct token streams collide.
func (Front) Normalize(sql string) (string, error) {
	toks, err := Lex(sql)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.Grow(len(sql) + len(toks)*4)
	for _, t := range toks {
		if t.Type == TokEOF {
			break
		}
		b.WriteString(strconv.Itoa(int(t.Type)))
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(len(t.Text)))
		b.WriteByte(':')
		b.WriteString(t.Text)
		b.WriteByte(' ')
	}
	return b.String(), nil
}
