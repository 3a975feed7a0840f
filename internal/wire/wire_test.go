package wire

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/resultset"
	"repro/internal/xdm"
)

// edgeRows are §4 rows holding JSON's own metacharacters, control
// characters — a raw newline among them, after the envelope's own — the
// column delimiter and the escapes of the row delimiter.
var edgeRows = []string{
	`say "hi"<C:\dir\file<&null;`,
	"tab\tnl\ncr\r\x00\x01\x1f\x7f<<",
	"&lt;b&gt;<&amp;<&#xD;<&amp;#xD;",
	"",
	"café € <é&gt; ü 😀\u2028\u2029",
}

var edgeError = &Error{Kind: "transient", Op: "fetch", Msg: `cut <"short">`, RetryAfterMS: 5}

// roundTrip checks that in comes back equal through WriteBody and
// ReadBody, that its body is one envelope line then the rows' §4 payload
// byte for byte, and that '<' travels as one byte, not a JSON escape.
func roundTrip[T any, P interface {
	*T
	framed
}](t *testing.T, in T) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBody(&buf, P(&in)); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()
	envelope, payload, ok := bytes.Cut(body, []byte("\n"))
	rows := P(&in).chunk().Rows
	if want := ">" + strings.Join(rows, ">"); !ok || (len(rows) > 0 && string(payload) != want) || (len(rows) == 0 && len(payload) != 0) {
		t.Fatalf("body %q: want one envelope line, then %q", body, want)
	}
	if bytes.Contains(body, []byte(`\u003c`)) || bytes.Contains(envelope, []byte(`"rows"`)) {
		t.Fatalf("envelope %s: want no escaped '<' and no rows", envelope)
	}
	var out T
	if err := ReadBody(body, P(&out)); err != nil {
		t.Fatalf("decode %q: %v", body, err)
	}
	if len(rows) == 0 {
		P(&out).chunk().Rows = rows // nil and empty read alike
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip\ngot:  %#v\nwant: %#v", out, in)
	}
}

// TestFetchResponseRoundTrip: a fetch chunk's edge rows and its in-band
// error survive the writer and the reader, as does a bare EOF.
func TestFetchResponseRoundTrip(t *testing.T) {
	roundTrip(t, FetchResponse{Chunk: Chunk{Rows: edgeRows}, Error: edgeError})
	roundTrip(t, FetchResponse{EOF: true})
}

// TestExecuteResponseRoundTrip: the chunk an execute response carries —
// ending the stream at EOF or with an in-band error after its prefix, or
// leaving a cursor open — survives the writer and the reader with its
// schema.
func TestExecuteResponseRoundTrip(t *testing.T) {
	cols := []resultset.Column{
		{Label: `A<&>"`, ElementName: "A", Type: catalog.SQLVarchar, Nullable: true, Precision: 32},
		{Label: "B", ElementName: "B", Type: catalog.SQLDecimal, Precision: 10, Scale: 2},
	}
	roundTrip(t, ExecuteResponse{Columns: cols, Chunk: Chunk{Rows: edgeRows}, EOF: true})
	roundTrip(t, ExecuteResponse{Columns: cols, Chunk: Chunk{Rows: edgeRows[:2]}, Error: edgeError})
	roundTrip(t, ExecuteResponse{Cursor: 7, Columns: cols, Chunk: Chunk{Rows: edgeRows}})
}

// TestPlainBodies: every other message is one JSON line, read back as
// written.
func TestPlainBodies(t *testing.T) {
	var buf bytes.Buffer
	in := ErrorResponse{Error: edgeError}
	if err := WriteBody(&buf, in); err != nil {
		t.Fatal(err)
	}
	if ct := ContentType(in); ct != "application/json" || !bytes.HasSuffix(buf.Bytes(), []byte("}\n")) {
		t.Fatalf("body %q as %s: want one JSON line", buf.Bytes(), ct)
	}
	var out ErrorResponse
	if err := ReadBody(buf.Bytes(), &out); err != nil || !reflect.DeepEqual(out, in) {
		t.Fatalf("read %+v, %v; want %+v", out, err, in)
	}
	if ct := ContentType(&FetchResponse{}); ct != ChunkContentType {
		t.Fatalf("fetch content type %q", ct)
	}
}

// TestReadBodyRefusesDamage: a body whose payload disagrees with its
// envelope is an error, and the rows slice it was lent stays empty.
func TestReadBodyRefusesDamage(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBody(&buf, &FetchResponse{Chunk: Chunk{Rows: []string{"1<a", "2<b", "3<c"}}}); err != nil {
		t.Fatal(err)
	}
	good := buf.String()
	nl := strings.IndexByte(good, '\n')
	for name, body := range map[string]string{
		"last byte cut":        good[:len(good)-1],
		"last row cut at '>'":  good[:strings.LastIndexByte(good, '>')],
		"extra row":            good + ">4<d",
		"no line end":          good[:nl] + good[nl+1:],
		"count disagrees":      strings.Replace(good, `"row_count":3`, `"row_count":2`, 1),
		"length disagrees":     strings.Replace(good, `"row_bytes":12`, `"row_bytes":11`, 1),
		"payload without '>'":  strings.Replace(good, "\n>", "\nx", 1),
		"envelope cut":         good[:nl-1] + good[nl:],
		"empty":                "",
		"envelope only, short": good[:nl+1],
	} {
		if body == good {
			t.Fatalf("%s: the damage did not change the body", name)
		}
		out := FetchResponse{Chunk: Chunk{Rows: make([]string, 1, 4)}}
		if err := ReadBody([]byte(body), &out); err == nil || len(out.Rows) != 0 {
			t.Errorf("%s: read %q rows, err %v; want an error and no rows", name, out.Rows, err)
		}
	}
}

// FuzzChunkFrame: rows escaped as resultset's text encoder escapes them
// come back equal through WriteBody and ReadBody, and ReadBody given
// arbitrary bytes parses them or errors, never panics.
func FuzzChunkFrame(f *testing.F) {
	f.Add("1000<Acme<&null;", "x>y<z&w\r\n", 2, []byte("{\"row_count\":1,\"row_bytes\":2}\n>a"))
	f.Add("", "<", 0, []byte("{}\n"))
	f.Add("é", "\x00\n", 5, []byte("{\"row_count\":-1,\"row_bytes\":0}\n"))
	f.Fuzz(func(t *testing.T, a, b string, n int, raw []byte) {
		var out FetchResponse
		_ = ReadBody(raw, &out)
		var ex ExecuteResponse
		_ = ReadBody(raw, &ex)

		n = int(uint(n) % 8)
		rows := make([]string, n)
		for i := range rows {
			var row []byte
			for j, v := range []string{a, b, a + b} {
				if j > 0 {
					row = append(row, resultset.ColumnDelimiter...)
				}
				if (i+j)%4 == 3 {
					row = append(row, resultset.NullToken...)
				} else {
					row = xdm.AppendEscapedText(row, v)
				}
			}
			rows[i] = string(row)
		}
		in := FetchResponse{Chunk: Chunk{Rows: rows}, EOF: n%2 == 0}
		var buf bytes.Buffer
		if err := WriteBody(&buf, &in); err != nil {
			t.Fatal(err)
		}
		var got FetchResponse
		if err := ReadBody(buf.Bytes(), &got); err != nil {
			t.Fatalf("read back %q: %v", buf.Bytes(), err)
		}
		if len(got.Rows) != len(rows) || got.EOF != in.EOF {
			t.Fatalf("read %d rows, EOF %v; wrote %d, EOF %v", len(got.Rows), got.EOF, len(rows), in.EOF)
		}
		for i := range rows {
			if got.Rows[i] != rows[i] {
				t.Fatalf("row %d: read %q, wrote %q", i, got.Rows[i], rows[i])
			}
		}
	})
}

// TestReadRequestStrict: a request body with a field its type does not
// declare, or a second value, is refused; white space around the value is
// not, and a refused body leaves the next one unaffected.
func TestReadRequestStrict(t *testing.T) {
	for _, c := range []struct {
		body string
		ok   bool
	}{
		{`{"session":"s1","stmt":2}`, true},
		{` {"session":"s1"}` + "\n", true},
		{`{"session":"s1","mdoe":"xml"}`, false},
		{`{"session":"s1","dialect":"sql"}`, false},
		{`{"session":"s1"}{}`, false},
		{`{"session":"s1"}}`, false},
		{`{"session":"s1"`, false},
		{`{"session":"s1"}`, true},
	} {
		var req ExecuteRequest
		if err := ReadRequest([]byte(c.body), &req); (err == nil) != c.ok || c.ok && req.Session != "s1" {
			t.Errorf("%q: %+v, error %v; want accepted %v", c.body, req, err, c.ok)
		}
	}
}

// TestReadRequestAllocs: strict decoding costs a served request at most
// two allocations more than json.Unmarshal did.
func TestReadRequestAllocs(t *testing.T) {
	body := []byte(`{"session":"s000001","stmt":3,"args":[{"t":3,"v":"1000"}]}`)
	strict := testing.AllocsPerRun(200, func() {
		var req ExecuteRequest
		if err := ReadRequest(body, &req); err != nil {
			t.Fatal(err)
		}
	})
	lenient := testing.AllocsPerRun(200, func() {
		var req ExecuteRequest
		_ = json.Unmarshal(body, &req)
	})
	t.Logf("execute request: %.0f allocations strict, %.0f with json.Unmarshal", strict, lenient)
	if strict > lenient+2 {
		t.Errorf("strict decoding costs %.0f allocations, json.Unmarshal %.0f", strict, lenient)
	}
}
