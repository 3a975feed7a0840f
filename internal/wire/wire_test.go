package wire

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/catalog"
	"repro/internal/resultset"
)

// edgeRows are text rows holding JSON's own metacharacters, control
// characters and the §4 delimiters.
var edgeRows = []string{
	`say "hi"<C:\dir\file<&null;`,
	"tab\tnl\ncr\r\x00\x01\x1f\x7f<<",
	"&lt;b&gt;<&amp;<&#xD;<&amp;#xD;",
	"",
	"café € <é> ü 😀\u2028\u2029",
}

var edgeError = &Error{Kind: "transient", Op: "fetch", Msg: `cut <"short">`, RetryAfterMS: 5}

// roundTrip checks that in comes back byte for byte through the server's
// encoder (HTML escaping off) and through a default one.
func roundTrip[T any](t *testing.T, in T) {
	t.Helper()
	for _, escapeHTML := range []bool{false, true} {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(escapeHTML)
		if err := enc.Encode(in); err != nil {
			t.Fatal(err)
		}
		var out T
		if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
			t.Fatalf("escapeHTML=%v: decode %s: %v", escapeHTML, buf.Bytes(), err)
		}
		if !reflect.DeepEqual(out, in) {
			t.Fatalf("escapeHTML=%v: round trip\ngot:  %#v\nwant: %#v", escapeHTML, out, in)
		}
		if escaped := bytes.Contains(buf.Bytes(), []byte(`\u003c`)); escaped != escapeHTML {
			t.Fatalf("escapeHTML=%v: body %s", escapeHTML, buf.Bytes())
		}
	}
}

// TestFetchResponseRoundTrip: a fetch chunk's edge rows and its in-band
// error survive both encoders.
func TestFetchResponseRoundTrip(t *testing.T) {
	roundTrip(t, FetchResponse{Rows: edgeRows, Error: edgeError})
}

// TestExecuteResponseRoundTrip: the chunk an execute response carries —
// ending the stream at EOF or with an in-band error after its prefix, or
// leaving a cursor open — survives both encoders with its schema.
func TestExecuteResponseRoundTrip(t *testing.T) {
	cols := []resultset.Column{
		{Label: `A<&>"`, ElementName: "A", Type: catalog.SQLVarchar, Nullable: true, Precision: 32},
		{Label: "B", ElementName: "B", Type: catalog.SQLDecimal, Precision: 10, Scale: 2},
	}
	roundTrip(t, ExecuteResponse{Columns: cols, Rows: edgeRows, EOF: true})
	roundTrip(t, ExecuteResponse{Columns: cols, Rows: edgeRows[:2], Error: edgeError})
	roundTrip(t, ExecuteResponse{Cursor: 7, Columns: cols, Rows: edgeRows})
}
