package wire

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// TestFetchResponseRoundTrip: text rows holding JSON's own metacharacters,
// control characters and the §4 delimiters come back byte for byte through
// the server's encoder (HTML escaping off) and through a default one.
func TestFetchResponseRoundTrip(t *testing.T) {
	in := FetchResponse{
		Rows: []string{
			`say "hi"<C:\dir\file<&null;`,
			"tab\tnl\ncr\r\x00\x01\x1f\x7f<<",
			"&lt;b&gt;<&amp;<&#xD;<&amp;#xD;",
			"",
			"café € <é> ü 😀\u2028\u2029",
		},
		Error: &Error{Kind: "transient", Op: "fetch", Msg: `cut <"short">`, RetryAfterMS: 5},
	}
	for _, escapeHTML := range []bool{false, true} {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(escapeHTML)
		if err := enc.Encode(in); err != nil {
			t.Fatal(err)
		}
		var out FetchResponse
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
