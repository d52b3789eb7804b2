package jsonl

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestRead drives the torn-tail reader through the shapes a crash or a
// bad disk leaves: decode must see every non-blank line in file order,
// bad lines are forgiven only as a tail, and a good line after bad ones
// reports how many bad lines it followed.
func TestRead(t *testing.T) {
	long := `{"v":"` + strings.Repeat("x", maxLine) + `"}`
	for _, tc := range []struct {
		name    string
		in      string
		seen    []string // lines decode saw, in order
		midFile int
		wantErr bool
	}{
		{name: "empty", in: ""},
		{name: "clean", in: "{\"a\":1}\n{\"a\":2}\n", seen: []string{`{"a":1}`, `{"a":2}`}},
		{name: "no final newline", in: "{\"a\":1}\n{\"a\":2}", seen: []string{`{"a":1}`, `{"a":2}`}},
		{name: "blank lines skipped", in: "\n{\"a\":1}\n\n\n{\"a\":2}\n\n", seen: []string{`{"a":1}`, `{"a":2}`}},
		{name: "torn last line", in: "{\"a\":1}\n{\"a\":", seen: []string{`{"a":1}`, `{"a":`}},
		{name: "several torn lines", in: "{\"a\":1}\n{\"a\n}}\n{\"", seen: []string{`{"a":1}`, `{"a`, `}}`, `{"`}},
		{name: "torn then blank", in: "{\"a\":1}\n{\"a\n\n", seen: []string{`{"a":1}`, `{"a`}},
		{name: "one bad line then good", in: "{\"a\":1}\nxx\n{\"a\":3}\n{\"a\":4}\n", seen: []string{`{"a":1}`, "xx", `{"a":3}`}, midFile: 1},
		{name: "bad lines then good", in: "xx\n\nyy\nzz\n{\"a\":3}\n", seen: []string{"xx", "yy", "zz", `{"a":3}`}, midFile: 3},
		{name: "line over 4 MiB", in: "{\"a\":1}\n" + long + "\n", seen: []string{`{"a":1}`}, wantErr: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var seen []string
			mid, err := Read(strings.NewReader(tc.in), func(line []byte) bool {
				seen = append(seen, string(line))
				return json.Valid(line)
			})
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, want error %v", err, tc.wantErr)
			}
			if mid != tc.midFile {
				t.Fatalf("midFile = %d, want %d", mid, tc.midFile)
			}
			if !reflect.DeepEqual(seen, tc.seen) {
				t.Fatalf("decode saw %q, want %q", seen, tc.seen)
			}
		})
	}
}
