// Package jsonl holds what the repository's JSON-lines files share: the
// float and string formatting of encoding/json, for encoders that write
// a hot line without reflection, and the torn-tail reader that loads
// such a file back.
package jsonl

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"strconv"
)

// AppendFloat formats f the way encoding/json formats a float64:
// shortest round-trip representation, %f for ordinary magnitudes, %e
// outside [1e-6, 1e21) with the exponent's leading zero trimmed.
// encoding/json refuses NaN and ±Inf; callers must reject them first.
func AppendFloat(buf []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	buf = strconv.AppendFloat(buf, f, format, -1, 64)
	if format == 'e' {
		// 1e+09 → 1e+9, matching encoding/json's cleanup.
		if n := len(buf); n >= 4 && buf[n-4] == 'e' && buf[n-2] == '0' {
			buf[n-2] = buf[n-1]
			buf = buf[:n-1]
		}
	}
	return buf
}

// AppendString renders s as encoding/json does. Printable ASCII that
// needs no escape is quoted as is; anything else (control bytes, quotes,
// HTML characters, non-ASCII) takes json.Marshal's path, which is rare
// for the names and digests these files carry.
func AppendString(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(buf, b...)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}

// maxLine caps one line; a longer one fails the read.
const maxLine = 4 * 1024 * 1024

// Read hands each non-blank line of r to decode, in order. decode parses
// and validates the line and reports whether it is good. Bad lines are
// tolerated only as a torn tail, the trace of a crash mid-append: once a
// good line follows bad ones, Read stops and returns the number of bad
// lines before it, and the caller must refuse the file rather than drop
// committed data (decode has already seen that good line, so whatever
// the caller built from the file is to be discarded). err is the
// reader's error, including a line over 4 MiB.
func Read(r io.Reader, decode func(line []byte) bool) (midFile int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLine)
	bad := 0
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if !decode(line) {
			bad++
			continue
		}
		if bad > 0 {
			return bad, nil
		}
	}
	return 0, sc.Err()
}
