package auditlog

import (
	"strconv"

	"crowdtopk/internal/crowd"
	"crowdtopk/internal/jsonl"
)

// appendRecordJSON renders one record exactly as encoding/json would —
// same field order, same float formatting — without reflection. The
// committer serializes every purchased microtask; on small machines its
// CPU time is the audit log's entire overhead, so the record line is the
// one encode worth hand-rolling. Byte equivalence with json.Marshal is
// pinned by TestAppendRecordJSONMatchesStdlib: segment hashes cover the
// line bytes, so the two encoders must never disagree. NaN/Inf never
// reach here — ValidateRecord rejects them first.
func appendRecordJSON(buf []byte, r crowd.Record) []byte {
	buf = append(buf, `{"round":`...)
	buf = strconv.AppendInt(buf, r.Round, 10)
	buf = append(buf, `,"i":`...)
	buf = strconv.AppendInt(buf, int64(r.I), 10)
	buf = append(buf, `,"j":`...)
	buf = strconv.AppendInt(buf, int64(r.J), 10)
	buf = append(buf, `,"value":`...)
	buf = jsonl.AppendFloat(buf, r.Value)
	return append(buf, '}')
}

// appendCheckpointJSON renders a checkpoint exactly as json.Marshal
// would. A checkpoint holds every folded value, so the reflective
// encoder's doubling buffer, which its pool keeps alive between folds,
// set a long-lived log's memory peak. Here the caller sizes buf once
// (checkpointSizeHint). Byte equivalence is pinned by
// TestAppendCheckpointJSONMatchesStdlib: the manifest pins the file's
// SHA-256.
func appendCheckpointJSON(buf []byte, doc *checkpointDoc) []byte {
	buf = append(buf, `{"kind":`...)
	buf = jsonl.AppendString(buf, doc.Kind)
	buf = append(buf, `,"upto":`...)
	buf = strconv.AppendInt(buf, int64(doc.UpTo), 10)
	buf = append(buf, `,"chain":`...)
	buf = jsonl.AppendString(buf, doc.Chain)
	buf = append(buf, `,"records":`...)
	buf = strconv.AppendInt(buf, doc.Records, 10)
	buf = append(buf, `,"pairs":`...)
	if doc.Pairs == nil {
		buf = append(buf, "null"...)
	} else {
		buf = append(buf, '[')
		for n, p := range doc.Pairs {
			if n > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, `{"i":`...)
			buf = strconv.AppendInt(buf, int64(p.I), 10)
			buf = append(buf, `,"j":`...)
			buf = strconv.AppendInt(buf, int64(p.J), 10)
			buf = append(buf, `,"values":`...)
			buf = appendJSONFloats(buf, p.Values)
			buf = append(buf, '}')
		}
		buf = append(buf, ']')
	}
	if len(doc.Grades) > 0 {
		buf = append(buf, `,"grades":[`...)
		for n, g := range doc.Grades {
			if n > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, `{"i":`...)
			buf = strconv.AppendInt(buf, int64(g.I), 10)
			buf = append(buf, `,"values":`...)
			buf = appendJSONFloats(buf, g.Values)
			buf = append(buf, '}')
		}
		buf = append(buf, ']')
	}
	return append(buf, '}')
}

// appendJSONFloats renders a float64 slice as encoding/json does: null
// for a nil slice, else a bracketed list.
func appendJSONFloats(buf []byte, vs []float64) []byte {
	if vs == nil {
		return append(buf, "null"...)
	}
	buf = append(buf, '[')
	for n, v := range vs {
		if n > 0 {
			buf = append(buf, ',')
		}
		buf = jsonl.AppendFloat(buf, v)
	}
	return append(buf, ']')
}

// checkpointSizeHint bounds the encoded size of doc from above for the
// values the audit log stores (pairwise preferences in [-1, 1], grades
// of similar magnitude print in at most ~24 bytes each), so one
// allocation usually holds the whole checkpoint.
func checkpointSizeHint(doc *checkpointDoc) int {
	return 128 + len(doc.Chain) + 48*(len(doc.Pairs)+len(doc.Grades)) + 24*int(doc.Records)
}
