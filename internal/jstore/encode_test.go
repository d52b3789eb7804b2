package jstore_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"testing"

	"crowdtopk/internal/compare"
	"crowdtopk/internal/jstore"
)

// checkRecordJSON fails t unless the hand-rolled encoder and json.Marshal
// agree on r: the same bytes, or both refusing it.
func checkRecordJSON(t *testing.T, r jstore.Record) {
	t.Helper()
	want, err := json.Marshal(r)
	got, ok := jstore.AppendRecordJSON(nil, r)
	if ok != (err == nil) {
		t.Fatalf("encoders disagree on refusing %+v: hand-rolled ok=%v, stdlib err=%v", r, ok, err)
	}
	if ok && string(got) != string(want) {
		t.Fatalf("encoders disagree for %+v:\n  hand-rolled %s\n  stdlib      %s", r, got, want)
	}
}

// TestRecordJSONMatchesStdlib pins byte equivalence between the store's
// hand-rolled line encoder and encoding/json, which wrote every line
// before it: files written on either side of the change must not differ,
// and a file must never hold a line a stdlib reader would parse
// differently.
func TestRecordJSONMatchesStdlib(t *testing.T) {
	base := jstore.Record{Lo: 3, Hi: 17, Outcome: 1, N: 120, Mean: 0.31, M2: 14.2,
		BinN: 120, BinMean: 0.5, BinM2: 90, Confidence: 0.95, Seq: 42, UnixNano: 1760000000123456789}
	checkRecordJSON(t, base)
	checkRecordJSON(t, jstore.Record{}) // every field zero, both omitempty fields omitted

	for _, exh := range []bool{false, true} {
		for _, pol := range append(compare.PolicyNames(), "", "fixed", "<", ">", "&", `"`, `\`, "\x1f", "é", "\u2028", "\xff") {
			r := base
			r.Exhausted, r.Policy, r.Outcome = exh, pol, 0
			checkRecordJSON(t, r)
		}
	}

	values := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, -0.25, 1.0 / 3.0,
		1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), 9.999999e-7, 1e-7, -1e-7,
		1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), 9.99e20, -1e21, 1e22,
		5e-324, -5e-324, math.MaxFloat64, -math.MaxFloat64, 0.1, 0.30000000000000004,
		123456789.123456789, 1e100, -1e-100, 2.5e-10,
		math.NaN(), math.Inf(1), math.Inf(-1), // refused by both
	}
	for _, v := range values {
		for field := 0; field < 5; field++ {
			r := base
			*[...]*float64{&r.Mean, &r.M2, &r.BinMean, &r.BinM2, &r.Confidence}[field] = v
			checkRecordJSON(t, r)
		}
	}

	for _, r := range []jstore.Record{
		{Lo: math.MinInt, Hi: math.MaxInt, Outcome: -1, N: math.MaxInt, BinN: math.MinInt,
			Seq: math.MaxUint64, UnixNano: math.MaxInt64},
		{Lo: -1, Hi: 0, N: 1, Seq: 1 << 63, UnixNano: math.MinInt64},
	} {
		checkRecordJSON(t, r)
	}

	rng := rand.New(rand.NewSource(26))
	for n := 0; n < 5000; n++ {
		f := func() float64 { return math.Float64frombits(rng.Uint64()) }
		checkRecordJSON(t, jstore.Record{
			Lo: rng.Intn(1 << 20), Hi: rng.Intn(1 << 20), Outcome: rng.Intn(3) - 1, Exhausted: rng.Intn(2) == 0,
			N: rng.Int(), Mean: f(), M2: f(), BinN: rng.Int(), BinMean: f(), BinM2: f(), Confidence: f(),
			Policy: compare.PolicyNames()[rng.Intn(len(compare.PolicyNames()))],
			Seq:    rng.Uint64(), UnixNano: rng.Int63(),
		})
	}
}

// FuzzRecordJSON drives the encoder with arbitrary field values against
// json.Marshal.
func FuzzRecordJSON(f *testing.F) {
	f.Add(3, 17, 1, false, 120, 0.31, 14.2, 120, 0.5, 90.0, 0.95, "student", uint64(42), int64(1760000000123456789))
	f.Add(0, 0, 0, true, 0, math.Copysign(0, -1), 1e21, -1, 1e-6, 9.999999e-7, 1.0, "", uint64(math.MaxUint64), int64(math.MinInt64))
	f.Add(-5, 9, -1, false, 1<<40, 1e-7, math.MaxFloat64, 7, -1e22, 5e-324, 0.5, `<"\é>`, uint64(0), int64(0))
	f.Fuzz(func(t *testing.T, lo, hi, o int, exh bool, n int, mean, m2 float64, binN int,
		binMean, binM2, conf float64, pol string, seq uint64, at int64) {
		checkRecordJSON(t, jstore.Record{Lo: lo, Hi: hi, Outcome: o, Exhausted: exh, N: n, Mean: mean, M2: m2,
			BinN: binN, BinMean: binMean, BinM2: binM2, Confidence: conf, Policy: pol, Seq: seq, UnixNano: at})
	})
}

// fileDigest returns the hex SHA-256 of the file at path.
func fileDigest(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestCompactionGolden drives a FileStore through a fixed commit sequence
// — enough superseding commits of few pairs to compact automatically,
// then an explicit Compact — and pins the file's bytes at both points to
// digests recorded with the reflective encoder and sort.Slice, which
// wrote the store before the hand-rolled encoder and one-write
// compaction. A changed digest means the file format moved.
func TestCompactionGolden(t *testing.T) {
	const (
		afterCommits = "51f2d35ee60955efcf5825a245c2a14ea47b1ac8767e8914cd3699b1626a9607"
		afterCompact = "c0d093afe1cffa5093b21a85cae23c49dfd2925a9eea0dd8f7691cce2ae052b1"
	)
	path := t.TempDir() + "/golden.jsonl"
	fs, err := jstore.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pols := append(compare.PolicyNames(), "") // and records from before policies were named
	rng := rand.New(rand.NewSource(2601))
	const commits = 1500 // past the 1,024-line floor with 90 live pairs
	for c := 0; c < commits; c++ {
		lo := rng.Intn(9)
		hi := lo + 1 + rng.Intn(10)
		n := 30 + rng.Intn(1000)
		scale := math.Pow(10, float64(rng.Intn(36)-12)) // reaches %e on both sides of [1e-6, 1e21)
		r := jstore.Record{
			Lo: lo, Hi: hi, Outcome: rng.Intn(3) - 1, N: n,
			Mean: rng.Float64()*2 - 1, M2: rng.Float64() * scale,
			BinN: n, BinMean: rng.Float64()*2 - 1, BinM2: float64(n) * rng.Float64(),
			Confidence: []float64{0.9, 0.95, 0.98, 0.999}[rng.Intn(4)],
			Policy:     pols[rng.Intn(len(pols))],
			UnixNano:   1760000000000000000 + int64(c)*1234567,
		}
		r.Exhausted = r.Outcome == 0 && rng.Intn(2) == 0
		fs.Commit(r)
	}
	if got := fileDigest(t, path); got != afterCommits {
		t.Errorf("file after %d commits: sha256 %s, want %s", commits, got, afterCommits)
	}
	if err := fs.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := fileDigest(t, path); got != afterCompact {
		t.Errorf("file after Compact: sha256 %s, want %s", got, afterCompact)
	}
	want := fs.Snapshot()
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := jstore.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := re.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("reload holds %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("reloaded record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
