package auditlog

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"crowdtopk/internal/crowd"
)

// TestAppendRecordJSONMatchesStdlib pins byte equivalence between the
// hand-rolled record encoder and encoding/json. Segment Merkle leaves
// hash the line bytes, so a single divergent byte would make every new
// directory unverifiable by a stdlib-based reader — this test is the
// contract that lets writeBatch skip reflection.
func TestAppendRecordJSONMatchesStdlib(t *testing.T) {
	check := func(r crowd.Record) {
		t.Helper()
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		got := appendRecordJSON(nil, r)
		if string(got) != string(want) {
			t.Fatalf("encoders disagree for %+v:\n  hand-rolled %s\n  stdlib      %s", r, got, want)
		}
	}

	values := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, -0.25, 1.0 / 3.0,
		1e-6, 9.999999e-7, 1e-7, -1e-7, 1e21, 9.99e20, -1e21, 1e22,
		5e-324, -5e-324, math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, 0.1, 0.2, 0.30000000000000004,
		123456789.123456789, 1e100, -1e-100, 2.5e-10,
	}
	for _, v := range values {
		check(crowd.Record{Round: 3, I: 1, J: 2, Value: v})
	}
	check(crowd.Record{Round: 0, I: 0, J: -1, Value: 4})
	check(crowd.Record{Round: math.MaxInt64, I: math.MaxInt32, J: math.MaxInt32, Value: -0.125})

	rng := rand.New(rand.NewSource(11))
	for n := 0; n < 5000; n++ {
		v := math.Float64frombits(rng.Uint64())
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue // ValidateRecord rejects these before encoding
		}
		check(crowd.Record{Round: rng.Int63n(1 << 40), I: rng.Intn(1 << 20), J: rng.Intn(1 << 20), Value: v})
	}
}

// TestAppendCheckpointJSONMatchesStdlib pins byte equivalence between the
// hand-rolled checkpoint encoder and json.Marshal, which wrote every
// checkpoint before it: the manifest pins each checkpoint's SHA-256, so
// a divergent byte would change the files a fold writes.
func TestAppendCheckpointJSONMatchesStdlib(t *testing.T) {
	check := func(doc *checkpointDoc) {
		t.Helper()
		want, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		got := appendCheckpointJSON(nil, doc)
		if string(got) != string(want) {
			t.Fatalf("encoders disagree:\n  hand-rolled %s\n  stdlib      %s", got, want)
		}
		if hint := checkpointSizeHint(doc); len(got) > hint && doc.Records > 0 && len(doc.Grades) == 0 {
			t.Errorf("size hint %d below the encoded %d bytes", hint, len(got))
		}
	}

	check(&checkpointDoc{Kind: "checkpoint"}) // nil pairs, no grades
	check(&checkpointDoc{Kind: "checkpoint", UpTo: 1, Chain: "00", Pairs: []checkpointPair{}})
	check(&checkpointDoc{Kind: "checkpoint", UpTo: 2, Chain: "ab", Records: 1,
		Pairs:  []checkpointPair{{I: 0, J: 1, Values: nil}, {I: 0, J: 2, Values: []float64{}}},
		Grades: []checkpointGrade{{I: 3, Values: nil}, {I: 4, Values: []float64{}}}})
	check(&checkpointDoc{Kind: `<&"\` + "\x00é", Chain: " "})

	rng := rand.New(rand.NewSource(12))
	edge := []float64{0, math.Copysign(0, -1), 1, -1, 1e-6, 9.999999e-7, -1e-7, 1.0 / 3.0, -0.30000000000000004, 5e-324}
	for n := 0; n < 300; n++ {
		doc := &checkpointDoc{Kind: "checkpoint", UpTo: rng.Intn(1 << 20), Chain: "9f86d081884c7d65"}
		pairs, grades := rng.Intn(8), rng.Intn(3)
		if pairs > 0 || rng.Intn(2) == 0 {
			doc.Pairs = []checkpointPair{}
		}
		value := func() float64 {
			if rng.Intn(4) == 0 {
				return edge[rng.Intn(len(edge))]
			}
			return 2*rng.Float64() - 1
		}
		for p := 0; p < pairs; p++ {
			vs := make([]float64, 1+rng.Intn(40))
			for k := range vs {
				vs[k] = value()
			}
			doc.Pairs = append(doc.Pairs, checkpointPair{I: p, J: p + 1 + rng.Intn(50), Values: vs})
			doc.Records += int64(len(vs))
		}
		for g := 0; g < grades; g++ {
			vs := []float64{math.Float64frombits(rng.Uint64() &^ (0x7ff << 52)), value()}
			doc.Grades = append(doc.Grades, checkpointGrade{I: g, Values: vs})
			doc.Records += int64(len(vs))
		}
		check(doc)
	}
}
