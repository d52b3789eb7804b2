package auditlog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"crowdtopk/internal/crowd"
	"crowdtopk/internal/lockfile"
)

// mkRecords builds a deterministic record stream over a handful of pairs
// (and one graded item), exercising interleavings the checkpoint fold
// must preserve per pair.
func mkRecords(n int) []crowd.Record {
	pairs := [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 5}}
	recs := make([]crowd.Record, 0, n)
	for t := 0; t < n; t++ {
		if t%7 == 6 {
			recs = append(recs, crowd.Record{Round: int64(t / 5), I: t % 3, J: -1, Value: float64(t%11) / 2})
			continue
		}
		p := pairs[t%len(pairs)]
		v := float64(t%19)/9.5 - 1 // in [-1, 1]
		recs = append(recs, crowd.Record{Round: int64(t / 5), I: p[0], J: p[1], Value: v})
	}
	return recs
}

// appendAll streams recs into l in small batches, flushing at the end.
func appendAll(t testing.TB, l *Log, recs []crowd.Record) {
	t.Helper()
	for i := 0; i < len(recs); i += 3 {
		end := i + 3
		if end > len(recs) {
			end = len(recs)
		}
		l.Append(recs[i:end])
	}
	if err := l.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
}

// perPair collects each pair's (and graded item's) value sequence in
// stream order — the only structure replay depends on.
func perPair(recs []crowd.Record) map[[2]int][]float64 {
	m := make(map[[2]int][]float64)
	for _, r := range recs {
		k := sinkKey(r)
		m[k] = append(m[k], r.Value)
	}
	return m
}

func samePairStreams(t *testing.T, want, got []crowd.Record) {
	t.Helper()
	w, g := perPair(want), perPair(got)
	if len(w) != len(g) {
		t.Fatalf("pair count mismatch: want %d, got %d", len(w), len(g))
	}
	for k, ws := range w {
		gs := g[k]
		if len(ws) != len(gs) {
			t.Fatalf("pair %v: want %d values, got %d", k, len(ws), len(gs))
		}
		for i := range ws {
			if ws[i] != gs[i] {
				t.Fatalf("pair %v value %d: want %v, got %v", k, i, ws[i], gs[i])
			}
		}
	}
}

func TestRoundTripExactOrder(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncOff, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	recs := mkRecords(100)
	appendAll(t, l, recs)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Without compaction the exact global order survives, not just the
	// per-pair streams.
	if len(got) != len(recs) {
		t.Fatalf("loaded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], recs[i])
		}
	}
}

func TestRotationSealsAndChains(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentMaxRecords: 8, Sync: SyncOff, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	recs := mkRecords(50)
	appendAll(t, l, recs)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seqs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) < 5 {
		t.Fatalf("expected several sealed segments, found %d", len(seqs))
	}
	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("verify failed: first bad %s: %+v", rep.FirstBad, rep.Elements)
	}
	if rep.Records != int64(len(recs)) {
		t.Fatalf("verify covered %d records, want %d", rep.Records, len(recs))
	}
}

func TestCheckpointFoldEquivalence(t *testing.T) {
	// The same stream through a folding log and a non-folding log must
	// load back with identical per-pair value sequences — the checkpoint
	// loses nothing replay can observe.
	recs := mkRecords(120)
	folded, plain := t.TempDir(), t.TempDir()

	lf, err := Open(folded, Options{SegmentMaxRecords: 8, CompactEvery: 2, Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, lf, recs)
	if err := lf.Close(); err != nil {
		t.Fatal(err)
	}
	lp, err := Open(plain, Options{SegmentMaxRecords: 8, CompactEvery: -1, Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, lp, recs)
	if err := lp.Close(); err != nil {
		t.Fatal(err)
	}

	ckpts, err := listCheckpoints(folded)
	if err != nil || len(ckpts) == 0 {
		t.Fatalf("folding log wrote no checkpoint (err %v)", err)
	}
	gotF, err := Load(folded)
	if err != nil {
		t.Fatal(err)
	}
	gotP, err := Load(plain)
	if err != nil {
		t.Fatal(err)
	}
	samePairStreams(t, recs, gotF)
	samePairStreams(t, recs, gotP)
	for _, dir := range []string{folded, plain} {
		rep, err := Verify(dir)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK {
			t.Fatalf("%s: verify failed at %s", dir, rep.FirstBad)
		}
	}
}

func TestReopenContinuesChain(t *testing.T) {
	dir := t.TempDir()
	recs := mkRecords(90)
	// Three sessions, each appending a third, mixed fold settings.
	for s := 0; s < 3; s++ {
		l, err := Open(dir, Options{SegmentMaxRecords: 7, CompactEvery: 3, Sync: SyncOff})
		if err != nil {
			t.Fatalf("session %d: %v", s, err)
		}
		appendAll(t, l, recs[s*30:(s+1)*30])
		if l.Total() != int64((s+1)*30) {
			t.Fatalf("session %d: total %d, want %d", s, l.Total(), (s+1)*30)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("session %d close: %v", s, err)
		}
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("loaded %d records, want %d", len(got), len(recs))
	}
	samePairStreams(t, recs, got)
	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("verify failed at %s", rep.FirstBad)
	}
}

func TestExplicitCheckpointShrinksResume(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentMaxRecords: 8, CompactEvery: -1, Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	recs := mkRecords(64)
	appendAll(t, l, recs)
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Everything sealed is folded; only the fresh active segment remains.
	if len(segs) != 1 {
		t.Fatalf("after checkpoint: %d segment files, want 1 (fresh active)", len(segs))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	samePairStreams(t, recs, got)
}

func TestConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentMaxRecords: 64, CompactEvery: 4, QueueBatches: 4})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, per = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				v := float64((g*per+i)%19)/9.5 - 1
				l.Append([]crowd.Record{{I: g, J: g + 1 + i%3, Value: v}})
			}
		}(g)
	}
	wg.Wait()
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := l.Appended(); got != goroutines*per {
		t.Fatalf("appended %d, want %d", got, goroutines*per)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != goroutines*per {
		t.Fatalf("loaded %d records, want %d", len(got), goroutines*per)
	}
	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("verify failed at %s", rep.FirstBad)
	}
}

func TestDirectoryLock(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrLogLocked) {
		t.Fatalf("second open: got %v, want ErrLogLocked", err)
	}
	// Load must not need the lock.
	if _, err := Load(dir); err != nil {
		t.Fatalf("load under lock: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
	l2.Close()
}

func TestLockReleasedOnAbandon(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Append(mkRecords(5))
	l.abandon()
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after abandon: %v", err)
	}
	l2.Close()
}

func TestRejectsInvalidRecord(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	l.Append([]crowd.Record{{I: 3, J: 3, Value: 0.5}}) // self-pair
	if err := l.Flush(); err == nil {
		t.Fatal("flush accepted an invalid record")
	}
	if l.Err() == nil {
		t.Fatal("error not latched")
	}
	l.Close()
}

func TestLockfilePIDHint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.lock")
	lk, err := lockfile.Acquire(path)
	if err != nil {
		t.Fatal(err)
	}
	_, err = lockfile.Acquire(path)
	if !errors.Is(err, lockfile.ErrLocked) {
		t.Fatalf("got %v, want ErrLocked", err)
	}
	want := fmt.Sprintf("pid %d", os.Getpid())
	if msg := err.Error(); !containsStr(msg, want) {
		t.Fatalf("error %q does not carry the holder hint %q", msg, want)
	}
	if err := lk.Release(); err != nil {
		t.Fatal(err)
	}
	lk2, err := lockfile.Acquire(path)
	if err != nil {
		t.Fatalf("reacquire after release: %v", err)
	}
	lk2.Release()
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// listSegments returns the segment sequence numbers present in dir,
// ascending.
func listSegments(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("auditlog: %w", err)
	}
	var seqs []int
	for _, ent := range ents {
		if seq := segmentSeq(ent.Name()); seq > 0 {
			seqs = append(seqs, seq)
		}
	}
	sort.Ints(seqs)
	return seqs, nil
}

// listCheckpoints returns the checkpoint horizons present in dir,
// ascending.
func listCheckpoints(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("auditlog: %w", err)
	}
	var seqs []int
	for _, ent := range ents {
		if seq := checkpointSeq(ent.Name()); seq > 0 {
			seqs = append(seqs, seq)
		}
	}
	sort.Ints(seqs)
	return seqs, nil
}
