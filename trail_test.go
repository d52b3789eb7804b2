package crowdtopk_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"crowdtopk"
	"crowdtopk/internal/crowd"
)

// trailDigest hashes a trail's records, in order, to 16 hex digits.
func trailDigest(recs []crowdtopk.TaskRecord) string {
	h := sha256.New()
	var b [32]byte
	for _, r := range recs {
		binary.LittleEndian.PutUint64(b[0:], uint64(r.Round))
		binary.LittleEndian.PutUint64(b[8:], uint64(int64(r.I)))
		binary.LittleEndian.PutUint64(b[16:], uint64(int64(r.J)))
		binary.LittleEndian.PutUint64(b[24:], math.Float64bits(r.Value))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// sessionTrail runs two fixed-seed queries on one session with an
// in-memory trail and returns the trail. At Parallelism 2 the
// deterministic waves hold their pairs' records (HoldLog) and release
// them in chain order.
func sessionTrail(t *testing.T, alg crowdtopk.Algorithm, par int) []crowdtopk.TaskRecord {
	t.Helper()
	sess, err := crowdtopk.NewSession(crowdtopk.SyntheticDataset(40, 0.3, 17), crowdtopk.Options{
		Algorithm: alg, Budget: 120, MinWorkload: 10, BatchSize: 10,
		Seed: 29, Confidence: 0.95, Parallelism: par,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	sess.EnableAuditLog()
	for _, k := range []int{5, 3} {
		if _, err := sess.TopK(k); err != nil {
			t.Fatal(err)
		}
	}
	if n := int64(len(sess.AuditLog())); n != sess.TMC() || sess.AuditLen() != n {
		t.Fatalf("trail holds %d records, AuditLen %d, TMC %d", n, sess.AuditLen(), sess.TMC())
	}
	return sess.AuditLog()
}

// gradedTrail interleaves pairwise draws, single draws, grades and ticks
// on a bare engine with an in-memory trail.
func gradedTrail(t *testing.T) []crowdtopk.TaskRecord {
	e := crowd.NewEngine(crowdtopk.SyntheticDataset(12, 0.3, 5), rand.New(rand.NewSource(41)))
	trail := new(crowd.MemLog)
	e.SetLogSink(trail)
	for r := 0; r < 6; r++ {
		e.Draw(r, r+3, 7)
		e.Grade(r)
		e.DrawOne(r+5, r)
		e.Tick(1)
	}
	if e.Logged() != e.TMC() {
		t.Fatalf("Logged %d, TMC %d", e.Logged(), e.TMC())
	}
	return trail.Log()
}

// TestAuditTrailIdentity pins the records an in-memory trail receives —
// content and order — to digests of Engine.Log() taken when the engine
// still kept its own record slice beside the sink. Moving the records
// into a sink must not change a single one.
func TestAuditTrailIdentity(t *testing.T) {
	for _, tc := range []struct {
		name   string
		run    func(*testing.T) []crowdtopk.TaskRecord
		n      int
		digest string
	}{
		{"spr/p1", func(t *testing.T) []crowdtopk.TaskRecord { return sessionTrail(t, crowdtopk.SPR, 1) }, 2950, "04849a1ce2998569"},
		{"spr/p2", func(t *testing.T) []crowdtopk.TaskRecord { return sessionTrail(t, crowdtopk.SPR, 2) }, 2950, "04849a1ce2998569"},
		{"tourtree/p1", func(t *testing.T) []crowdtopk.TaskRecord { return sessionTrail(t, crowdtopk.TourTree, 1) }, 3390, "6d5ee7c969817ba0"},
		{"tourtree/p2", func(t *testing.T) []crowdtopk.TaskRecord { return sessionTrail(t, crowdtopk.TourTree, 2) }, 3390, "6d5ee7c969817ba0"},
		{"graded", gradedTrail, 54, "32ac1288dad26afc"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			recs := tc.run(t)
			if got := trailDigest(recs); len(recs) != tc.n || got != tc.digest {
				t.Fatalf("trail: %d records, digest %s; want %d, %s", len(recs), got, tc.n, tc.digest)
			}
		})
	}
}

// TestDurableTrailKeepsNothingInMemory attaches a durable audit log the
// way topkd does with -audit-dir (after an in-memory trail, as the
// benchmark's service does): the durable log replaces the in-memory
// trail, so no record stays in RAM, while AuditLen still counts every
// microtask and the directory holds them all.
func TestDurableTrailKeepsNothingInMemory(t *testing.T) {
	dir := t.TempDir()
	sess, err := crowdtopk.NewSession(crowdtopk.SyntheticDataset(30, 0.3, 9), crowdtopk.Options{
		Budget: 100, MinWorkload: 10, BatchSize: 10, Seed: 4, Parallelism: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	alog, err := crowdtopk.OpenAuditLog(dir, crowdtopk.AuditLogOptions{Sync: crowdtopk.AuditSyncOff})
	if err != nil {
		t.Fatal(err)
	}
	sess.EnableAuditLog()
	sess.SetAuditSink(alog)
	if _, err := sess.TopK(4); err != nil {
		t.Fatal(err)
	}
	if sess.TMC() == 0 {
		t.Fatal("query spent nothing; the test is vacuous")
	}
	if recs := sess.AuditLog(); recs != nil {
		t.Fatalf("a durable trail left %d records in memory", len(recs))
	}
	if sess.AuditLen() != sess.TMC() {
		t.Fatalf("AuditLen %d, TMC %d", sess.AuditLen(), sess.TMC())
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := alog.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := crowdtopk.LoadAuditLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(recs)) != sess.TMC() {
		t.Fatalf("directory holds %d records, TMC %d", len(recs), sess.TMC())
	}
}
