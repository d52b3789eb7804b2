package auditlog

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"crowdtopk/internal/crowd"
)

// crashScript drives a log through every io-generating path — appends,
// rotations, an automatic fold, an explicit checkpoint, a clean close —
// under a deterministic schedule: Sync is off and every Append is
// followed by a Flush, so the committer performs exactly one write (and
// one sync) per batch and the io-step sequence is a pure function of the
// input. Returns the records it attempted to append.
func crashScript(dir string, h *crashHooks) ([]crowd.Record, error) {
	recs := mkRecords(30)
	// SyncInterval an hour out: the lazy committer's housekeeping ticker
	// must never inject an io step into the deterministic schedule.
	l, err := Open(dir, Options{SegmentMaxRecords: 4, CompactEvery: 2, Sync: SyncOff, SyncInterval: time.Hour, hooks: h})
	if err != nil {
		return recs, err
	}
	step := func(i, n int) {
		end := i + n
		if end > len(recs) {
			end = len(recs)
		}
		l.Append(recs[i:end])
		_ = l.Flush()
	}
	for i := 0; i < 21; i += 3 {
		step(i, 3)
	}
	_ = l.Checkpoint()
	for i := 21; i < len(recs); i += 3 {
		step(i, 3)
	}
	return recs, l.Close()
}

// isPairPrefix asserts got's per-pair value streams are each a prefix of
// want's — the exact shape a crash can leave: whole per-pair histories
// up to the last byte that reached the disk, never a reordering and
// never a value from the future.
func isPairPrefix(t *testing.T, want, got []crowd.Record) {
	t.Helper()
	w, g := perPair(want), perPair(got)
	for k, gs := range g {
		ws := w[k]
		if len(gs) > len(ws) {
			t.Fatalf("pair %v: recovered %d values, only %d ever appended", k, len(gs), len(ws))
		}
		for i := range gs {
			if gs[i] != ws[i] {
				t.Fatalf("pair %v value %d: recovered %v, appended %v", k, i, gs[i], ws[i])
			}
		}
	}
}

// tempFiles lists the orphaned temp files of an atomic write in dir.
func tempFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			out = append(out, e.Name())
		}
	}
	return out
}

// TestCrashAtEveryIOStep is the recovery table test: learn the io-step
// universe of a fixed script, then for every step (and for a torn
// partial write at that step) kill the writer there and require the next
// Open to recover a verifiable, appendable directory whose contents are
// per-pair prefixes of what was appended. A kill inside an atomic file
// write leaves its temp file behind, as a real crash does: Verify must
// note it without failing, and Open must delete it.
func TestCrashAtEveryIOStep(t *testing.T) {
	base := t.TempDir()
	probe := &crashHooks{}
	recs, err := crashScript(filepath.Join(base, "baseline"), probe)
	if err != nil {
		t.Fatalf("baseline run failed: %v", err)
	}
	steps := probe.Steps()
	if steps < 40 {
		t.Fatalf("baseline script too small to be interesting: %d io steps", steps)
	}
	withDebris := 0
	for kill := int64(1); kill <= steps; kill++ {
		for _, partial := range []int{0, 7} {
			kill, partial := kill, partial
			t.Run(fmt.Sprintf("kill%03d_partial%d", kill, partial), func(t *testing.T) {
				dir := filepath.Join(base, fmt.Sprintf("k%d_p%d", kill, partial))
				h := &crashHooks{KillAt: kill, Partial: partial}
				_, _ = crashScript(dir, h)
				if !h.Died() {
					t.Fatalf("schedule (%d,%d) never fired", kill, partial)
				}
				debris := tempFiles(t, dir)
				if len(debris) > 0 {
					withDebris++
				}

				// The dead directory must still audit clean: crash debris is
				// reported in notes, never misread as tampering.
				rep, err := Verify(dir)
				if err != nil {
					t.Fatalf("verify io error: %v", err)
				}
				if !rep.OK {
					t.Fatalf("crash at %s step %d reads as tamper: firstBad=%s elements=%+v",
						h.DiedOp.Load(), kill, rep.FirstBad, rep.Elements)
				}
				for _, name := range debris {
					if !strings.Contains(strings.Join(rep.Notes, "\n"), name+": orphaned temp file") {
						t.Fatalf("crash debris %s not noted by verify: %q", name, rep.Notes)
					}
				}
				sameVerdict(t, dir)
				// …and a fresh Open must recover it without hooks.
				l, err := Open(dir, Options{SegmentMaxRecords: 4, CompactEvery: 2, Sync: SyncOff})
				if err != nil {
					t.Fatalf("reopen after crash at %s step %d: %v (verify: ok=%v firstBad=%s)",
						h.DiedOp.Load(), kill, err, rep.OK, rep.FirstBad)
				}
				if left := tempFiles(t, dir); len(left) > 0 {
					t.Fatalf("open after crash at %s step %d left debris %v", h.DiedOp.Load(), kill, left)
				}
				recovered := l.Total()
				got, lerr := Load(dir)
				if lerr != nil {
					t.Fatalf("load under reopened log: %v", lerr)
				}
				isPairPrefix(t, recs, got)
				if int64(len(got)) != recovered {
					t.Fatalf("Total says %d records, Load returned %d", recovered, len(got))
				}

				// The survivor must accept new work and close cleanly.
				extra := []crowd.Record{{I: 90, J: 91, Value: 0.25}, {I: 90, J: 91, Value: -0.5}}
				l.Append(extra)
				if err := l.Flush(); err != nil {
					t.Fatalf("append after recovery: %v", err)
				}
				if err := l.Close(); err != nil {
					t.Fatalf("close after recovery: %v", err)
				}
				final, err := Load(dir)
				if err != nil {
					t.Fatal(err)
				}
				if int64(len(final)) != recovered+2 {
					t.Fatalf("after recovery+append: %d records, want %d", len(final), recovered+2)
				}
				rep2, err := Verify(dir)
				if err != nil {
					t.Fatal(err)
				}
				if !rep2.OK {
					t.Fatalf("recovered directory fails verify at %s", rep2.FirstBad)
				}
			})
		}
	}
	if withDebris == 0 {
		t.Fatal("no kill point left a temp file: recovery's debris path went untested")
	}
	t.Logf("%d of %d kill points left a temp file", withDebris, 2*steps)
}

// TestCrashDuringRecovery kills the writer a second time, inside the
// Open that recovers from the first crash: its manifest rewrite and the
// fresh segment it opens are io steps too. A crash between a seal and
// its manifest write followed by one in recovery's openSegment leaves a
// sealed, unpinned segment with a successor after it; that and every
// other doubly crashed directory must verify clean and reopen.
func TestCrashDuringRecovery(t *testing.T) {
	base := t.TempDir()
	probe := &crashHooks{}
	recs, err := crashScript(filepath.Join(base, "baseline"), probe)
	if err != nil {
		t.Fatalf("baseline run failed: %v", err)
	}
	opts := Options{SegmentMaxRecords: 4, CompactEvery: 2, Sync: SyncOff, SyncInterval: time.Hour}
	doubled := 0
	for kill := int64(1); kill <= probe.Steps(); kill++ {
		for _, partial := range []int{0, 7} {
			first := filepath.Join(base, fmt.Sprintf("k%d_p%d", kill, partial))
			_, _ = crashScript(first, &crashHooks{KillAt: kill, Partial: partial})
			for again := int64(1); ; again++ {
				dir := copyDir(t, first)
				o := opts
				o.hooks = &crashHooks{KillAt: again, Partial: partial}
				l, err := Open(dir, o)
				if !o.hooks.Died() {
					// Recovery finished before this step: all its steps are covered.
					if err != nil {
						t.Fatalf("kill %d/%d: recovery open: %v", kill, partial, err)
					}
					l.abandon()
					break
				}
				if err == nil {
					t.Fatalf("kill %d/%d then %d: open survived its own crash", kill, partial, again)
				}
				doubled++
				how := fmt.Sprintf("kill %d/%d then %s at recovery step %d", kill, partial, o.hooks.DiedOp.Load(), again)
				sameVerdict(t, dir)
				rep, err := Verify(dir)
				if err != nil {
					t.Fatalf("%s: verify io error: %v", how, err)
				}
				if !rep.OK {
					t.Fatalf("%s reads as tamper: firstBad=%s elements=%+v", how, rep.FirstBad, rep.Elements)
				}
				l2, err := Open(dir, opts)
				if err != nil {
					t.Fatalf("%s: reopen: %v", how, err)
				}
				got, err := Load(dir)
				if err != nil {
					t.Fatalf("%s: load: %v", how, err)
				}
				isPairPrefix(t, recs, got)
				if err := l2.Close(); err != nil {
					t.Fatalf("%s: close: %v", how, err)
				}
			}
		}
	}
	if doubled < 100 {
		t.Fatalf("only %d doubly crashed directories; the script no longer reaches recovery io", doubled)
	}
}

// TestTruncateActiveAtEveryOffset models a disk that persisted only a
// byte prefix of the active segment (power cut under Sync off): for
// every truncation point, Open must recover the longest whole-record
// prefix without error.
func TestTruncateActiveAtEveryOffset(t *testing.T) {
	src := t.TempDir()
	l, err := Open(src, Options{Sync: SyncOff, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	recs := mkRecords(12)
	appendAll(t, l, recs)
	l.abandon() // die with the segment unsealed — the interesting state

	seqs, err := listSegments(src)
	if err != nil || len(seqs) != 1 {
		t.Fatalf("want exactly one active segment, got %v (err %v)", seqs, err)
	}
	active := segmentFile(seqs[0])
	full, err := os.ReadFile(filepath.Join(src, active))
	if err != nil {
		t.Fatal(err)
	}

	for off := 0; off <= len(full); off++ {
		dir := copyDir(t, src)
		if err := os.Truncate(filepath.Join(dir, active), int64(off)); err != nil {
			t.Fatalf("off %d: %v", off, err)
		}
		sameVerdict(t, dir)
		got, err := Load(dir)
		if err != nil {
			t.Fatalf("off %d: load: %v", off, err)
		}
		isPairPrefix(t, recs, got)
		l2, err := Open(dir, Options{Sync: SyncOff})
		if err != nil {
			t.Fatalf("off %d: open: %v", off, err)
		}
		if l2.Total() != int64(len(got)) {
			t.Fatalf("off %d: open sees %d records, load saw %d", off, l2.Total(), len(got))
		}
		if err := l2.Close(); err != nil {
			t.Fatalf("off %d: close: %v", off, err)
		}
	}
}
