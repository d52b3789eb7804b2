package auditlog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// foldOpts rotates every 8 records and folds every third seal. Sync is
// off and the ticker an hour out, so the files are a pure function of
// the appends.
var foldOpts = Options{SegmentMaxRecords: 8, CompactEvery: 3, Sync: SyncOff, SyncInterval: time.Hour}

// dirFiles reads every file of an audit-log directory except the lock.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	for _, e := range ents {
		if e.Name() == lockName {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

func sameFiles(t *testing.T, when string, want, got map[string][]byte) {
	t.Helper()
	names := func(m map[string][]byte) []string {
		var ns []string
		for n := range m {
			ns = append(ns, n)
		}
		sort.Strings(ns)
		return ns
	}
	if w, g := names(want), names(got); strings.Join(w, ",") != strings.Join(g, ",") {
		t.Fatalf("%s: files %v, want %v", when, g, w)
	}
	for n, w := range want {
		if !bytes.Equal(got[n], w) {
			t.Fatalf("%s: %s differs:\n got %s\nwant %s", when, n, got[n], w)
		}
	}
}

// TestFoldMemoryMatchesDisk runs one record stream twice: through one
// continuous Log, whose folds write from the in-memory fold state, and
// through a Log closed (or killed) and reopened at every seal, whose
// first fold after each Open reads the adopted history from disk. Checkpoint files,
// the manifest and its chain must be byte-identical after every step,
// and both directories must verify.
func TestFoldMemoryMatchesDisk(t *testing.T) {
	recs := mkRecords(8 * 19)
	contDir, reopenDir := t.TempDir(), t.TempDir()
	cont, err := Open(contDir, foldOpts)
	if err != nil {
		t.Fatal(err)
	}
	re, err := Open(reopenDir, foldOpts)
	if err != nil {
		t.Fatal(err)
	}
	folds := 0
	for i := 0; i < len(recs); i += 4 {
		batch := recs[i : i+4]
		for _, l := range []*Log{cont, re} {
			l.Append(batch)
			if err := l.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		step := fmt.Sprintf("after record %d", i+4)
		sameFiles(t, step, dirFiles(t, contDir), dirFiles(t, reopenDir))
		if len(cont.man.Segments) == 0 && cont.man.Checkpoint != nil {
			folds++
		}
		if re.count != 0 {
			continue // mid-segment: reopen only between seals
		}
		if len(re.man.Segments) == 0 {
			// Just folded: a clean Close writes nothing more.
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
		} else {
			// Sealed segments pending: Close would fold them early, so
			// die instead, leaving them for the next life's first fold.
			re.abandon()
		}
		if re, err = Open(reopenDir, foldOpts); err != nil {
			t.Fatalf("%s: reopen: %v", step, err)
		}
		if re.sealed != nil {
			t.Fatalf("%s: a reopened log starts with fold state", step)
		}
	}
	if folds < 2 {
		t.Fatalf("the continuous log folded %d times; want several from memory", folds)
	}
	for _, l := range []*Log{cont, re} {
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	sameFiles(t, "after close", dirFiles(t, contDir), dirFiles(t, reopenDir))
	for _, dir := range []string{contDir, reopenDir} {
		rep, err := Verify(dir)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK {
			t.Fatalf("%s fails verify at %s", dir, rep.FirstBad)
		}
		got, err := Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		samePairStreams(t, recs, got)
	}
}

// foldScript is crashScript's shape with the log handed back: appends
// through several automatic folds, an explicit checkpoint and a close.
func foldScript(dir string, h *crashHooks) (*Log, error) {
	o := foldOpts
	o.SegmentMaxRecords, o.CompactEvery, o.hooks = 4, 2, h
	l, err := Open(dir, o)
	if err != nil {
		return nil, err
	}
	recs := mkRecords(40)
	for i := 0; i < len(recs); i += 3 {
		l.Append(recs[i:min(i+3, len(recs))])
		_ = l.Flush()
		if i == 21 {
			_ = l.Checkpoint()
		}
	}
	return l, l.Close()
}

// foldDoc renders a fold state's content, without the horizon fields.
func foldDoc(t *testing.T, fo *folder) string {
	t.Helper()
	return mustJSON(t, fo.doc(0, ""))
}

// TestFoldFailureKeepsStateOnDisk kills the writer at every io step and
// requires the fold state left in memory to be exactly what the files
// its manifest names hold. For deaths inside a checkpoint write (temp
// write, fsync, rename) that manifest must also be the one on disk: a
// failed fold must not run ahead of the directory.
func TestFoldFailureKeepsStateOnDisk(t *testing.T) {
	base := t.TempDir()
	probe := &crashHooks{}
	if _, err := foldScript(filepath.Join(base, "baseline"), probe); err != nil {
		t.Fatalf("baseline: %v", err)
	}
	ckptDeaths, laterFolds := 0, 0
	for kill := int64(1); kill <= probe.Steps(); kill++ {
		dir := filepath.Join(base, fmt.Sprintf("k%d", kill))
		h := &crashHooks{KillAt: kill}
		l, _ := foldScript(dir, h)
		if !h.Died() {
			t.Fatalf("kill %d never fired", kill)
		}
		path, _ := h.DiedPath.Load().(string)
		how := fmt.Sprintf("kill %d (%s %s)", kill, h.DiedOp.Load(), filepath.Base(path))
		if l == nil || l.sealed == nil {
			continue // died in Open, or before the first fold loaded state
		}
		// The Log is closed; fold what its manifest names, the way the
		// first fold after Open would.
		want, err := l.readSealed()
		if err != nil {
			t.Fatalf("%s: reading folded history: %v", how, err)
		}
		if got, w := foldDoc(t, l.sealed), foldDoc(t, want); got != w {
			t.Fatalf("%s: fold state differs from its files:\n got %s\nwant %s", how, got, w)
		}
		if !strings.HasPrefix(filepath.Base(path), "checkpoint-") {
			continue
		}
		ckptDeaths++
		m, err := readManifest(dir)
		if err != nil || m == nil {
			t.Fatalf("%s: manifest: %v", how, err)
		}
		if disk, mem := mustJSON(t, m), mustJSON(t, &l.man); disk != mem {
			t.Fatalf("%s: manifest in memory ran ahead of disk:\n mem %s\ndisk %s", how, mem, disk)
		}
		if m.Checkpoint != nil {
			laterFolds++ // the state was kept in memory, not just loaded
		}
	}
	if ckptDeaths < 6 || laterFolds == 0 {
		t.Fatalf("%d deaths in a checkpoint write (%d past the first fold); script too small",
			ckptDeaths, laterFolds)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
