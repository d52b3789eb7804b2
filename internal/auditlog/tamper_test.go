package auditlog

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// buildSealedDir writes a log whose Close leaves several sealed segments
// on disk (compaction off), returning the segment file names in chain
// order.
func buildSealedDir(t *testing.T) (string, []string) {
	t.Helper()
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentMaxRecords: 8, CompactEvery: -1, Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, mkRecords(50))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seqs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) < 3 {
		t.Fatalf("want several sealed segments, got %d", len(seqs))
	}
	names := make([]string, len(seqs))
	for i, s := range seqs {
		names[i] = segmentFile(s)
	}
	return dir, names
}

func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// flipByte flips one bit of a mid-file byte, skipping newlines so the
// line structure survives and the damage is purely content-level.
func flipByte(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for off := len(data) / 2; off < len(data); off++ {
		b := data[off]
		if b == '\n' || b^0x01 == '\n' {
			continue
		}
		data[off] = b ^ 0x01
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatal("no flippable byte found")
}

// TestTamperAttributedToSegment is the headline tamper guarantee: flip a
// single byte in any sealed segment and Verify names exactly that
// segment — every other element still passes, so the damage is
// localized, not merely detected.
func TestTamperAttributedToSegment(t *testing.T) {
	src, names := buildSealedDir(t)
	for _, victim := range names {
		victim := victim
		t.Run(victim, func(t *testing.T) {
			dir := copyDir(t, src)
			flipByte(t, filepath.Join(dir, victim))
			rep, err := Verify(dir)
			if err != nil {
				t.Fatal(err)
			}
			if rep.OK {
				t.Fatal("verify passed on a tampered directory")
			}
			if rep.FirstBad != victim {
				t.Fatalf("first bad = %s, want %s", rep.FirstBad, victim)
			}
			sameVerdict(t, dir)
			for _, el := range rep.Elements {
				if el.File == victim {
					if el.OK {
						t.Fatalf("%s reported OK despite tamper", victim)
					}
					continue
				}
				if !el.OK {
					t.Fatalf("undamaged %s reported bad (%s): attribution leaked", el.File, el.Detail)
				}
			}
			// Open must refuse the directory outright — tampered history
			// cannot be silently resumed from.
			if _, err := Open(dir, Options{}); err == nil {
				t.Fatal("open accepted a tampered directory")
			}
		})
	}
}

func TestTamperedCheckpointDetected(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentMaxRecords: 8, CompactEvery: 2, Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, mkRecords(64))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	ckpts, err := listCheckpoints(dir)
	if err != nil || len(ckpts) == 0 {
		t.Fatalf("no checkpoint written (err %v)", err)
	}
	victim := checkpointFile(ckpts[len(ckpts)-1])
	flipByte(t, filepath.Join(dir, victim))
	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK || rep.FirstBad != victim {
		t.Fatalf("ok=%v firstBad=%s, want tampered checkpoint %s flagged", rep.OK, rep.FirstBad, victim)
	}
	sameVerdict(t, dir)
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("open accepted a tampered checkpoint")
	}
}

func TestMissingSegmentDetected(t *testing.T) {
	src, names := buildSealedDir(t)
	dir := copyDir(t, src)
	victim := names[1]
	if err := os.Remove(filepath.Join(dir, victim)); err != nil {
		t.Fatal(err)
	}
	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK || rep.FirstBad != victim {
		t.Fatalf("ok=%v firstBad=%s, want deleted %s flagged", rep.OK, rep.FirstBad, victim)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("open accepted a directory missing a manifested segment")
	}
}

func TestTamperedManifestDetected(t *testing.T) {
	src, _ := buildSealedDir(t)
	dir := copyDir(t, src)
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("{ not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK || rep.FirstBad != manifestName {
		t.Fatalf("ok=%v firstBad=%s, want manifest flagged", rep.OK, rep.FirstBad)
	}
	sameVerdict(t, dir)
}

// TestSealLineTamperDetected rewrites a seal's chain value: the records
// still match their root, but the rewritten seal no longer agrees with
// the manifest's pinned chain, so the segment is flagged even though its
// content is untouched.
func TestSealLineTamperDetected(t *testing.T) {
	src, names := buildSealedDir(t)
	dir := copyDir(t, src)
	victim := names[len(names)-1]
	path := filepath.Join(dir, victim)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The seal is the last line; its chain hex is the last hash in the
	// file. Swap one hex digit for another.
	for off := len(data) - 2; off > 0; off-- {
		if b := data[off]; b >= '0' && b <= '9' {
			data[off] = 'a' + (b - '0')
			break
		}
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK || rep.FirstBad != victim {
		t.Fatalf("ok=%v firstBad=%s, want %s", rep.OK, rep.FirstBad, victim)
	}
}

func TestVerifyCleanDirectoryWithCheckpoint(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentMaxRecords: 8, CompactEvery: 2, Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	recs := mkRecords(100)
	appendAll(t, l, recs)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("verify failed at %s", rep.FirstBad)
	}
	if rep.Records != int64(len(recs)) {
		t.Fatalf("verify covered %d records, want %d", rep.Records, len(recs))
	}
}

func TestVerifyEmptyDirectory(t *testing.T) {
	rep, err := Verify(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatal("empty directory should verify clean")
	}
}

// sameVerdict is the directory contract in one line: Load refuses a
// directory exactly when Verify flags damage in it.
func sameVerdict(t *testing.T, dir string) {
	t.Helper()
	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, lerr := Load(dir); (lerr != nil) != !rep.OK {
		t.Fatalf("load err %v, but verify ok=%v firstBad=%s", lerr, rep.OK, rep.FirstBad)
	}
}

// requireRefused asserts Load and Open both refuse dir, and that the
// refused Open leaves every file in it (the lock aside) as it was.
func requireRefused(t *testing.T, dir string) {
	t.Helper()
	before := dirFiles(t, dir)
	if _, err := Load(dir); err == nil {
		t.Fatal("load accepted a damaged directory")
	}
	if l, err := Open(dir, Options{}); err == nil {
		l.Close()
		t.Fatal("open accepted a damaged directory")
	}
	sameFiles(t, "after a refused open", before, dirFiles(t, dir))
}

// TestTamperManifestRemoved deletes the manifest of a sealed directory.
// No crash leaves sealed segments without one, so Verify names the
// manifest and Open refuses rather than writing a fresh manifest that
// would vouch for whatever the segments now hold.
func TestTamperManifestRemoved(t *testing.T) {
	src, _ := buildSealedDir(t)
	dir := copyDir(t, src)
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}
	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK || rep.FirstBad != manifestName {
		t.Fatalf("ok=%v firstBad=%s, want %s flagged", rep.OK, rep.FirstBad, manifestName)
	}
	sameVerdict(t, dir)
	requireRefused(t, dir)
}

// TestTamperPinDropped removes a middle segment's pin from the manifest.
// The file itself is intact, but the manifest no longer vouches for it:
// Verify flags it and Open refuses rather than resume from it.
func TestTamperPinDropped(t *testing.T) {
	src, names := buildSealedDir(t)
	dir := copyDir(t, src)
	victim := names[1]
	man, err := readManifest(dir)
	if err != nil || man == nil {
		t.Fatalf("manifest: %v", err)
	}
	var kept []manifestSegment
	for _, e := range man.Segments {
		if e.File != victim {
			kept = append(kept, e)
		}
	}
	if len(kept) != len(man.Segments)-1 {
		t.Fatalf("%s is not pinned in the manifest", victim)
	}
	man.Segments = kept
	data, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	flagged := false
	for _, el := range rep.Elements {
		flagged = flagged || (el.File == victim && !el.OK)
	}
	if rep.OK || !flagged {
		t.Fatalf("ok=%v firstBad=%s elements=%+v, want %s flagged", rep.OK, rep.FirstBad, rep.Elements, victim)
	}
	sameVerdict(t, dir)
	requireRefused(t, dir)
}

// TestTamperManifestValues edits one value the manifest vouches with —
// a pinned chain head, a pinned base, the checkpoint's chain — where no
// later file would expose it by failing to chain. The element the value
// vouches for is flagged, and Open and Load refuse.
func TestTamperManifestValues(t *testing.T) {
	sealed, names := buildSealedDir(t)
	folded := t.TempDir()
	l, err := Open(folded, Options{SegmentMaxRecords: 8, CompactEvery: 2, Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, mkRecords(64))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	other := hexChain(chainRoot(genesisChain, genesisChain))
	for _, tc := range []struct {
		name, src, victim string
		edit              func(m *manifest)
	}{
		{"last pin's chain", sealed, names[len(names)-1], func(m *manifest) { m.Segments[len(m.Segments)-1].Chain = other }},
		{"first pin's base", sealed, names[0], func(m *manifest) { m.Segments[0].Base = 1 }},
		{"checkpoint chain", folded, "", func(m *manifest) { m.Checkpoint.Chain = other }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := copyDir(t, tc.src)
			man, err := readManifest(dir)
			if err != nil || man == nil {
				t.Fatalf("manifest: %v", err)
			}
			victim := tc.victim
			if victim == "" {
				victim = man.Checkpoint.File
			}
			tc.edit(man)
			data, err := json.Marshal(man)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, manifestName), data, 0o644); err != nil {
				t.Fatal(err)
			}
			rep, err := Verify(dir)
			if err != nil {
				t.Fatal(err)
			}
			if rep.OK || rep.FirstBad != victim {
				t.Fatalf("ok=%v firstBad=%s, want %s flagged", rep.OK, rep.FirstBad, victim)
			}
			sameVerdict(t, dir)
			requireRefused(t, dir)
		})
	}
}
