package auditlog

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// FuzzSegmentReload throws arbitrary bytes at the segment parser — the
// code every boot trusts with whatever a crash left on disk. The parser
// must never panic, must keep validLen inside the input, and everything
// it accepts must re-parse identically after truncating to validLen
// (recovery's idempotence: recovering a recovered file is a no-op).
func FuzzSegmentReload(f *testing.F) {
	dir := f.TempDir()
	l, err := Open(dir, Options{SegmentMaxRecords: 4, CompactEvery: -1, Sync: SyncOff})
	if err != nil {
		f.Fatal(err)
	}
	appendAll(f, l, mkRecords(10))
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	seqs, _ := listSegments(dir)
	for _, seq := range seqs {
		data, err := os.ReadFile(filepath.Join(dir, segmentFile(seq)))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)               // a whole sealed segment
		f.Add(data[:len(data)/2]) // torn mid-file
		f.Add(data[:len(data)-1]) // torn final newline
	}
	f.Add([]byte{})
	f.Add([]byte("{\"kind\":\"header\",\"seq\":1,\"prev\":\"\",\"base\":0}\n"))
	f.Add([]byte("not json at all\nstill not\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		ps, err := parseSegment("seg-000001.log", data)
		if err != nil {
			return // refused outright — fine, just must not panic
		}
		if ps.validLen < 0 || ps.validLen > int64(len(data)) {
			t.Fatalf("validLen %d outside input of %d bytes", ps.validLen, len(data))
		}
		if len(ps.leaves) > 0 && len(ps.leaves) != len(ps.records)+1 {
			t.Fatalf("%d leaves for %d records", len(ps.leaves), len(ps.records))
		}
		// Idempotence: the valid prefix must re-parse to the same shape.
		ps2, err := parseSegment("seg-000001.log", data[:ps.validLen])
		if err != nil {
			t.Fatalf("valid prefix refused on re-parse: %v", err)
		}
		if ps2.torn {
			t.Fatal("valid prefix re-parsed as torn")
		}
		if len(ps2.records) != len(ps.records) {
			t.Fatalf("re-parse found %d records, first parse %d", len(ps2.records), len(ps.records))
		}
		for i := range ps.records {
			if ps2.records[i] != ps.records[i] {
				t.Fatalf("record %d changed across re-parse", i)
			}
		}
	})
}

// FuzzDirectoryVerdict damages one file of a small audit-log directory —
// a checkpoint, pinned segments and an unsealed tail — and holds Open,
// Load and Verify to one contract: Load and Open refuse exactly when
// Verify flags damage, Load's refusal names Verify's FirstBad, and a
// refused Open leaves the directory as it found it. The input picks the
// file, the mutation (flip a byte, truncate, delete, or drop a pin from
// the manifest) and where it lands.
func FuzzDirectoryVerdict(f *testing.F) {
	src := f.TempDir()
	l, err := Open(src, Options{SegmentMaxRecords: 4, CompactEvery: 3, Sync: SyncOff, SyncInterval: time.Hour})
	if err != nil {
		f.Fatal(err)
	}
	appendAll(f, l, mkRecords(50))
	l.abandon() // die with sealed history, a pinned segment and a tail
	ents, err := os.ReadDir(src)
	if err != nil {
		f.Fatal(err)
	}
	files := map[string][]byte{}
	var names []string
	for _, ent := range ents {
		if ent.Name() == lockName {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			f.Fatal(err)
		}
		files[ent.Name()] = data
		names = append(names, ent.Name())
	}
	for i := range names {
		for op := uint8(0); op < 4; op++ {
			f.Add(uint8(i), op, uint16(len(files[names[i]])/2), uint8(1))
		}
	}

	f.Fuzz(func(t *testing.T, pick, op uint8, off uint16, mask uint8) {
		dir := t.TempDir()
		for name, data := range files {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		name := names[int(pick)%len(names)]
		path := filepath.Join(dir, name)
		data := append([]byte(nil), files[name]...)
		switch op % 4 {
		case 0: // flip bits of one byte
			if len(data) == 0 || mask == 0 {
				return
			}
			data[int(off)%len(data)] ^= mask
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		case 1:
			if err := os.Truncate(path, int64(int(off)%(len(data)+1))); err != nil {
				t.Fatal(err)
			}
		case 2:
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		case 3: // drop the checkpoint's or one segment's pin
			var man manifest
			if err := json.Unmarshal(files[manifestName], &man); err != nil {
				t.Fatal(err)
			}
			if i := int(off) % (len(man.Segments) + 1); i == len(man.Segments) {
				man.Checkpoint = nil
			} else {
				man.Segments = append(man.Segments[:i], man.Segments[i+1:]...)
			}
			data, err := json.Marshal(&man)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, manifestName), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		rep, err := Verify(dir)
		if err != nil {
			t.Fatal(err)
		}
		_, lerr := Load(dir)
		if (lerr != nil) != !rep.OK {
			t.Fatalf("load err %v, but verify ok=%v firstBad=%s", lerr, rep.OK, rep.FirstBad)
		}
		if lerr != nil {
			var ce *corruptError
			if !errors.As(lerr, &ce) || ce.file != rep.FirstBad {
				t.Fatalf("load refused with %v, verify's first bad file is %s", lerr, rep.FirstBad)
			}
		}
		before := dirFiles(t, dir)
		lg, oerr := Open(dir, Options{Sync: SyncOff})
		if (oerr != nil) != !rep.OK {
			t.Fatalf("open err %v, but verify ok=%v firstBad=%s", oerr, rep.OK, rep.FirstBad)
		}
		if oerr != nil {
			sameFiles(t, "after a refused open", before, dirFiles(t, dir))
			return
		}
		if err := lg.Close(); err != nil {
			t.Fatal(err)
		}
	})
}
