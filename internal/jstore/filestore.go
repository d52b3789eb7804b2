package jstore

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"crowdtopk/internal/jsonl"
	"crowdtopk/internal/lockfile"
)

// ErrStoreLocked reports that another process holds the store's writer
// lock. Errors returned by OpenFile wrap it (with the holder's PID when
// readable); detect with errors.Is.
var ErrStoreLocked = errors.New("jstore: store locked by another process")

// FileStore is the persistent driver: an append-only JSONL file (one
// Record per line, human-reviewable) mirrored by an in-memory MemStore
// index for lock-cheap lookups. Open loads the file, replaying lines in
// order so the last record per pair wins; Commit appends; Compact
// atomically rewrites the file with one line per live pair, sorted by
// pair for reviewable diffs. Compaction triggers automatically once the
// file carries more superseded lines than live ones (past a small floor),
// so a long-lived store's file stays O(pairs), not O(commits).
type FileStore struct {
	mem *MemStore

	mu    sync.Mutex
	path  string
	f     *os.File
	w     *bufio.Writer
	lines int // lines in the file since last compact (live + superseded)
	lock  *lockfile.Lock
}

// compactFloor keeps tiny stores from compacting on every few commits.
const compactFloor = 1024

// OpenFile opens (creating if absent) a JSONL judgment store at path.
// Corrupt or truncated trailing lines — a crash mid-append — are skipped
// with the valid prefix preserved; a corrupt line in the middle of the
// file is reported as an error.
//
// The store is guarded by an advisory lock on a sidecar file
// (path+".lock"): two processes appending to one JSONL file interleave
// half-lines and destroy it, so a second opener fails fast with an
// error wrapping ErrStoreLocked instead. The kernel drops the lock when
// the holder exits, even on SIGKILL — a crashed holder never wedges the
// store.
func OpenFile(path string) (*FileStore, error) {
	lock, err := lockfile.Acquire(path + ".lock")
	if err != nil {
		if errors.Is(err, lockfile.ErrLocked) {
			return nil, fmt.Errorf("jstore: %s: %w: %v", path, ErrStoreLocked, err)
		}
		return nil, fmt.Errorf("jstore: %w", err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		lock.Release()
		return nil, fmt.Errorf("jstore: %w", err)
	}
	fs := &FileStore{mem: NewMemStore(), path: path, lock: lock}
	var maxSeq uint64
	bad, err := jsonl.Read(f, func(line []byte) bool {
		var r Record
		if json.Unmarshal(line, &r) != nil {
			return false
		}
		fs.restore(r)
		maxSeq = max(maxSeq, r.Seq)
		fs.lines++
		return true
	})
	if bad > 0 {
		// A valid record after an invalid line: the corruption was not
		// a truncated tail, refuse to silently drop committed data.
		err = fmt.Errorf("jstore: %s: corrupt record mid-file (%d bad lines before a valid one)", path, bad)
	} else if err != nil {
		err = fmt.Errorf("jstore: read %s: %w", path, err)
	}
	if err != nil {
		f.Close()
		lock.Release()
		return nil, err
	}
	// Continue the logical clock past everything on disk.
	fs.mem.seq.Store(maxSeq)
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		lock.Release()
		return nil, fmt.Errorf("jstore: seek %s: %w", path, err)
	}
	fs.f = f
	fs.w = bufio.NewWriter(f)
	return fs, nil
}

// restore inserts a loaded record into the index keeping its original
// Seq/UnixNano (unlike Commit, which stamps fresh ones).
func (fs *FileStore) restore(r Record) {
	if !r.valid() {
		return
	}
	k := r.Key()
	st := &fs.mem.stripes[stripeOf(k)]
	st.mu.Lock()
	if st.m == nil {
		st.m = make(map[[2]int]Record)
	}
	prev, existed := st.m[k]
	if !existed || r.Seq >= prev.Seq {
		st.m[k] = r
	}
	st.mu.Unlock()
	if !existed {
		fs.mem.size.Add(1)
	}
}

// Lookup implements Store.
func (fs *FileStore) Lookup(lo, hi int) (Record, bool) { return fs.mem.Lookup(lo, hi) }

// Len implements Store.
func (fs *FileStore) Len() int { return fs.mem.Len() }

// Snapshot implements Store.
func (fs *FileStore) Snapshot() []Record { return fs.mem.Snapshot() }

// Commit implements Store: the record is indexed, appended to the file
// and flushed — one encode into the writer's buffer and one write(2). A
// failed append keeps the in-memory record (the evidence is still good
// this process lifetime) but is reported on Close.
func (fs *FileStore) Commit(r Record) bool {
	if !r.valid() {
		return false
	}
	stamped, grew := fs.mem.commit(r)
	fs.mu.Lock()
	if fs.w != nil {
		if line, ok := appendRecordJSON(fs.w.AvailableBuffer(), stamped); ok {
			fs.w.Write(append(line, '\n'))
			fs.w.Flush()
			fs.lines++
			dead := fs.lines - fs.mem.Len()
			if dead > fs.mem.Len() && fs.lines > compactFloor {
				fs.compactLocked()
			}
		}
	}
	fs.mu.Unlock()
	return grew
}

// Compact rewrites the file with one line per live pair, sorted, via an
// atomic temp-file rename — readers of the path never observe a partial
// file, and a crash mid-compact leaves the original intact. Every line is
// encoded into one buffer first, so the temp file takes one write(2)
// before its fsync.
func (fs *FileStore) Compact() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.compactLocked()
}

func (fs *FileStore) compactLocked() error {
	recs := fs.mem.sorted()
	buf := make([]byte, 0, len(recs)*recordLineHint)
	for _, r := range recs {
		var ok bool
		if buf, ok = appendRecordJSON(buf, *r); !ok {
			_, err := json.Marshal(*r) // names the value json.Marshal refuses
			return fmt.Errorf("jstore: compact %s: %w", fs.path, err)
		}
		buf = append(buf, '\n')
	}
	dir := filepath.Dir(fs.path)
	tmp, err := os.CreateTemp(dir, filepath.Base(fs.path)+".compact-*")
	if err != nil {
		return fmt.Errorf("jstore: compact %s: %w", fs.path, err)
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("jstore: compact %s: %w", fs.path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("jstore: compact %s: %w", fs.path, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("jstore: compact %s: %w", fs.path, err)
	}
	if err := os.Rename(tmp.Name(), fs.path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("jstore: compact %s: %w", fs.path, err)
	}
	// Swap the append handle to the new file.
	if fs.w != nil {
		fs.w.Flush()
	}
	if fs.f != nil {
		fs.f.Close()
	}
	f, err := os.OpenFile(fs.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		fs.f, fs.w = nil, nil
		return fmt.Errorf("jstore: reopen %s after compact: %w", fs.path, err)
	}
	fs.f = f
	fs.w = bufio.NewWriter(f)
	fs.lines = len(recs)
	return nil
}

// Close flushes and closes the file and releases the writer lock. The
// in-memory index stays readable.
func (fs *FileStore) Close() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var err error
	if fs.w != nil {
		err = fs.w.Flush()
		fs.w = nil
	}
	if fs.f != nil {
		if cerr := fs.f.Close(); err == nil {
			err = cerr
		}
		fs.f = nil
	}
	if fs.lock != nil {
		if lerr := fs.lock.Release(); err == nil {
			err = lerr
		}
		fs.lock = nil
	}
	return err
}

// Path returns the backing file path.
func (fs *FileStore) Path() string { return fs.path }

// recordLineHint is about the longest line a Record encodes to (two
// 17-digit floats per bag, a policy name, a nanosecond clock), so a
// compaction buffer sized from it rarely grows.
const recordLineHint = 256

// appendRecordJSON renders r exactly as json.Marshal would — same field
// order, same omitempty fields, same float formatting — without
// reflection; a warm query's commits made the reflective encoder the
// store's largest cost. Like json.Marshal it refuses a NaN or infinite
// float, reporting false. Byte equivalence is pinned by
// TestRecordJSONMatchesStdlib and FuzzRecordJSON: files written before
// and after this encoder must not differ.
func appendRecordJSON(buf []byte, r Record) ([]byte, bool) {
	for _, f := range [...]float64{r.Mean, r.M2, r.BinMean, r.BinM2, r.Confidence} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return buf, false
		}
	}
	buf = append(buf, `{"lo":`...)
	buf = strconv.AppendInt(buf, int64(r.Lo), 10)
	buf = append(buf, `,"hi":`...)
	buf = strconv.AppendInt(buf, int64(r.Hi), 10)
	buf = append(buf, `,"o":`...)
	buf = strconv.AppendInt(buf, int64(r.Outcome), 10)
	if r.Exhausted {
		buf = append(buf, `,"exh":true`...)
	}
	buf = append(buf, `,"n":`...)
	buf = strconv.AppendInt(buf, int64(r.N), 10)
	buf = append(buf, `,"mean":`...)
	buf = jsonl.AppendFloat(buf, r.Mean)
	buf = append(buf, `,"m2":`...)
	buf = jsonl.AppendFloat(buf, r.M2)
	buf = append(buf, `,"bin_n":`...)
	buf = strconv.AppendInt(buf, int64(r.BinN), 10)
	buf = append(buf, `,"bin_mean":`...)
	buf = jsonl.AppendFloat(buf, r.BinMean)
	buf = append(buf, `,"bin_m2":`...)
	buf = jsonl.AppendFloat(buf, r.BinM2)
	buf = append(buf, `,"conf":`...)
	buf = jsonl.AppendFloat(buf, r.Confidence)
	if r.Policy != "" {
		buf = append(buf, `,"pol":`...)
		buf = jsonl.AppendString(buf, r.Policy)
	}
	buf = append(buf, `,"seq":`...)
	buf = strconv.AppendUint(buf, r.Seq, 10)
	buf = append(buf, `,"at":`...)
	buf = strconv.AppendInt(buf, r.UnixNano, 10)
	return append(buf, '}'), true
}
