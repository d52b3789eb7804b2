// Package auditlog is the durable successor to the in-memory audit trail
// of internal/crowd: a segmented, tamper-evident, crash-recoverable log
// of every microtask a session buys.
//
// Records stream from the engine's hot path into a bounded queue and are
// committed by a single background goroutine, so the asker never waits
// on disk unless the queue is full (bounded memory beats unbounded
// buffering; the fsync policy decides how much tail a power cut may
// cost). Segments rotate by size or count; sealed segments carry a
// Merkle root chained across the directory; compaction folds sealed
// history into a checkpoint with one entry per pair, making resume cost
// proportional to pairs touched, not microtasks ever purchased.
package auditlog

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"crowdtopk/internal/crowd"
	"crowdtopk/internal/lockfile"
)

// ErrLogLocked reports that another process holds the audit-log
// directory's writer lock.
var ErrLogLocked = lockfile.ErrLocked

// ErrClosed reports an operation on a closed log.
var ErrClosed = errors.New("auditlog: log is closed")

// SyncPolicy selects when the committer fsyncs the active segment.
type SyncPolicy string

const (
	// SyncAlways fsyncs after every committed batch: no acknowledged
	// record is ever lost, at the price of one fsync per batch.
	SyncAlways SyncPolicy = "always"
	// SyncIntervalPolicy fsyncs on a timer while dirty: a crash loses at
	// most the last interval's records (they are re-bought on resume).
	SyncIntervalPolicy SyncPolicy = "interval"
	// SyncOff leaves durability to the OS page cache: fastest, and a
	// crash may lose everything since the last rotation (seals always
	// fsync regardless of policy).
	SyncOff SyncPolicy = "off"
)

// ParseSyncPolicy maps a flag string onto a SyncPolicy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch SyncPolicy(s) {
	case SyncAlways, SyncIntervalPolicy, SyncOff:
		return SyncPolicy(s), nil
	}
	return "", fmt.Errorf("auditlog: unknown sync policy %q (want always, interval or off)", s)
}

// Options tunes a Log. The zero value selects the defaults below.
type Options struct {
	// SegmentMaxRecords rotates the active segment once it holds this
	// many records. Default 4096.
	SegmentMaxRecords int
	// SegmentMaxBytes rotates the active segment once it reaches this
	// size. Default 1 MiB.
	SegmentMaxBytes int64
	// Sync is the fsync policy for record batches. Default SyncIntervalPolicy.
	Sync SyncPolicy
	// SyncInterval is the flush period under SyncIntervalPolicy. Default 100ms.
	SyncInterval time.Duration
	// QueueBatches bounds the commit queue; a full queue applies
	// backpressure to Append rather than buffering without limit.
	// Default 256.
	QueueBatches int
	// CompactEvery folds sealed segments into a checkpoint once this
	// many accumulate. Default 4; negative disables automatic folding
	// (explicit Checkpoint calls still fold).
	CompactEvery int

	// hooks injects simulated crashes at io boundaries (tests only).
	hooks *crashHooks
}

func (o Options) withDefaults() Options {
	if o.SegmentMaxRecords <= 0 {
		o.SegmentMaxRecords = 4096
	}
	if o.SegmentMaxBytes <= 0 {
		o.SegmentMaxBytes = 1 << 20
	}
	if o.Sync == "" {
		o.Sync = SyncIntervalPolicy
	}
	if o.SyncInterval <= 0 {
		o.SyncInterval = 100 * time.Millisecond
	}
	if o.QueueBatches <= 0 {
		o.QueueBatches = 256
	}
	if o.CompactEvery == 0 {
		o.CompactEvery = 4
	}
	return o
}

type ctlOp int

const (
	opFlush ctlOp = iota
	opCheckpoint
	opClose
	// opAbandon simulates kill -9 for tests: the committer exits without
	// flushing, sealing or checkpointing, leaving the directory exactly
	// as a dead process would.
	opAbandon
)

type ctlReq struct {
	op   ctlOp
	done chan error
}

// Log is a segmented audit log open for writing. One Log owns its
// directory exclusively (flock); Append is safe for concurrent use and
// never blocks on disk unless the bounded queue is full.
type Log struct {
	dir  string
	o    Options
	lock *lockfile.Lock

	queue chan *[]crowd.Record
	ctl   chan ctlReq
	done  chan struct{} // closed when the committer exits
	// batchPool recycles the producer-side batch copies: a query logs
	// thousands of small batches, and fresh allocations for each would
	// drive the GC hard enough to show up in query wall time.
	batchPool sync.Pool

	closed    atomic.Bool
	closeOnce sync.Once
	closeErr  error

	appended  atomic.Int64 // records accepted by Append this session
	committed atomic.Int64 // records written to segments this session
	total     atomic.Int64 // records on disk overall (inherited + committed)

	failMu  sync.Mutex
	failErr error

	// Committer-goroutine state: the active segment and manifest.
	f      *os.File
	seq    int
	base   int64
	count  int
	size   int64
	leaves [][32]byte
	chain  [32]byte // chain root after the last sealed segment
	dirty  bool
	man    manifest
	// sealed is the fold state: the manifest checkpoint's values plus
	// every record sealed since, i.e. exactly what the next fold writes.
	// When Open adopts folded or sealed history it is nil until the first
	// fold loads it from disk; from then on seal keeps it current, so
	// folds never re-read history.
	sealed *folder
	// activeRecs mirrors the active segment's records, for seal to fold
	// into sealed.
	activeRecs []crowd.Record
	// wbuf stages encoded records across one drain cycle so many queued
	// batches land in a single write(2); reused between cycles.
	wbuf []byte
	// wake nudges a lazily-scheduled committer (Sync != SyncAlways) once
	// the queue is half full; 1-buffered, so a nudge is never lost.
	wake chan struct{}
}

// Open acquires the directory (creating it if needed), recovers from any
// crash it finds — truncating a torn active tail, discarding
// half-finished folds, deleting already-folded leftovers — and starts
// the background committer. It refuses exactly the directories Verify
// flags, naming the first damaged file and changing none of the log's
// files.
func Open(dir string, o Options) (*Log, error) {
	o = o.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("auditlog: %w", err)
	}
	lock, err := lockfile.Acquire(filepath.Join(dir, lockName))
	if err != nil {
		return nil, err
	}
	st, err := recoverDir(dir)
	if err != nil {
		lock.Release()
		return nil, err
	}
	// Apply the recovery plan: drop folded leftovers and half-finished
	// folds, cut the torn tail back to its last whole record.
	for _, name := range st.leftovers {
		if err := os.Remove(filepath.Join(dir, name)); err != nil && !os.IsNotExist(err) {
			lock.Release()
			return nil, fmt.Errorf("auditlog: removing leftover %s: %w", name, err)
		}
	}
	if st.active != nil && st.active.torn {
		if err := os.Truncate(filepath.Join(dir, st.active.file), st.active.validLen); err != nil {
			lock.Release()
			return nil, fmt.Errorf("auditlog: truncating torn tail of %s: %w", st.active.file, err)
		}
	}

	l := &Log{
		dir:   dir,
		o:     o,
		lock:  lock,
		queue: make(chan *[]crowd.Record, o.QueueBatches),
		ctl:   make(chan ctlReq),
		done:  make(chan struct{}),
		wake:  make(chan struct{}, 1),
		chain: st.chain,
	}
	l.total.Store(st.total)
	l.man = manifest{Kind: "manifest", Checkpoint: st.manCkpt, Segments: st.manSegs, Records: st.total - st.activeCount()}
	if l.man.Checkpoint == nil && len(l.man.Segments) == 0 {
		// No folded or sealed history: the fold state is known to be
		// empty, so even the first fold need not read anything.
		l.sealed = newFolder()
	}

	if st.active != nil {
		// Adopt the recovered tail and keep appending to it.
		path := filepath.Join(dir, st.active.file)
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			lock.Release()
			return nil, fmt.Errorf("auditlog: reopening active segment: %w", err)
		}
		// The adopted bytes predate this process; sync once so recovery
		// decisions (the truncate above) are durable before new appends.
		if err := f.Sync(); err != nil {
			f.Close()
			lock.Release()
			return nil, fmt.Errorf("auditlog: syncing recovered segment: %w", err)
		}
		l.f = f
		l.seq = st.active.header.Seq
		l.base = st.active.header.Base
		l.count = len(st.active.records)
		l.activeRecs = st.active.records
		l.size = st.active.validLen
		l.leaves = st.active.leaves
		l.man.ActiveSeq = l.seq
		if err := l.writeManifest(); err != nil {
			f.Close()
			lock.Release()
			return nil, err
		}
	} else {
		l.openSegment(st.nextSeq())
		if err := l.loadErr(); err != nil {
			if l.f != nil {
				l.f.Close()
			}
			lock.Release()
			return nil, err
		}
	}

	go l.run()
	return l, nil
}

// Append queues records for commit. It blocks only when the bounded
// queue is full (backpressure, not unbounded buffering) and returns
// without error after the log has failed — the first commit error is
// latched and reported by Err, Flush and Close, so the hot path never
// gains an error branch.
func (l *Log) Append(recs []crowd.Record) {
	if len(recs) == 0 || l.closed.Load() {
		return
	}
	var batch *[]crowd.Record
	if v := l.batchPool.Get(); v != nil {
		batch = v.(*[]crowd.Record)
	} else {
		batch = new([]crowd.Record)
	}
	*batch = append((*batch)[:0], recs...)
	select {
	case l.queue <- batch:
		l.appended.Add(int64(len(recs)))
		// Lazily-scheduled committer: waking it per batch would cost a
		// context switch per Append, so let batches pool in the queue and
		// nudge only once it is half full — the sync ticker and control
		// ops bound how long a quiet queue sits. SyncAlways commits (and
		// fsyncs) every batch promptly, so there the committer watches
		// the queue directly and needs no nudge.
		if l.o.Sync != SyncAlways && len(l.queue) >= l.wakeAt() {
			select {
			case l.wake <- struct{}{}:
			default:
			}
		}
	case <-l.done:
		// Racing a Close: the committer is gone; drop rather than wedge
		// the producer. Sessions quiesce before closing their log, so
		// this path only fires on misuse.
		l.batchPool.Put(batch)
	}
}

// Record queues a single record (crowd.RecordSink).
func (l *Log) Record(recs []crowd.Record) { l.Append(recs) }

// Flush drains the queue and fsyncs the active segment regardless of
// the sync policy, then reports the first commit error, if any.
func (l *Log) Flush() error { return l.control(opFlush) }

// Checkpoint seals the active segment (if it holds records), folds all
// sealed segments into a fresh checkpoint, and opens a new active
// segment. Resume cost after a Checkpoint is proportional to the pairs
// ever touched, not to the records ever purchased.
func (l *Log) Checkpoint() error { return l.control(opCheckpoint) }

// Close drains the queue, writes a final checkpoint, closes the active
// segment and releases the directory lock. Safe to call twice.
func (l *Log) Close() error {
	l.closeOnce.Do(func() {
		l.closed.Store(true)
		l.closeErr = l.control(opClose)
		if rerr := l.lock.Release(); l.closeErr == nil {
			l.closeErr = rerr
		}
	})
	return l.closeErr
}

func (l *Log) control(op ctlOp) error {
	req := ctlReq{op: op, done: make(chan error, 1)}
	select {
	case l.ctl <- req:
		return <-req.done
	case <-l.done:
		if err := l.Err(); err != nil {
			return err
		}
		return ErrClosed
	}
}

// Err returns the first commit error, if any. Once a commit fails the
// log stops writing: later appends are counted but dropped, and the
// error surfaces here and from Flush/Close.
func (l *Log) Err() error {
	l.failMu.Lock()
	defer l.failMu.Unlock()
	return l.failErr
}

// Appended returns the records accepted by Append this session.
func (l *Log) Appended() int64 { return l.appended.Load() }

// Committed returns the records written to segment files this session.
func (l *Log) Committed() int64 { return l.committed.Load() }

// Total returns the records on disk overall, including history
// inherited from previous sessions of this directory.
func (l *Log) Total() int64 { return l.total.Load() }

func (l *Log) fail(err error) {
	l.failMu.Lock()
	if l.failErr == nil {
		l.failErr = err
	}
	l.failMu.Unlock()
}

func (l *Log) loadErr() error {
	l.failMu.Lock()
	defer l.failMu.Unlock()
	return l.failErr
}

// wakeAt is the queue depth that triggers an eager committer nudge:
// half the capacity, so producers never reach a full queue with the
// nudge still unsent.
func (l *Log) wakeAt() int {
	return (cap(l.queue) + 1) / 2
}

// run is the committer: the only goroutine that touches the files.
//
// Scheduling depends on the sync policy. SyncAlways watches the queue
// and commits (write + fsync) every batch as it arrives. The other
// policies are lazy: batches pool in the queue until a half-full nudge
// from Append, the sync ticker, or a control op drains them all into a
// single write — on small machines per-batch wakeups would cost more
// than the encoding itself.
func (l *Log) run() {
	defer close(l.done)
	eager := l.o.Sync == SyncAlways
	var incoming chan *[]crowd.Record
	var tick <-chan time.Time
	if eager {
		incoming = l.queue
	} else {
		t := time.NewTicker(l.o.SyncInterval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case batch := <-incoming:
			l.stageBatch(batch)
			l.drainQueued()
			l.flushStaged()
			l.syncNow()
		case <-l.wake:
			l.drainQueued()
			l.flushStaged()
		case <-tick:
			l.drainQueued()
			l.flushStaged()
			if l.dirty && l.o.Sync == SyncIntervalPolicy {
				l.syncNow()
			}
		case req := <-l.ctl:
			l.drainQueued()
			l.flushStaged()
			switch req.op {
			case opFlush:
				l.syncNow()
			case opCheckpoint:
				l.checkpointNow(true, true)
			case opClose:
				// A clean close writes the final checkpoint so the next boot
				// resumes in O(pairs); with compaction disabled it only seals,
				// preserving per-segment history.
				l.checkpointNow(l.o.CompactEvery > 0, false)
				if l.f != nil {
					l.syncNow()
					if err := l.f.Close(); err != nil {
						l.fail(err)
					}
					l.f = nil
				}
				req.done <- l.loadErr()
				return
			case opAbandon:
				if l.f != nil {
					_ = l.f.Close() // an open fd flushes nothing; kernel cache survives
					l.f = nil
				}
				req.done <- nil
				return
			}
			req.done <- l.loadErr()
		}
	}
}

// drainQueued folds everything already queued into the current commit
// cycle without blocking, so one write and one fsync cover many appends.
func (l *Log) drainQueued() {
	for {
		select {
		case batch := <-l.queue:
			l.stageBatch(batch)
		default:
			return
		}
	}
}

// stageBatch validates and encodes a queued batch into the staging
// buffer, recycling the batch's backing array afterwards. The bytes
// reach the file at the next flushStaged — always within the same
// select iteration, so no staged record ever outlives a commit cycle.
func (l *Log) stageBatch(batch *[]crowd.Record) {
	recs := *batch
	defer l.batchPool.Put(batch)
	if l.loadErr() != nil || len(recs) == 0 {
		return
	}
	staged := len(l.wbuf)
	for _, r := range recs {
		if err := crowd.ValidateRecord(r); err != nil {
			l.wbuf = l.wbuf[:staged]
			l.leaves = l.leaves[:l.count]
			l.fail(fmt.Errorf("auditlog: refusing record: %w", err))
			return
		}
		start := len(l.wbuf)
		l.wbuf = appendRecordJSON(l.wbuf, r)
		l.leaves = append(l.leaves, leafHash(l.wbuf[start:]))
		l.wbuf = append(l.wbuf, '\n')
	}
	l.count += len(recs)
	l.activeRecs = append(l.activeRecs, recs...)
	l.size += int64(len(l.wbuf) - staged)
	l.committed.Add(int64(len(recs)))
	l.total.Add(int64(len(recs)))
	if l.count >= l.o.SegmentMaxRecords || l.size >= l.o.SegmentMaxBytes {
		l.flushStaged()
		l.rotate()
	}
}

// flushStaged lands the staging buffer in one write(2) and resets it
// (capacity retained). seal calls it too, so a segment can never seal
// over unwritten records.
func (l *Log) flushStaged() {
	if len(l.wbuf) == 0 {
		return
	}
	if l.loadErr() == nil {
		if err := l.o.hooks.write(l.f, l.wbuf); err != nil {
			l.fail(err)
		} else {
			l.dirty = true
		}
	}
	l.wbuf = l.wbuf[:0]
}

func (l *Log) syncNow() {
	if l.loadErr() != nil || l.f == nil || !l.dirty {
		return
	}
	if err := l.o.hooks.sync(l.f); err != nil {
		l.fail(err)
		return
	}
	l.dirty = false
}

// rotate seals the active segment, folds if enough sealed segments have
// accumulated, and opens the successor.
func (l *Log) rotate() {
	l.seal()
	if l.o.CompactEvery > 0 && len(l.man.Segments) >= l.o.CompactEvery {
		l.fold()
	}
	l.openSegment(l.seq + 1)
}

// seal finalizes the active segment: fsync the records, append the seal
// line committing to the Merkle root and advanced chain, fsync again,
// then pin root and chain in the manifest. After the final fsync the
// segment is immutable; everything after it is bookkeeping that recovery
// can redo.
func (l *Log) seal() {
	l.flushStaged()
	if l.loadErr() != nil {
		return
	}
	if err := l.o.hooks.sync(l.f); err != nil {
		l.fail(err)
		return
	}
	root := merkleRoot(l.leaves)
	next := chainRoot(l.chain, root)
	seal := segmentSeal{Kind: "seal", Count: l.count, Root: hex.EncodeToString(root[:]), Chain: hexChain(next)}
	line, err := json.Marshal(seal)
	if err != nil {
		l.fail(err)
		return
	}
	if err := l.o.hooks.write(l.f, append(line, '\n')); err != nil {
		l.fail(err)
		return
	}
	if err := l.o.hooks.sync(l.f); err != nil {
		l.fail(err)
		return
	}
	if err := l.f.Close(); err != nil {
		l.fail(err)
		return
	}
	l.f = nil
	l.dirty = false
	l.man.Segments = append(l.man.Segments, manifestSegment{
		File: segmentFile(l.seq), Seq: l.seq, Base: l.base, Count: l.count,
		Root: seal.Root, Chain: seal.Chain,
	})
	l.man.Records += int64(l.count)
	if l.sealed != nil {
		l.sealed.addRecords(l.activeRecs)
	}
	// No unsealed segment exists until openSegment creates the successor;
	// a manifest pointing at a sealed (or folded-away) seq as active
	// would send Verify chasing a ghost.
	l.man.ActiveSeq = 0
	l.chain = next
	if err := l.writeManifest(); err != nil {
		l.fail(err)
	}
}

// fold compacts the prior checkpoint plus every sealed segment into a
// fresh checkpoint, commits it through the manifest, and only then
// deletes the folded files. A crash at any point leaves either the old
// world (manifest still names it) or the new one plus deletable
// leftovers — never a world missing records.
//
// The checkpoint is written from the in-memory fold state; only the
// first fold after an Open that adopted history reads the folded files.
// A fold leaves that state untouched whether or not it succeeds: it
// already equals both the old world (checkpoint plus segments) and the
// new one (the checkpoint alone).
func (l *Log) fold() {
	if l.loadErr() != nil || len(l.man.Segments) == 0 {
		return
	}
	if l.sealed == nil {
		fo, err := l.readSealed()
		if err != nil {
			l.fail(err)
			return
		}
		l.sealed = fo
	}
	var folded []string
	if l.man.Checkpoint != nil {
		folded = append(folded, l.man.Checkpoint.File)
	}
	for _, ms := range l.man.Segments {
		folded = append(folded, ms.File)
	}
	upTo := l.man.Segments[len(l.man.Segments)-1].Seq
	doc := l.sealed.doc(upTo, hexChain(l.chain))
	data := appendCheckpointJSON(make([]byte, 0, checkpointSizeHint(doc)), doc)
	name := checkpointFile(upTo)
	if err := writeFileAtomic(filepath.Join(l.dir, name), data, l.o.hooks); err != nil {
		l.fail(err)
		return
	}
	sum := sha256.Sum256(data)
	l.man.Checkpoint = &manifestCheckpoint{
		File: name, UpTo: upTo, Records: doc.Records,
		Chain: doc.Chain, SHA256: hex.EncodeToString(sum[:]),
	}
	l.man.Segments = nil
	if err := l.writeManifest(); err != nil {
		l.fail(err)
		return
	}
	for _, f := range folded {
		if f == name {
			continue
		}
		if err := l.o.hooks.remove(filepath.Join(l.dir, f)); err != nil && !os.IsNotExist(err) {
			l.fail(err)
			return
		}
	}
}

// readSealed folds the manifest's checkpoint and sealed segments from
// disk: the fold state of a log that has not folded since Open.
func (l *Log) readSealed() (*folder, error) {
	fo := newFolder()
	if l.man.Checkpoint != nil {
		doc, _, err := readCheckpoint(filepath.Join(l.dir, l.man.Checkpoint.File))
		if err != nil {
			return nil, err
		}
		fo.addDoc(doc)
	}
	for _, ms := range l.man.Segments {
		ps, err := readSegment(filepath.Join(l.dir, ms.File))
		if err != nil {
			return nil, err
		}
		fo.addRecords(ps.records)
	}
	return fo, nil
}

// openSegment creates segment seq, writes its header (committing to the
// current chain root) and records it as active in the manifest.
func (l *Log) openSegment(seq int) {
	if l.loadErr() != nil {
		return
	}
	path := filepath.Join(l.dir, segmentFile(seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		l.fail(fmt.Errorf("auditlog: creating segment: %w", err))
		return
	}
	hdr := segmentHeader{Kind: "header", Seq: seq, Prev: hexChain(l.chain), Base: l.total.Load()}
	line, err := json.Marshal(hdr)
	if err != nil {
		l.fail(err)
		f.Close()
		return
	}
	if err := l.o.hooks.write(f, append(line, '\n')); err != nil {
		l.fail(err)
		f.Close()
		return
	}
	if err := l.o.hooks.sync(f); err != nil {
		l.fail(err)
		f.Close()
		return
	}
	l.f = f
	l.seq = seq
	l.base = l.total.Load()
	l.count = 0
	l.activeRecs = l.activeRecs[:0]
	l.size = int64(len(line) + 1)
	// Reuse the sealed predecessor's leaf array: rotation would otherwise
	// reallocate (and GC) SegmentMaxRecords hashes per segment.
	l.leaves = append(l.leaves[:0], leafHash(line))
	l.dirty = false
	l.man.ActiveSeq = seq
	if err := l.writeManifest(); err != nil {
		l.fail(err)
	}
}

// checkpointNow seals the active segment when it holds records,
// optionally folds everything sealed, and (when reopen is set) opens a
// fresh active segment for further appends.
func (l *Log) checkpointNow(fold, reopen bool) {
	if l.loadErr() != nil {
		return
	}
	if l.count > 0 {
		l.seal()
	}
	if fold && len(l.man.Segments) > 0 {
		l.fold()
	}
	if reopen && l.f == nil && l.loadErr() == nil {
		l.openSegment(l.seq + 1)
	}
}

// abandon simulates kill -9 (tests only): the committer stops without
// any cleanup io and the flock is released the way the kernel would on
// process death. Whatever the directory holds at this instant is what
// the next Open must recover from.
func (l *Log) abandon() {
	l.closeOnce.Do(func() {
		l.closed.Store(true)
		l.closeErr = l.control(opAbandon)
		_ = l.lock.Release()
	})
}

func (l *Log) writeManifest() error {
	data, err := json.MarshalIndent(&l.man, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(l.dir, manifestName), append(data, '\n'), l.o.hooks)
}
