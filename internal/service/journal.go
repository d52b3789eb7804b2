package service

import (
	"container/heap"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"crowdtopk/internal/jsonl"
)

// JournalEntry is one line of the query journal: a query was accepted,
// or reached a terminal state. Replayed at boot, the journal tells a
// restarted daemon which queries died in flight (accepted, never
// finished) so it can re-admit them against the replayed audit log, and
// which already finished so their results survive the crash.
type JournalEntry struct {
	Op string `json:"op"` // "accept" or "finish"
	ID string `json:"id"`
	// Req is set on accept entries.
	Req *Request `json:"req,omitempty"`
	// Status is the terminal snapshot, set on finish entries.
	Status   *Status `json:"status,omitempty"`
	UnixNano int64   `json:"unix_nano"`
}

// Journal persists the accept/finish lifecycle of queries. Both calls
// must be durable before returning: a journal that lags the state it
// records would resurrect finished queries or lose accepted ones.
type Journal interface {
	Accepted(id string, req Request) error
	Finished(st Status) error
}

// FileJournal is the JSONL Journal: one entry per line, fsync per entry
// (queries are rare next to microtasks; per-entry durability is cheap at
// this rate). A torn final line — crash mid-append — is tolerated on
// reload; corruption mid-file is refused.
type FileJournal struct {
	mu sync.Mutex
	f  *os.File
}

// OpenFileJournal opens (creating if absent) the journal at path and
// returns the entries already recorded, in order.
func OpenFileJournal(path string) (*FileJournal, []JournalEntry, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("service: journal: %w", err)
	}
	var entries []JournalEntry
	bad, err := jsonl.Read(f, func(line []byte) bool {
		var e JournalEntry
		if err := json.Unmarshal(line, &e); err != nil || (e.Op != "accept" && e.Op != "finish") || e.ID == "" {
			return false
		}
		entries = append(entries, e)
		return true
	})
	if bad > 0 {
		err = fmt.Errorf("service: journal %s: corrupt entry mid-file (%d bad lines before a valid one)", path, bad)
	} else if err != nil {
		err = fmt.Errorf("service: journal %s: %w", path, err)
	}
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("service: journal %s: %w", path, err)
	}
	return &FileJournal{f: f}, entries, nil
}

func (j *FileJournal) append(e JournalEntry) error {
	line, err := json.Marshal(e)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("service: journal is closed")
	}
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		return err
	}
	return j.f.Sync()
}

// Accepted implements Journal.
func (j *FileJournal) Accepted(id string, req Request) error {
	return j.append(JournalEntry{Op: "accept", ID: id, Req: &req, UnixNano: time.Now().UnixNano()})
}

// Finished implements Journal.
func (j *FileJournal) Finished(st Status) error {
	return j.append(JournalEntry{Op: "finish", ID: st.ID, Status: &st, UnixNano: time.Now().UnixNano()})
}

// Restore replays a previous process's journal into a freshly built
// server, before it starts serving: queries with a recorded terminal
// snapshot are reinstated verbatim (their results survived the crash),
// and queries that were accepted but never finished are re-admitted
// under their original IDs — against a session resumed from the audit
// log, their replayed work costs nothing new. Restore keeps the ID
// counter ahead of everything replayed, so new submissions never
// collide. It reports how many queries were re-admitted and how many
// reinstated.
//
// Restored queries are not re-journaled: their accept entries are
// already durable, and re-admitted ones write a fresh finish entry when
// they conclude in this process.
func (s *Server) Restore(entries []JournalEntry) (pending, finished int) {
	finishes := make(map[string]*Status)
	for _, e := range entries {
		if e.Op == "finish" && e.Status != nil {
			finishes[e.ID] = e.Status
		}
	}
	s.mu.Lock()
	var maxID int64
	for _, e := range entries {
		if e.Op != "accept" || e.Req == nil || s.queries[e.ID] != nil {
			continue
		}
		if n, err := strconv.ParseInt(strings.TrimPrefix(e.ID, "q"), 10, 64); err == nil && n > maxID {
			maxID = n
		}
		q := &query{
			id:       e.ID,
			req:      *e.Req,
			accepted: time.Unix(0, e.UnixNano),
			done:     make(chan struct{}),
		}
		if st, ok := finishes[e.ID]; ok {
			cp := *st
			q.restored = &cp
			q.state = st.State
			if q.state != "done" && q.state != "canceled" {
				q.state = "done"
			}
			q.canceled = st.Canceled
			q.claimed.Store(true)
			close(q.done)
			finished++
		} else {
			q.state = "queued"
			s.nextSeq++
			heap.Push(&s.queue, &admitted{q: q, seq: s.nextSeq})
			s.queued++
			pending++
		}
		s.queries[e.ID] = q
		s.order = append(s.order, q)
	}
	if maxID > s.nextID {
		s.nextID = maxID
	}
	s.mu.Unlock()
	s.kick()
	return pending, finished
}

// Close closes the journal file.
func (j *FileJournal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
