package service

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"crowdtopk"
)

func TestFileJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queries.jsonl")
	j, entries, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("fresh journal returned %d entries", len(entries))
	}
	req := Request{K: 3, Priority: 2}
	if err := j.Accepted("q1", req); err != nil {
		t.Fatal(err)
	}
	st := Status{ID: "q1", State: "done", K: 3, TMC: 42, TopK: []int{4, 1, 7}, FinishedAtUnixNano: 99}
	if err := j.Finished(st); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, entries, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(entries) != 2 {
		t.Fatalf("reloaded %d entries, want 2", len(entries))
	}
	if entries[0].Op != "accept" || entries[0].ID != "q1" || entries[0].Req == nil || entries[0].Req.K != 3 {
		t.Fatalf("accept entry mangled: %+v", entries[0])
	}
	fin := entries[1]
	if fin.Op != "finish" || fin.Status == nil || fin.Status.TMC != 42 || len(fin.Status.TopK) != 3 {
		t.Fatalf("finish entry mangled: %+v", fin)
	}
}

func TestFileJournalToleratesTornTailRefusesMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queries.jsonl")
	j, _, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	_ = j.Accepted("q1", Request{K: 2})
	_ = j.Accepted("q2", Request{K: 2})
	j.Close()

	// A torn final line — crash mid-append — must be tolerated.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(append([]byte{}, data...), []byte(`{"op":"acce`)...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	j2, entries, err := OpenFileJournal(path)
	if err != nil {
		t.Fatalf("torn tail refused: %v", err)
	}
	j2.Close()
	if len(entries) != 2 {
		t.Fatalf("torn-tail reload returned %d entries, want 2", len(entries))
	}

	// Garbage with a valid entry after it is mid-file corruption: committed
	// entries would be silently dropped, so the journal must refuse.
	lines := append([]byte("garbage line\n"), data...)
	if err := os.WriteFile(path, lines, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenFileJournal(path); err == nil {
		t.Fatal("mid-file corruption accepted")
	}
}

// memJournal records entries in memory so tests can assert what a
// restored server writes without re-reading files.
type memJournal struct {
	mu      sync.Mutex
	entries []JournalEntry
}

func (m *memJournal) Accepted(id string, req Request) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.entries = append(m.entries, JournalEntry{Op: "accept", ID: id, Req: &req})
	return nil
}

func (m *memJournal) Finished(st Status) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.entries = append(m.entries, JournalEntry{Op: "finish", ID: st.ID, Status: &st})
	return nil
}

func (m *memJournal) finishes() map[string]Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := map[string]Status{}
	for _, e := range m.entries {
		if e.Op == "finish" {
			out[e.ID] = *e.Status
		}
	}
	return out
}

// TestServerRestore replays a dead daemon's journal into a fresh server:
// the finished query's snapshot is served verbatim, the in-flight one is
// re-admitted under its original ID and runs to a fresh finish entry, and
// new submissions never collide with replayed IDs.
func TestServerRestore(t *testing.T) {
	jr := &memJournal{}
	srv, hs, _ := newTestServer(t, crowdtopk.SyntheticDataset(30, 0.3, 7), Config{Journal: jr})

	recorded := Status{
		ID: "q1", State: "done", K: 4, TMC: 123, Rounds: 9,
		TopK: []int{3, 0, 8, 2}, FinishedAtUnixNano: time.Now().UnixNano(),
	}
	entries := []JournalEntry{
		{Op: "accept", ID: "q1", Req: &Request{K: 4}, UnixNano: 1},
		{Op: "finish", ID: "q1", Status: &recorded},
		{Op: "accept", ID: "q2", Req: &Request{K: 2}, UnixNano: 2},
	}
	pending, finished := srv.Restore(entries)
	if pending != 1 || finished != 1 {
		t.Fatalf("Restore = (%d pending, %d finished), want (1, 1)", pending, finished)
	}

	// The finished query serves its recorded snapshot, not live state.
	st := getStatus(t, hs.URL, "q1")
	if st.State != "done" || st.TMC != 123 || len(st.TopK) != 4 || st.TopK[0] != 3 {
		t.Fatalf("restored terminal status mangled: %+v", st)
	}

	// The in-flight query runs to completion under its original ID.
	st = waitDone(t, hs.URL, "q2")
	if st.State != "done" || len(st.TopK) != 2 {
		t.Fatalf("re-admitted query: %+v", st)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := jr.finishes()["q2"]; ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("re-admitted query never wrote a finish entry")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, ok := jr.finishes()["q1"]; ok {
		t.Fatal("restored terminal query was re-journaled")
	}

	// New submissions continue past the replayed IDs.
	nst, code := postQuery(t, hs.URL, Request{K: 2})
	if code != 202 {
		t.Fatalf("submit after restore: HTTP %d", code)
	}
	if nst.ID != "q3" {
		t.Fatalf("new query got ID %s, want q3 (counter must clear replayed IDs)", nst.ID)
	}
	if err := srv.JournalErr(); err != nil {
		t.Fatalf("journal error latched: %v", err)
	}
}

// TestServerRestoreCanceledSnapshot pins that a canceled terminal state
// survives restore as canceled, not as a runnable query.
func TestServerRestoreCanceledSnapshot(t *testing.T) {
	srv, hs, _ := newTestServer(t, crowdtopk.SyntheticDataset(20, 0.3, 7), Config{})
	recorded := Status{ID: "q1", State: "canceled", K: 2, Canceled: true, FinishedAtUnixNano: 5}
	pending, finished := srv.Restore([]JournalEntry{
		{Op: "accept", ID: "q1", Req: &Request{K: 2}, UnixNano: 1},
		{Op: "finish", ID: "q1", Status: &recorded},
	})
	if pending != 0 || finished != 1 {
		t.Fatalf("Restore = (%d, %d), want (0, 1)", pending, finished)
	}
	st := getStatus(t, hs.URL, "q1")
	if st.State != "canceled" || !st.Canceled {
		t.Fatalf("canceled snapshot restored as %+v", st)
	}
}

// TestAccountingAfterRestore pins the restart ledger: a journal with one
// finished query reinstates it, and /debug/accounting reports its spend
// as restored_tmc, apart from this process's meters, so the ledger
// balances before and after a query runs here.
func TestAccountingAfterRestore(t *testing.T) {
	srv, hs, _ := newTestServer(t, crowdtopk.SyntheticDataset(30, 0.3, 7), Config{})
	recorded := Status{ID: "q1", State: "done", K: 4, TMC: 8860, Rounds: 31, TopK: []int{3, 0, 8, 2}}
	if _, finished := srv.Restore([]JournalEntry{
		{Op: "accept", ID: "q1", Req: &Request{K: 4}, UnixNano: 1},
		{Op: "finish", ID: "q1", Status: &recorded},
	}); finished != 1 {
		t.Fatalf("Restore reinstated %d queries, want 1", finished)
	}
	accounting := func() Accounting {
		t.Helper()
		resp, err := http.Get(hs.URL + "/debug/accounting")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var acc Accounting
		if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
			t.Fatal(err)
		}
		return acc
	}
	if acc := accounting(); !acc.Balanced || acc.SessionTMC != 0 || acc.SumQueryTMC != 0 || acc.RestoredTMC != 8860 {
		t.Fatalf("after restore: %+v, want balanced, zero meters and restored_tmc 8860", acc)
	}
	st, code := postQuery(t, hs.URL, Request{K: 3})
	if code != http.StatusAccepted {
		t.Fatalf("submit after restore: HTTP %d", code)
	}
	live := waitDone(t, hs.URL, st.ID)
	acc := accounting()
	if !acc.Balanced || acc.SumQueryTMC != live.TMC || acc.RestoredTMC != 8860 || acc.SessionTMC == 0 {
		t.Fatalf("after a live query of tmc %d: %+v", live.TMC, acc)
	}
}

var _ Journal = (*memJournal)(nil)
