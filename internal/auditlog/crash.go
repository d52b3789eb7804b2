package auditlog

import (
	"errors"
	"os"
	"sync/atomic"
)

// errSimulatedCrash is the death certificate of an injected crash: the
// hook performed part (or none) of the io and the writer must behave as
// if the process died there — no compensation, no cleanup, recovery is
// the next Open's job.
var errSimulatedCrash = errors.New("auditlog: simulated crash")

// crashHooks funnels every byte the log puts on disk, so tests can kill
// the writer at any io step — mid-record (torn write), between a seal
// and its manifest update, between a checkpoint rename and the folded
// segments' deletion. A schedule is (KillAt, Partial): the KillAt-th io
// step dies after writing only Partial bytes of its payload. Like
// FaultyPlatform schedules it is deterministic and replayable: the same
// schedule against the same append sequence dies at the same byte.
//
// A nil *crashHooks is the production path: direct io, no counting.
type crashHooks struct {
	// KillAt is the 1-based io step to die at; 0 never dies.
	KillAt int64
	// Partial caps the bytes actually written by the dying write step
	// (ignored for sync/rename/remove steps, which die whole).
	Partial int

	step atomic.Int64
	dead atomic.Bool
	// DiedOp records which operation the crash landed on, for test
	// diagnostics ("write", "sync", "rename", "remove").
	DiedOp atomic.Value
	// DiedPath records the file that operation targeted (the destination
	// of a rename).
	DiedPath atomic.Value
}

// Steps returns how many io steps have executed — run a schedule with
// KillAt 0 first to learn the step universe, then replay killing each.
func (h *crashHooks) Steps() int64 { return h.step.Load() }

// Died reports whether the schedule has fired.
func (h *crashHooks) Died() bool { return h != nil && h.dead.Load() }

// trip returns true when this step is the scheduled death.
func (h *crashHooks) trip(op, path string) bool {
	if h.dead.Load() {
		return true
	}
	if h.step.Add(1) == h.KillAt {
		h.DiedOp.Store(op)
		h.DiedPath.Store(path)
		h.dead.Store(true)
		return true
	}
	return false
}

func (h *crashHooks) write(f *os.File, data []byte) error {
	if h == nil {
		_, err := f.Write(data)
		return err
	}
	if h.trip("write", f.Name()) {
		n := h.Partial
		if n > len(data) {
			n = len(data)
		}
		if n > 0 {
			_, _ = f.Write(data[:n])
		}
		return errSimulatedCrash
	}
	_, err := f.Write(data)
	return err
}

func (h *crashHooks) sync(f *os.File) error {
	if h == nil {
		return f.Sync()
	}
	if h.trip("sync", f.Name()) {
		return errSimulatedCrash
	}
	return f.Sync()
}

func (h *crashHooks) rename(oldpath, newpath string) error {
	if h == nil {
		return os.Rename(oldpath, newpath)
	}
	if h.trip("rename", newpath) {
		return errSimulatedCrash
	}
	return os.Rename(oldpath, newpath)
}

func (h *crashHooks) remove(path string) error {
	if h == nil {
		return os.Remove(path)
	}
	if h.trip("remove", path) {
		return errSimulatedCrash
	}
	return os.Remove(path)
}
