// Package lockfile guards on-disk stores against concurrent writers from
// different processes: an advisory exclusive lock (flock on unix) on a
// sidecar lock file carrying the holder's PID as a human-readable hint.
//
// The lock is tied to the open file description, so it is released
// automatically when the holding process exits — even on SIGKILL — which
// is exactly the crash semantics an append-only store wants: a dead
// holder never wedges the store, a live one is never corrupted by a
// second writer.
package lockfile

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// ErrLocked reports that another process holds the lock. Errors returned
// by Acquire wrap it together with the holder's PID hint; detect with
// errors.Is.
var ErrLocked = errors.New("lockfile: held by another process")

// Lock is one held lock. Release it when the guarded store closes; a
// crashed holder releases implicitly when the OS closes its descriptors.
type Lock struct {
	f *os.File
}

// Acquire takes the exclusive lock at path (creating the file if absent)
// and records the caller's PID in it. When another process holds the
// lock, the returned error wraps ErrLocked and names the holder's PID
// when the hint is readable.
func Acquire(path string) (*Lock, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("lockfile: open %s: %w", path, err)
	}
	if err := flock(f); err != nil {
		// The PID hint is best-effort: the holder wrote it after locking,
		// and it beats a bare "resource temporarily unavailable".
		hint := ""
		if data, rerr := os.ReadFile(path); rerr == nil {
			if pid, perr := strconv.Atoi(strings.TrimSpace(string(data))); perr == nil {
				hint = fmt.Sprintf(" (pid %d)", pid)
			}
		}
		f.Close()
		return nil, fmt.Errorf("lockfile: %s: %w%s", path, ErrLocked, hint)
	}
	// Record the holder. Truncate first: a stale longer PID must not leave
	// trailing digits behind.
	if err := f.Truncate(0); err == nil {
		_, _ = f.WriteAt([]byte(strconv.Itoa(os.Getpid())+"\n"), 0)
		_ = f.Sync()
	}
	return &Lock{f: f}, nil
}

// Release drops the lock. The lock file itself is left in place — it is a
// rendezvous point, not state, and removing it would race a concurrent
// Acquire on the unlinked inode.
func (l *Lock) Release() error {
	if l == nil || l.f == nil {
		return nil
	}
	err := funlock(l.f)
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}
