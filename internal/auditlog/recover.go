package auditlog

import "crowdtopk/internal/crowd"

// dirState is the outcome of scanning an audit-log directory: what is
// live, what is deletable crash debris, and where the chain stands. It
// is a plan, not an action — Open applies the deletions and truncation,
// Load only reads.
type dirState struct {
	ckpt    *checkpointDoc
	manCkpt *manifestCheckpoint
	manSegs []manifestSegment
	sealed  []*parsedSegment
	active  *parsedSegment
	chain   [32]byte
	total   int64
	lastSeq int
	// leftovers are files recovery deletes: segments and checkpoints
	// already folded into the adopted checkpoint, half-finished folds the
	// manifest never committed to, a headerless newborn tail, and
	// orphaned atomic-write temp files.
	leftovers []string
}

func (st *dirState) activeCount() int64 {
	if st.active == nil {
		return 0
	}
	return int64(len(st.active.records))
}

func (st *dirState) nextSeq() int { return st.lastSeq + 1 }

// records assembles the full replayable history: checkpoint expansion,
// then sealed segments, then the active tail's valid prefix.
func (st *dirState) records() []crowd.Record {
	var recs []crowd.Record
	if st.ckpt != nil {
		recs = st.ckpt.expand()
	}
	for _, ps := range st.sealed {
		recs = append(recs, ps.records...)
	}
	if st.active != nil {
		recs = append(recs, st.active.records...)
	}
	return recs
}

// recoverDir returns the directory's recovery plan, or refuses with a
// *corruptError naming the first file Verify would flag: Open and Load
// accept exactly the directories Verify passes.
func recoverDir(dir string) (*dirState, error) {
	rep, st, err := walkDir(dir)
	if err != nil {
		return nil, err
	}
	if err := rep.firstBadErr(); err != nil {
		return nil, err
	}
	return st, nil
}

// Load reads the full replayable history of an audit-log directory
// without taking the writer lock or modifying anything: the checkpoint's
// expansion, then every sealed segment, then the valid prefix of the
// active tail. The result feeds crowd.NewReplay / ReplayThenLive
// directly, so a crashed daemon resumes at zero re-bought microtasks
// for everything that reached disk.
func Load(dir string) ([]crowd.Record, error) {
	st, err := recoverDir(dir)
	if err != nil {
		return nil, err
	}
	return st.records(), nil
}
