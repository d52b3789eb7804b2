package auditlog

import (
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// ElementReport is the verification verdict for one file in the
// directory: the checkpoint, a sealed segment, or the active tail.
type ElementReport struct {
	File    string `json:"file"`
	Seq     int    `json:"seq,omitempty"`
	Sealed  bool   `json:"sealed"`
	Records int    `json:"records"`
	OK      bool   `json:"ok"`
	Detail  string `json:"detail,omitempty"`
}

// VerifyReport is the outcome of auditing an audit-log directory
// against its manifest. When tampering is found, FirstBad names the
// earliest damaged file in chain order — the Merkle chain localizes
// damage to a segment, it does not merely detect that some byte
// somewhere changed.
type VerifyReport struct {
	OK       bool            `json:"ok"`
	FirstBad string          `json:"first_bad,omitempty"`
	Records  int64           `json:"records"`
	Elements []ElementReport `json:"elements"`
	Notes    []string        `json:"notes,omitempty"`
}

func (r *VerifyReport) flag(er ElementReport) {
	r.Elements = append(r.Elements, er)
	if er.OK {
		r.Records += int64(er.Records)
		return
	}
	r.OK = false
	if r.FirstBad == "" {
		r.FirstBad = er.File
	}
}

// firstBadErr is the damage Open and Load refuse with: the first bad
// element's file and detail, or nil for an intact directory.
func (r *VerifyReport) firstBadErr() error {
	for _, er := range r.Elements {
		if !er.OK {
			return &corruptError{file: er.File, reason: er.Detail}
		}
	}
	return nil
}

// Verify audits dir against its manifest: the checkpoint's SHA-256, each
// pinned segment's Merkle root and chain linkage, and the active tail's
// chain anchor. It never modifies the directory and does not take the
// writer lock, so it can audit a directory a daemon is writing — though
// a concurrent writer can make the active tail report a torn note.
//
// The returned error is reserved for io-level failures (unreadable
// directory); integrity problems are reported in the VerifyReport.
// Open and Load refuse exactly the directories it flags.
func Verify(dir string) (*VerifyReport, error) {
	rep, _, err := walkDir(dir)
	return rep, err
}

// detail renders a read or parse failure as an element verdict.
func detail(err error) string {
	var ce *corruptError
	if errors.As(err, &ce) {
		return ce.reason
	}
	return err.Error()
}

// walkDir is the one pass that judges an audit-log directory. It returns
// the per-file verdicts and, alongside them, the recovery plan Open
// applies when every verdict is good. Crash states — the empty or newborn
// directory, a torn or headerless tail, a sealed tail the manifest has
// not pinned yet, folded leftovers, uncommitted checkpoints, temp files
// — are notes and plan entries, never damage. After a bad element the
// walk continues from the manifest's claimed chain and record count, so
// each later file is judged on its own.
//
// Walk order: the manifest, its checkpoint, the pinned segments, the
// tail, then the files the manifest does not vouch for.
func walkDir(dir string) (*VerifyReport, *dirState, error) {
	if _, err := os.Stat(dir); err != nil {
		return nil, nil, fmt.Errorf("auditlog: %w", err)
	}
	// The manifest is read before the listing: a live writer creates a
	// segment before the manifest names it, so every file a manifest
	// names is already listed.
	man, merr := readManifest(dir)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("auditlog: %w", err)
	}
	rep := &VerifyReport{OK: true}
	st := &dirState{}
	var segs []int
	var ckpts []string
	for _, ent := range ents {
		name := ent.Name()
		switch {
		case strings.Contains(name, ".tmp-"):
			rep.Notes = append(rep.Notes, name+": orphaned temp file (crash debris, recovery deletes it)")
			st.leftovers = append(st.leftovers, name)
		case segmentSeq(name) > 0:
			segs = append(segs, segmentSeq(name))
		case checkpointSeq(name) > 0:
			ckpts = append(ckpts, name)
		}
	}
	sort.Ints(segs)
	present := map[int]bool{}
	for _, s := range segs {
		present[s] = true
	}

	if merr != nil {
		rep.flag(ElementReport{File: manifestName, Detail: detail(merr)})
		return rep, st, nil
	}
	if man == nil {
		// The only manifest-less states a crash can produce: nothing yet,
		// or death during the very first openSegment, before any record
		// existed — one empty, unsealed genesis segment.
		if len(segs) == 0 && len(ckpts) == 0 {
			rep.Notes = append(rep.Notes, "empty directory: nothing to verify")
			return rep, st, nil
		}
		if len(segs) == 1 && segs[0] == 1 && len(ckpts) == 0 {
			name := segmentFile(1)
			ps, err := readSegment(filepath.Join(dir, name))
			if err == nil && ps.seal == nil && len(ps.records) == 0 &&
				(len(ps.leaves) == 0 || judgeSegment(ps, 1, genesisChain, 0) == "") {
				rep.Notes = append(rep.Notes, name+": newborn genesis segment with no manifest yet (crash-normal; recovery adopts or deletes it)")
				if len(ps.leaves) == 0 {
					st.leftovers = append(st.leftovers, name)
				} else {
					st.active, st.lastSeq = ps, 1
				}
				return rep, st, nil
			}
		}
		rep.flag(ElementReport{File: manifestName, Detail: "manifest missing but log files present"})
		return rep, st, nil
	}

	chain, upTo := genesisChain, 0
	if c := man.Checkpoint; c != nil {
		upTo = c.UpTo
		er := ElementReport{File: c.File, Seq: c.UpTo, Sealed: true}
		doc, sum, err := readCheckpoint(filepath.Join(dir, c.File))
		switch {
		case err != nil:
			er.Detail = detail(err)
		case sum != c.SHA256:
			er.Detail = "content does not match the manifest's SHA-256"
		case doc.UpTo != c.UpTo || doc.Records != c.Records || doc.Chain != c.Chain:
			er.Detail = "horizon, record count or chain disagrees with manifest"
		default:
			er.OK, er.Records = true, int(doc.Records)
			st.ckpt = doc
		}
		if chain, err = parseChain(c.Chain); err != nil {
			er.OK, er.Detail = false, err.Error()
		}
		rep.flag(er)
		st.manCkpt, st.total = c, c.Records
	}
	st.lastSeq = upTo
	covered := map[int]bool{}
	read := func(seq int) (*parsedSegment, string) {
		covered[seq] = true
		if !present[seq] {
			return nil, "the manifest names this segment but the file is gone"
		}
		ps, err := readSegment(filepath.Join(dir, segmentFile(seq)))
		if err != nil {
			return nil, detail(err)
		}
		return ps, ""
	}

	for _, e := range man.Segments {
		name := segmentFile(e.Seq)
		er := ElementReport{File: name, Seq: e.Seq, Sealed: true}
		ps, bad := read(e.Seq)
		switch {
		case bad != "":
			er.Detail = bad
		case ps.seal == nil && ps.torn:
			er.Detail = "sealed segment is truncated"
		case ps.seal == nil:
			er.Detail = "manifest records a seal this segment lacks"
		default:
			er.Detail = judgeSegment(ps, e.Seq, chain, st.total)
			if er.Detail == "" && (e.Root != ps.seal.Root || e.Chain != ps.seal.Chain || e.Count != ps.seal.Count || e.Base != ps.header.Base) {
				er.Detail = "segment disagrees with the manifest's pinned seal"
			}
		}
		if er.OK = er.Detail == ""; er.OK {
			er.Records = len(ps.records)
			st.sealed = append(st.sealed, ps)
		}
		rep.flag(er)
		e.File = name
		st.manSegs = append(st.manSegs, e)
		if c, perr := parseChain(e.Chain); perr == nil {
			chain = c
		}
		st.total, st.lastSeq = e.Base+int64(e.Count), e.Seq
	}

	// The tail: unsealed (normal), a bare header, or sealed but not yet
	// pinned (a crash between seal and manifest write), in which case it
	// is adopted and its successor, if present, is the tail in turn. When
	// the manifest names no active segment, the chain-consecutive
	// successor of the last pin is the tail if it exists.
	seq := man.ActiveSeq
	required := seq > 0 // the manifest promises this file exists
	if seq == 0 {
		seq = st.lastSeq + 1
	}
	for !covered[seq] && (present[seq] || required) {
		name := segmentFile(seq)
		er := ElementReport{File: name, Seq: seq}
		ps, bad := read(seq)
		if bad == "" && len(ps.leaves) == 0 {
			// No whole header line survived: the segment died at birth,
			// before any record could have been acknowledged.
			rep.Notes = append(rep.Notes, name+": headerless newborn segment (crash debris, recovery deletes it)")
			er.OK, er.Detail = true, "headerless"
			rep.flag(er)
			st.leftovers = append(st.leftovers, name)
			break
		}
		if er.Detail = bad; bad == "" {
			er.Detail = judgeSegment(ps, seq, chain, st.total)
		}
		if er.OK = er.Detail == ""; !er.OK {
			rep.flag(er)
			break
		}
		er.Records = len(ps.records)
		st.total += int64(len(ps.records))
		st.lastSeq = seq
		if ps.seal == nil {
			if ps.torn {
				rep.Notes = append(rep.Notes, fmt.Sprintf("%s: torn tail after %d records (crash-normal; recovery truncates)", name, len(ps.records)))
			}
			rep.flag(er)
			st.active = ps
			break
		}
		er.Sealed = true
		rep.flag(er)
		rep.Notes = append(rep.Notes, name+": sealed but not yet pinned in manifest (crash between seal and manifest write)")
		st.sealed = append(st.sealed, ps)
		st.manSegs = append(st.manSegs, manifestSegment{
			File: name, Seq: seq, Base: ps.header.Base, Count: ps.seal.Count,
			Root: ps.seal.Root, Chain: ps.seal.Chain,
		})
		chain, _ = parseChain(ps.seal.Chain) // judgeSegment matched it to the recomputed chain
		seq++
		required = false
	}
	st.chain = chain

	// Files the manifest does not vouch for.
	for _, s := range segs {
		switch {
		case covered[s]:
		case s <= upTo:
			rep.Notes = append(rep.Notes, segmentFile(s)+": folded leftover (crash debris, recovery deletes it)")
			st.leftovers = append(st.leftovers, segmentFile(s))
		default:
			rep.flag(ElementReport{File: segmentFile(s), Seq: s, Detail: "segment not recorded in manifest"})
		}
	}
	for _, name := range ckpts {
		if man.Checkpoint == nil || name != man.Checkpoint.File {
			rep.Notes = append(rep.Notes, name+": checkpoint not committed by manifest (crash debris, recovery deletes it)")
			st.leftovers = append(st.leftovers, name)
		}
	}
	return rep, st, nil
}

// judgeSegment checks a parsed segment against the place in the chain it
// must occupy — sequence number, predecessor chain value and base index
// — and, when sealed, checks the seal against the recomputed Merkle root,
// the record count and the extended chain. It returns "" for a good
// segment, otherwise the reason it is bad.
func judgeSegment(ps *parsedSegment, seq int, chain [32]byte, base int64) string {
	switch {
	case ps.header.Seq != seq:
		return fmt.Sprintf("header says seq %d", ps.header.Seq)
	case ps.header.Prev != hexChain(chain):
		return "header does not chain from predecessor"
	case ps.header.Base != base:
		return fmt.Sprintf("header base %d, want %d", ps.header.Base, base)
	case ps.seal == nil:
		return ""
	}
	root := merkleRoot(ps.leaves)
	switch {
	case ps.seal.Root != hex.EncodeToString(root[:]):
		return "records do not match the seal's Merkle root"
	case ps.seal.Count != len(ps.records):
		return fmt.Sprintf("seal counts %d records, file has %d", ps.seal.Count, len(ps.records))
	case ps.seal.Chain != hexChain(chainRoot(chain, root)):
		return "seal's chain value does not extend the predecessor"
	}
	return ""
}
