package auditlog

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"crowdtopk/internal/crowd"
)

// A checkpoint folds every sealed segment up to a horizon into one
// snapshot with a single entry per pair (and per graded item), each
// holding that pair's answer values in purchase order. Replay only ever
// consumes answers per pair in order — the cross-pair interleaving and
// the round stamps of history are irrelevant to resume — so the fold
// loses nothing a resumed query can observe, while shrinking resume I/O
// from O(records ever purchased) to O(pairs ever touched).
//
// The checkpoint commits to the chain root of the last folded segment,
// keeping the Merkle chain anchored across compaction: segments after
// the horizon chain from checkpoint.Chain, and the checkpoint file's own
// SHA-256 is pinned in the manifest.
type checkpointDoc struct {
	Kind string `json:"kind"` // "checkpoint"
	// UpTo is the highest folded segment sequence number.
	UpTo int `json:"upto"`
	// Chain is the chain root after segment UpTo (hex).
	Chain string `json:"chain"`
	// Records is the total number of microtask records folded in.
	Records int64 `json:"records"`
	// Pairs holds one entry per compared pair, sorted by (i, j), values
	// in purchase order, canonical i < j orientation.
	Pairs []checkpointPair `json:"pairs"`
	// Grades holds one entry per graded item, sorted by item.
	Grades []checkpointGrade `json:"grades,omitempty"`
}

type checkpointPair struct {
	I      int       `json:"i"`
	J      int       `json:"j"`
	Values []float64 `json:"values"`
}

type checkpointGrade struct {
	I      int       `json:"i"`
	Values []float64 `json:"values"`
}

// foldRecords merges records into the checkpoint's per-pair entries,
// preserving per-pair purchase order.
type folder struct {
	pairs  map[[2]int][]float64
	grades map[int][]float64
	n      int64
}

func newFolder() *folder {
	return &folder{pairs: make(map[[2]int][]float64), grades: make(map[int][]float64)}
}

func (f *folder) addDoc(doc *checkpointDoc) {
	for _, p := range doc.Pairs {
		f.pairs[[2]int{p.I, p.J}] = append(f.pairs[[2]int{p.I, p.J}], p.Values...)
		f.n += int64(len(p.Values))
	}
	for _, g := range doc.Grades {
		f.grades[g.I] = append(f.grades[g.I], g.Values...)
		f.n += int64(len(g.Values))
	}
}

func (f *folder) addRecords(recs []crowd.Record) {
	for _, r := range recs {
		if r.IsGraded() {
			f.grades[r.I] = append(f.grades[r.I], r.Value)
		} else {
			f.pairs[[2]int{r.I, r.J}] = append(f.pairs[[2]int{r.I, r.J}], r.Value)
		}
		f.n++
	}
}

// doc freezes the fold into a deterministic document: pairs sorted by
// (i, j), grades by item, so the same history always serializes to the
// same bytes.
func (f *folder) doc(upTo int, chain string) *checkpointDoc {
	doc := &checkpointDoc{Kind: "checkpoint", UpTo: upTo, Chain: chain, Records: f.n}
	for k, vs := range f.pairs {
		doc.Pairs = append(doc.Pairs, checkpointPair{I: k[0], J: k[1], Values: vs})
	}
	sort.Slice(doc.Pairs, func(a, b int) bool {
		if doc.Pairs[a].I != doc.Pairs[b].I {
			return doc.Pairs[a].I < doc.Pairs[b].I
		}
		return doc.Pairs[a].J < doc.Pairs[b].J
	})
	for i, vs := range f.grades {
		doc.Grades = append(doc.Grades, checkpointGrade{I: i, Values: vs})
	}
	sort.Slice(doc.Grades, func(a, b int) bool { return doc.Grades[a].I < doc.Grades[b].I })
	return doc
}

// expand turns a checkpoint back into replayable records: per-pair values
// in order, pairs in sorted order, grades after. Rounds are folded away
// (replay never reads them; the latency clock is not money).
func (doc *checkpointDoc) expand() []crowd.Record {
	recs := make([]crowd.Record, 0, doc.Records)
	for _, p := range doc.Pairs {
		for _, v := range p.Values {
			recs = append(recs, crowd.Record{I: p.I, J: p.J, Value: v})
		}
	}
	for _, g := range doc.Grades {
		for _, v := range g.Values {
			recs = append(recs, crowd.Record{I: g.I, J: -1, Value: v})
		}
	}
	return recs
}

// readCheckpoint loads and validates a checkpoint file, returning the doc
// and the SHA-256 of its exact bytes.
func readCheckpoint(path string) (*checkpointDoc, string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, "", fmt.Errorf("auditlog: read %s: %w", path, err)
	}
	var doc checkpointDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, "", &corruptError{file: filepath.Base(path), reason: err.Error()}
	}
	if doc.Kind != "checkpoint" || doc.UpTo < 1 {
		return nil, "", &corruptError{file: filepath.Base(path), reason: "not a checkpoint document"}
	}
	var n int64
	for _, p := range doc.Pairs {
		if p.I < 0 || p.J <= p.I {
			return nil, "", &corruptError{file: filepath.Base(path), reason: fmt.Sprintf("invalid pair (%d,%d)", p.I, p.J)}
		}
		n += int64(len(p.Values))
	}
	for _, g := range doc.Grades {
		if g.I < 0 {
			return nil, "", &corruptError{file: filepath.Base(path), reason: fmt.Sprintf("invalid graded item %d", g.I)}
		}
		n += int64(len(g.Values))
	}
	if n != doc.Records {
		return nil, "", &corruptError{file: filepath.Base(path), reason: fmt.Sprintf("record count %d does not match content %d", doc.Records, n)}
	}
	sum := sha256.Sum256(data)
	return &doc, hex.EncodeToString(sum[:]), nil
}

// manifest is the directory's table of contents and tamper anchor,
// atomically rewritten at every seal and fold. Each sealed segment's
// Merkle root and chain value are pinned here at seal time, so Verify
// has a reference the segment files themselves cannot quietly outrun.
type manifest struct {
	Kind       string              `json:"kind"` // "manifest"
	Checkpoint *manifestCheckpoint `json:"checkpoint,omitempty"`
	Segments   []manifestSegment   `json:"segments"`
	// ActiveSeq is the unsealed segment currently being appended to.
	ActiveSeq int `json:"active_seq"`
	// Records is the total committed to checkpoint + sealed segments
	// (the active tail is not counted until sealed).
	Records int64 `json:"records"`
}

type manifestCheckpoint struct {
	File    string `json:"file"`
	UpTo    int    `json:"upto"`
	Records int64  `json:"records"`
	Chain   string `json:"chain"`
	SHA256  string `json:"sha256"`
}

type manifestSegment struct {
	File  string `json:"file"`
	Seq   int    `json:"seq"`
	Base  int64  `json:"base"`
	Count int    `json:"count"`
	Root  string `json:"root"`
	Chain string `json:"chain"`
}

// readManifest loads the manifest, or returns nil when absent (a fresh
// or pre-manifest directory).
func readManifest(dir string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("auditlog: read manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, &corruptError{file: manifestName, reason: err.Error()}
	}
	if m.Kind != "manifest" {
		return nil, &corruptError{file: manifestName, reason: "not a manifest document"}
	}
	return &m, nil
}

// writeFileAtomic writes data to path via a temp file, fsync and rename,
// so readers never observe a partial file and a crash leaves either the
// old content or the new — never a blend.
func writeFileAtomic(path string, data []byte, hooks *crashHooks) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	// fail drops the temp file, except after a simulated crash: a dead
	// process cleans nothing up, so the next Open must meet the debris.
	fail := func(err error) error {
		tmp.Close()
		if !hooks.Died() {
			os.Remove(tmp.Name())
		}
		return err
	}
	if err := hooks.write(tmp, data); err != nil {
		return fail(err)
	}
	if err := hooks.sync(tmp); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		return fail(err)
	}
	if err := hooks.rename(tmp.Name(), path); err != nil {
		return fail(err)
	}
	return nil
}
