package provenance

import (
	"cmp"
	"slices"
)

// MergeKey places one event in a trace merged from several runs: events are
// ordered by (timestamp, run index, position within the run's stream) — the
// order shard.MergeEvents produces and every "latest wins" rule refers to.
// The key is total (no two events share run and position), so the merged
// order is a pure function of the events, never of the order they were
// looked at in.
type MergeKey struct {
	Timestamp float64
	Run       int32
	Pos       int32
}

// Compare orders keys by timestamp, then run, then position.
func (a MergeKey) Compare(b MergeKey) int {
	if c := cmp.Compare(a.Timestamp, b.Timestamp); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Run, b.Run); c != 0 {
		return c
	}
	return cmp.Compare(a.Pos, b.Pos)
}

// Index answers lineage, memo-hit and summary queries without holding a
// merged trace: file → latest producer, file → latest positive size, the
// memo-hit attributions, and the event counts. Events are folded in one at a
// time under their MergeKey, and "latest" is a maximum over that key, so
// folds commute — any fold order, run by run or in interleaved pieces, leaves
// the same index as scanning the merged trace front to back. An Index is not
// safe for concurrent use.
type Index struct {
	files map[string]int32 // path → slot in recs
	recs  []fileRec
	// steps holds one record per task-end that was, when folded, the latest
	// producer of some file. Superseded steps stay (they are bounded by the
	// events folded); nothing points at them any more.
	steps []stepRec
	// hits is sorted by key up to hitsSorted; folds append behind it and the
	// next MemoHits call sorts.
	hits       []memoHit
	hitsSorted int

	events   int
	memoHits int
}

// fileRec is what the index knows about one path.
type fileRec struct {
	sizeAt MergeKey // key of the event that set sizeMB
	sizeMB float64  // 0: no positive size seen
	step   int32    // latest producer, an index into steps; -1: none seen
}

// stepRec is the part of a task-end event a lineage step is built from.
// inputs aliases the event's own slice, which stores never modify (and
// scanEvents never reuses).
type stepRec struct {
	at         MergeKey
	signature  string
	workflowID string
	taskID     int64
	memoHit    bool
	memoSource string
	inputs     []FileEvent
}

type memoHit struct {
	at MergeKey
	MemoAttribution
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{files: map[string]int32{}}
}

// IndexStore builds an index over a store's events in one pass. A store is
// one stream, so "latest" means latest appended, whatever the timestamps say
// (a database holding two runs restarts the clock for the second).
func IndexStore(store Store) (*Index, error) {
	ix := NewIndex()
	// At most one step per task-end, and a task has a start event too.
	ix.steps = make([]stepRec, 0, eventsHint(store)/2)
	pos := int32(0)
	err := scanEvents(store, func(ev *Event) {
		ix.fold(MergeKey{Pos: pos}, ev)
		pos++
	})
	if err != nil {
		return nil, err
	}
	return ix, nil
}

// Fold adds evs, which sit at positions from, from+1, … of run's stream, to
// the index. Every event must be folded exactly once; beyond that the order
// of Fold calls is free, across runs and within one.
func (ix *Index) Fold(run, from int, evs []Event) {
	for i := range evs {
		ix.fold(MergeKey{Timestamp: evs[i].Timestamp, Run: int32(run), Pos: int32(from + i)}, &evs[i])
	}
}

func (ix *Index) fold(at MergeKey, ev *Event) {
	ix.events++
	if ev.MemoHit {
		ix.memoHits++
	}
	if ev.Type != TaskEnd {
		return
	}
	if ev.MemoHit {
		ix.hits = append(ix.hits, memoHit{at, MemoAttribution{
			WorkflowID:  ev.WorkflowID,
			TaskID:      ev.TaskID,
			Signature:   ev.Signature,
			MemoSource:  ev.MemoSource,
			CPUSavedSec: ev.CPUSeconds,
		}})
	}
	// Outputs before inputs, each in event order, and a tie (the same event
	// naming a path twice) goes to the later mention: what a front-to-back
	// scan overwriting as it goes would leave.
	step := int32(-1)
	for i := range ev.Outputs {
		f := &ev.Outputs[i]
		r := ix.rec(f.Path)
		if r.step < 0 || at.Compare(ix.steps[r.step].at) >= 0 {
			if step < 0 {
				step = int32(len(ix.steps))
				ix.steps = append(ix.steps, stepRec{
					at:         at,
					signature:  ev.Signature,
					workflowID: ev.WorkflowID,
					taskID:     ev.TaskID,
					memoHit:    ev.MemoHit,
					memoSource: ev.MemoSource,
					inputs:     ev.Inputs,
				})
			}
			r.step = step
		}
		r.observeSize(at, f.SizeMB)
	}
	for i := range ev.Inputs {
		if f := &ev.Inputs[i]; f.SizeMB > 0 {
			ix.rec(f.Path).observeSize(at, f.SizeMB)
		}
	}
}

// rec returns path's record, creating it on first mention. The pointer is
// good until the next call.
func (ix *Index) rec(path string) *fileRec {
	slot, ok := ix.files[path]
	if !ok {
		slot = int32(len(ix.recs))
		ix.files[path] = slot
		ix.recs = append(ix.recs, fileRec{step: -1})
	}
	return &ix.recs[slot]
}

func (r *fileRec) observeSize(at MergeKey, sizeMB float64) {
	if sizeMB > 0 && (r.sizeMB == 0 || at.Compare(r.sizeAt) >= 0) {
		r.sizeMB, r.sizeAt = sizeMB, at
	}
}

// Counts returns how many events were folded and how many of them were memo
// hits — the no-query summary of GET /v1/provenance.
func (ix *Index) Counts() (events, memoHits int) {
	return ix.events, ix.memoHits
}

// Lineage walks producer links backward from path: the latest task-end
// producing path is its producer, and each of that task's inputs is resolved
// the same way. Paths with no recorded producer are leaves (staged inputs).
// Every file's node is built once, so a file several tasks consumed is one
// shared *LineageNode and the walk is linear in the distinct files reached,
// however the dataflow fans back in. A path met again while its own inputs
// are still being resolved is a cycle in a malformed trace; it is cut there
// with a producer-less leaf.
func (ix *Index) Lineage(path string) *LineageNode {
	// A nil entry marks a path whose inputs are being resolved right now.
	built := map[string]*LineageNode{}
	var walk func(p string) *LineageNode
	walk = func(p string) *LineageNode {
		n, open := built[p]
		if n != nil {
			return n
		}
		n = &LineageNode{Path: p}
		slot, ok := ix.files[p]
		if !ok {
			return n
		}
		r := ix.recs[slot]
		n.SizeMB = r.sizeMB
		if r.step < 0 || open {
			return n
		}
		built[p] = nil
		st := &ix.steps[r.step]
		step := &LineageStep{
			Signature:  st.signature,
			WorkflowID: st.workflowID,
			TaskID:     st.taskID,
			MemoHit:    st.memoHit,
			MemoSource: st.memoSource,
			Inputs:     make([]*LineageNode, 0, len(st.inputs)),
		}
		for _, in := range st.inputs {
			step.Inputs = append(step.Inputs, walk(in.Path))
		}
		n.Producer = step
		built[p] = n
		return n
	}
	return walk(path)
}

// MemoHits lists memo-hit task-ends in merged trace order, optionally
// filtered to one consuming run — the attribution side of cross-tenant
// memoization: which earlier run paid for each skipped execution.
func (ix *Index) MemoHits(run string) []MemoAttribution {
	if ix.hitsSorted < len(ix.hits) {
		slices.SortFunc(ix.hits, func(a, b memoHit) int { return a.at.Compare(b.at) })
		ix.hitsSorted = len(ix.hits)
	}
	// Count, then fill: the answer is allocated once, at its size.
	n := 0
	for i := range ix.hits {
		if run == "" || ix.hits[i].WorkflowID == run {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]MemoAttribution, 0, n)
	for i := range ix.hits {
		if h := &ix.hits[i]; run == "" || h.WorkflowID == run {
			out = append(out, h.MemoAttribution)
		}
	}
	return out
}
