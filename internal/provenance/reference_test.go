package provenance

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// This file keeps the query implementation the Index replaced — merge every
// run's stream, then scan the merged trace front to back — as a test-only
// reference. The differential tests in index_test.go drive both over seeded
// traces and require identical text.

// refMerge is the old shard merge: a stable sort of the concatenated streams
// by (timestamp, run).
func refMerge(runs [][]Event) []Event {
	type tagged struct {
		run int
		ev  Event
	}
	var all []tagged
	for i, evs := range runs {
		for _, ev := range evs {
			all = append(all, tagged{i, ev})
		}
	}
	sort.SliceStable(all, func(a, b int) bool {
		if all[a].ev.Timestamp != all[b].ev.Timestamp {
			return all[a].ev.Timestamp < all[b].ev.Timestamp
		}
		return all[a].run < all[b].run
	})
	out := make([]Event, len(all))
	for i := range all {
		out[i] = all[i].ev
	}
	return out
}

// refLineage scans the trace overwriting producers and sizes as it goes, then
// walks it into a tree, revisiting shared subtrees and cutting cycles.
func refLineage(events []Event, path string) *LineageNode {
	producer := map[string]Event{}
	sizes := map[string]float64{}
	for _, ev := range events {
		if ev.Type != TaskEnd {
			continue
		}
		for _, f := range ev.Outputs {
			producer[f.Path] = ev
			if f.SizeMB > 0 {
				sizes[f.Path] = f.SizeMB
			}
		}
		for _, f := range ev.Inputs {
			if f.SizeMB > 0 {
				sizes[f.Path] = f.SizeMB
			}
		}
	}
	var walk func(p string, onPath map[string]bool) *LineageNode
	walk = func(p string, onPath map[string]bool) *LineageNode {
		n := &LineageNode{Path: p, SizeMB: sizes[p]}
		ev, ok := producer[p]
		if !ok || onPath[p] {
			return n
		}
		onPath[p] = true
		defer delete(onPath, p)
		step := &LineageStep{
			Signature:  ev.Signature,
			WorkflowID: ev.WorkflowID,
			TaskID:     ev.TaskID,
			MemoHit:    ev.MemoHit,
			MemoSource: ev.MemoSource,
		}
		for _, in := range ev.Inputs {
			step.Inputs = append(step.Inputs, walk(in.Path, onPath))
		}
		n.Producer = step
		return n
	}
	return walk(path, map[string]bool{})
}

// refRenderLineage prints every subtree in full each time it is reached. On a
// node graph from Index.Lineage it unfolds the shared nodes back into the
// tree refLineage builds.
func refRenderLineage(n *LineageNode) string {
	var sb strings.Builder
	var rec func(n *LineageNode, depth int)
	rec = func(n *LineageNode, depth int) {
		indent := strings.Repeat("  ", depth)
		fmt.Fprintf(&sb, "%s%s", indent, n.Path)
		if n.SizeMB > 0 {
			fmt.Fprintf(&sb, " (%g MB)", n.SizeMB)
		}
		if n.Producer == nil {
			sb.WriteString(" [staged]\n")
			return
		}
		p := n.Producer
		fmt.Fprintf(&sb, " <- %s task %d @ %s", p.Signature, p.TaskID, p.WorkflowID)
		if p.MemoHit {
			fmt.Fprintf(&sb, " [memo hit from %s]", p.MemoSource)
		}
		sb.WriteString("\n")
		for _, in := range p.Inputs {
			rec(in, depth+1)
		}
	}
	rec(n, 0)
	return sb.String()
}

// refSharesProducedFile reports whether a reference tree reaches some
// produced file more than once — the only case where RenderLineage's text
// may differ from refRenderLineage's.
func refSharesProducedFile(n *LineageNode) bool {
	seen := map[string]bool{}
	var rec func(n *LineageNode) bool
	rec = func(n *LineageNode) bool {
		if n.Producer == nil {
			return false
		}
		if seen[n.Path] {
			return true
		}
		seen[n.Path] = true
		for _, in := range n.Producer.Inputs {
			if rec(in) {
				return true
			}
		}
		return false
	}
	return rec(n)
}

// refMemoHits lists memo-hit task-ends in trace order.
func refMemoHits(events []Event, run string) []MemoAttribution {
	var out []MemoAttribution
	for _, ev := range events {
		if ev.Type != TaskEnd || !ev.MemoHit {
			continue
		}
		if run != "" && ev.WorkflowID != run {
			continue
		}
		out = append(out, MemoAttribution{
			WorkflowID:  ev.WorkflowID,
			TaskID:      ev.TaskID,
			Signature:   ev.Signature,
			MemoSource:  ev.MemoSource,
			CPUSavedSec: ev.CPUSeconds,
		})
	}
	return out
}

// refCounts is the old no-query summary of GET /v1/provenance.
func refCounts(events []Event) (n, memoHits int) {
	for _, ev := range events {
		if ev.MemoHit {
			memoHits++
		}
	}
	return len(events), memoHits
}

// The event IDs the record path built and stored in every event before
// Event.ID derived them: RecordWorkflowStart and RecordWorkflowEnd appended a
// suffix, RecordWorkflowResume formatted the timestamp with %g, and
// RecordTaskStart and TaskEndEvent called taskEventID.

func refWorkflowID(wfID, suffix string) string { return wfID + suffix }

func refResumeID(wfID string, at float64) string { return fmt.Sprintf("%s-resume-%g", wfID, at) }

// refTaskEventID returns "<wfID>-task-<task><suffix>", then "-a<attempt>" for
// a retry or speculative duplicate (attempt > 0).
func refTaskEventID(wfID string, task int64, suffix string, attempt int) string {
	var buf [64]byte
	b := append(buf[:0], wfID...)
	b = append(b, "-task-"...)
	b = strconv.AppendInt(b, task, 10)
	b = append(b, suffix...)
	if attempt > 0 {
		b = append(b, "-a"...)
		b = strconv.AppendInt(b, int64(attempt), 10)
	}
	return string(b)
}

// refRenderMemoHits is the fmt-based RenderMemoHits the strconv one
// replaced; TestRenderMemoHitsMatchesReference and FuzzRenderMemoHits hold
// the new one to its bytes.
func refRenderMemoHits(hits []MemoAttribution) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s %6s %-16s %-14s %10s\n",
		"run", "task", "signature", "source", "cpu-saved")
	var saved float64
	for _, h := range hits {
		src := h.MemoSource
		if src == "" {
			src = "-"
		}
		fmt.Fprintf(&sb, "%-14s %6d %-16s %-14s %10.2f\n",
			h.WorkflowID, h.TaskID, h.Signature, src, h.CPUSavedSec)
		saved += h.CPUSavedSec
	}
	fmt.Fprintf(&sb, "%d memo hits, %.2f cpu-seconds saved\n", len(hits), saved)
	return sb.String()
}
