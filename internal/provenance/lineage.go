package provenance

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"
)

// This file extends the query layer with the three questions the tiered
// provenance store is asked by operators: how a file came to be (lineage),
// how two runs of the same pipeline differ (cross-run diff), and which
// earlier run paid for a memoized completion (memo-hit attribution).
// Lineage and memo-hits are answered by an Index (index.go), diff by a scan
// of the two runs' events; a small parsed query language (ParseQuery) lets
// `hiway prov -query` and the service's GET /v1/provenance share one
// grammar.

// QueryOp discriminates parsed provenance queries.
type QueryOp string

// The supported query operations.
const (
	// OpLineage walks producer links backward from one file path.
	OpLineage QueryOp = "lineage"
	// OpDiff compares two workflow runs signature by signature.
	OpDiff QueryOp = "diff"
	// OpMemoHits lists memoized completions and the runs that paid for them.
	OpMemoHits QueryOp = "memo-hits"
)

// Query is one parsed provenance query. Fields are populated according to
// Op: Path for lineage, RunA/RunB for diff, and Run (optional filter) for
// memo-hits.
type Query struct {
	Op   QueryOp
	Path string
	RunA string
	RunB string
	Run  string
}

// ParseQuery parses the provenance query mini-language:
//
//	lineage <path>
//	diff <runA> <runB>
//	memo-hits [run]
//
// Tokens are whitespace-separated; parsed queries round-trip through
// String.
func ParseQuery(s string) (Query, error) {
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return Query{}, fmt.Errorf("provenance: empty query")
	}
	switch QueryOp(fields[0]) {
	case OpLineage:
		if len(fields) != 2 {
			return Query{}, fmt.Errorf("provenance: usage: lineage <path>")
		}
		return Query{Op: OpLineage, Path: fields[1]}, nil
	case OpDiff:
		if len(fields) != 3 {
			return Query{}, fmt.Errorf("provenance: usage: diff <runA> <runB>")
		}
		return Query{Op: OpDiff, RunA: fields[1], RunB: fields[2]}, nil
	case OpMemoHits:
		switch len(fields) {
		case 1:
			return Query{Op: OpMemoHits}, nil
		case 2:
			return Query{Op: OpMemoHits, Run: fields[1]}, nil
		}
		return Query{}, fmt.Errorf("provenance: usage: memo-hits [run]")
	}
	return Query{}, fmt.Errorf("provenance: unknown query op %q", fields[0])
}

// String renders the query back into its parseable form.
func (q Query) String() string {
	switch q.Op {
	case OpLineage:
		return string(OpLineage) + " " + q.Path
	case OpDiff:
		return fmt.Sprintf("%s %s %s", OpDiff, q.RunA, q.RunB)
	case OpMemoHits:
		if q.Run == "" {
			return string(OpMemoHits)
		}
		return string(OpMemoHits) + " " + q.Run
	}
	return string(q.Op)
}

// RunQuery executes a parsed query against a store and renders the result
// as text — the backend of `hiway prov -query`. It reads the store's events
// once: diff scans them, the other queries fold them into an Index and ask
// it, exactly as the server asks its long-lived one.
func RunQuery(store Store, q Query) (string, error) {
	if q.Op == OpDiff {
		d, err := DiffRuns(q.RunA, q.RunB, store)
		if err != nil {
			return "", err
		}
		return RenderRunDiff(d), nil
	}
	ix, err := IndexStore(store)
	if err != nil {
		return "", err
	}
	return ix.Answer(q)
}

// Answer renders the index's reply to a lineage or memo-hits query.
func (ix *Index) Answer(q Query) (string, error) {
	switch q.Op {
	case OpLineage:
		return RenderLineage(ix.Lineage(q.Path)), nil
	case OpMemoHits:
		return RenderMemoHits(ix.MemoHits(q.Run)), nil
	}
	return "", fmt.Errorf("provenance: unknown query op %q", q.Op)
}

// LineageNode is one file in a lineage derivation. Producer is nil for
// external (staged) inputs that no recorded task produced. A file consumed
// by several tasks is one node reached through each of them, so the
// derivation is a DAG, not a tree.
type LineageNode struct {
	Path     string
	SizeMB   float64
	Producer *LineageStep
}

// LineageStep is the task execution that produced a file, with the inputs
// it consumed — the recursive edge of the lineage walk. MemoHit/MemoSource
// carry memo attribution through the tree: a spliced completion's lineage
// names the run whose execution actually produced the bytes.
type LineageStep struct {
	Signature  string
	WorkflowID string
	TaskID     int64
	MemoHit    bool
	MemoSource string
	Inputs     []*LineageNode
}

// RenderLineage formats a lineage derivation as indented text. A produced
// file reached a second time prints its own line again, marked
// " (shown above)", without repeating the derivation under it, so the text
// is linear in the distinct files however often dataflow fans back in.
func RenderLineage(n *LineageNode) string {
	var sb strings.Builder
	var num [32]byte // a float or an int on its way into sb
	shown := map[*LineageStep]bool{}
	var rec func(n *LineageNode, depth int)
	rec = func(n *LineageNode, depth int) {
		for i := 0; i < depth; i++ {
			sb.WriteString("  ")
		}
		sb.WriteString(n.Path)
		if n.SizeMB > 0 {
			sb.WriteString(" (")
			sb.Write(strconv.AppendFloat(num[:0], n.SizeMB, 'g', -1, 64))
			sb.WriteString(" MB)")
		}
		if n.Producer == nil {
			sb.WriteString(" [staged]\n")
			return
		}
		p := n.Producer
		sb.WriteString(" <- ")
		sb.WriteString(p.Signature)
		sb.WriteString(" task ")
		sb.Write(strconv.AppendInt(num[:0], p.TaskID, 10))
		sb.WriteString(" @ ")
		sb.WriteString(p.WorkflowID)
		if p.MemoHit {
			sb.WriteString(" [memo hit from ")
			sb.WriteString(p.MemoSource)
			sb.WriteString("]")
		}
		if shown[p] {
			sb.WriteString(" (shown above)\n")
			return
		}
		shown[p] = true
		sb.WriteString("\n")
		for _, in := range p.Inputs {
			rec(in, depth+1)
		}
	}
	rec(n, 0)
	return sb.String()
}

// SigDelta compares one task signature between two runs.
type SigDelta struct {
	Signature string
	CountA    int
	CountB    int
	TotalSecA float64
	TotalSecB float64
	MemoHitsA int
	MemoHitsB int
}

// RunDiff is the cross-run comparison of two workflow runs: signatures
// unique to each side, shared signatures with execution-time deltas, and
// the makespans.
type RunDiff struct {
	RunA      string
	RunB      string
	MakespanA float64
	MakespanB float64
	OnlyA     []string
	OnlyB     []string
	Common    []SigDelta
}

// DiffRuns compares two recorded workflow runs signature by signature —
// "what changed between yesterday's run and today's?". Memo-hit counts per
// side make memoization's contribution to a faster run visible in the
// diff. It scans the given stores in order and keeps the events of the two
// named runs: one store holding a whole trace, or just the two runs' own.
func DiffRuns(runA, runB string, stores ...Store) (*RunDiff, error) {
	d := &RunDiff{RunA: runA, RunB: runB}
	type acc struct {
		count, memo int
		total       float64
	}
	a := map[string]*acc{}
	b := map[string]*acc{}
	seenA, seenB := false, false
	scan := func(ev *Event) {
		var side map[string]*acc
		switch ev.WorkflowID {
		case runA:
			side, seenA = a, true
		case runB:
			side, seenB = b, true
		default:
			return
		}
		switch ev.Type {
		case TaskEnd:
			s := side[ev.Signature]
			if s == nil {
				s = &acc{}
				side[ev.Signature] = s
			}
			s.count++
			s.total += ev.DurationSec
			if ev.MemoHit {
				s.memo++
			}
		case WorkflowEnd:
			if ev.WorkflowID == runA {
				d.MakespanA = ev.DurationSec
			} else {
				d.MakespanB = ev.DurationSec
			}
		}
	}
	for _, st := range stores {
		if err := scanEvents(st, scan); err != nil {
			return nil, err
		}
	}
	if !seenA {
		return nil, fmt.Errorf("provenance: run %q not in trace", runA)
	}
	if !seenB {
		return nil, fmt.Errorf("provenance: run %q not in trace", runB)
	}
	for sig, sa := range a {
		sb, ok := b[sig]
		if !ok {
			d.OnlyA = append(d.OnlyA, sig)
			continue
		}
		d.Common = append(d.Common, SigDelta{
			Signature: sig,
			CountA:    sa.count, CountB: sb.count,
			TotalSecA: sa.total, TotalSecB: sb.total,
			MemoHitsA: sa.memo, MemoHitsB: sb.memo,
		})
	}
	for sig := range b {
		if _, ok := a[sig]; !ok {
			d.OnlyB = append(d.OnlyB, sig)
		}
	}
	sort.Strings(d.OnlyA)
	sort.Strings(d.OnlyB)
	sort.Slice(d.Common, func(i, j int) bool { return d.Common[i].Signature < d.Common[j].Signature })
	return d, nil
}

// RenderRunDiff formats a RunDiff as a text report.
func RenderRunDiff(d *RunDiff) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "diff %s vs %s\n", d.RunA, d.RunB)
	fmt.Fprintf(&sb, "makespan: %.2f s vs %.2f s\n", d.MakespanA, d.MakespanB)
	for _, sig := range d.OnlyA {
		fmt.Fprintf(&sb, "only in %s: %s\n", d.RunA, sig)
	}
	for _, sig := range d.OnlyB {
		fmt.Fprintf(&sb, "only in %s: %s\n", d.RunB, sig)
	}
	if len(d.Common) > 0 {
		fmt.Fprintf(&sb, "%-16s %6s %6s %10s %10s %6s %6s\n",
			"signature", "n(A)", "n(B)", "sec(A)", "sec(B)", "memoA", "memoB")
		for _, c := range d.Common {
			fmt.Fprintf(&sb, "%-16s %6d %6d %10.2f %10.2f %6d %6d\n",
				c.Signature, c.CountA, c.CountB, c.TotalSecA, c.TotalSecB, c.MemoHitsA, c.MemoHitsB)
		}
	}
	return sb.String()
}

// MemoAttribution records one memoized completion and the run whose real
// execution it was served from.
type MemoAttribution struct {
	WorkflowID string
	TaskID     int64
	Signature  string
	MemoSource string
	// CPUSavedSec is the CPU work the hit avoided — the task's recorded
	// CPU-seconds profile.
	CPUSavedSec float64
}

// RenderMemoHits formats memo-hit attributions as a text table: run,
// signature and source left-aligned and task and cpu-saved right-aligned in
// fixed columns (a wider value widens its row), then a total line. It
// writes the same bytes as the equivalent fmt verbs (%-14s, %6d, %10.2f;
// widths count runes) without going through fmt per row.
func RenderMemoHits(hits []MemoAttribution) string {
	b := make([]byte, 0, 64*(len(hits)+2))
	b = appendMemoHitsRow(b, "run", []byte("task"), "signature", "source", []byte("cpu-saved"))
	var saved float64
	var task, cpu [32]byte
	for _, h := range hits {
		src := h.MemoSource
		if src == "" {
			src = "-"
		}
		b = appendMemoHitsRow(b, h.WorkflowID, strconv.AppendInt(task[:0], h.TaskID, 10),
			h.Signature, src, strconv.AppendFloat(cpu[:0], h.CPUSavedSec, 'f', 2, 64))
		saved += h.CPUSavedSec
	}
	b = strconv.AppendInt(b, int64(len(hits)), 10)
	b = append(b, " memo hits, "...)
	b = strconv.AppendFloat(b, saved, 'f', 2, 64)
	b = append(b, " cpu-seconds saved\n"...)
	return string(b)
}

// appendMemoHitsRow appends one row of RenderMemoHits' table.
func appendMemoHitsRow(b []byte, run string, task []byte, sig, src string, saved []byte) []byte {
	b = padLeft(b, run, 14)
	b = append(b, ' ')
	b = padRight(b, task, 6)
	b = append(b, ' ')
	b = padLeft(b, sig, 16)
	b = append(b, ' ')
	b = padLeft(b, src, 14)
	b = append(b, ' ')
	b = padRight(b, saved, 10)
	return append(b, '\n')
}

// padLeft appends s left-aligned in width runes, as fmt's %-<width>s.
func padLeft(b []byte, s string, width int) []byte {
	b = append(b, s...)
	for n := utf8.RuneCountInString(s); n < width; n++ {
		b = append(b, ' ')
	}
	return b
}

// padRight appends the ASCII number s right-aligned in width bytes, as
// fmt's %<width>d and %<width>.2f.
func padRight(b, s []byte, width int) []byte {
	for n := len(s); n < width; n++ {
		b = append(b, ' ')
	}
	return append(b, s...)
}
