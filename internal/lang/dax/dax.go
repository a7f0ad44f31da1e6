// Package dax parses Pegasus DAX workflows — the static XML workflow
// language of the Pegasus SWfMS (§3.2 of the paper). A DAX file explicitly
// lists every job, every file each job uses (link="input"/"output"), and
// explicit parent/child control edges. Hi-WAY complements Pegasus by
// running DAX workflows on (simulated) Hadoop YARN.
//
// Resource annotations: jobs may carry runtime (reference core-seconds),
// threads and memMB attributes — the convention of DAX generators such as
// the Montage toolkit wrapper in this repository. <uses> elements may carry
// size (bytes, as Pegasus writes) or sizeMB. A job without threads runs on
// one core; an output without a size counts as 1 MB.
//
// The document is read by a single-pass reader written for the DAX subset
// (read.go). It accepts what encoding/xml's strict decoder accepts when it
// decodes into the document type below and yields the same document; the
// struct decode is kept in the tests as the reference, and FuzzParse runs
// both on every input. Two constructs are refused on purpose: an element,
// attribute or processing-instruction name with a non-ASCII character
// (encoding/xml judges those against the XML 1.0 Appendix B letter tables,
// which the reader does not carry), and a '<' outside quotes inside a
// <!DOCTYPE> or other <!directive> — a DOCTYPE's internal subset. Sniff
// recognises a DAX document by its first element.
package dax

import (
	"fmt"
	"strings"

	"hiway/internal/wf"
)

// xmlADAG is the DAX <adag> document. The struct tags are the mapping the
// encoding/xml reference in the tests decodes by; the reader fills the same
// fields.
type xmlADAG struct {
	Name   string     `xml:"name,attr"`
	Jobs   []xmlJob   `xml:"job"`
	Childs []xmlChild `xml:"child"`
}

type xmlJob struct {
	ID       string    `xml:"id,attr"`
	Name     string    `xml:"name,attr"`
	Nspace   string    `xml:"namespace,attr"`
	Runtime  float64   `xml:"runtime,attr"`
	Threads  int       `xml:"threads,attr"`
	MemMB    int       `xml:"memMB,attr"`
	Argument string    `xml:"argument"`
	Uses     []xmlUses `xml:"uses"`
}

type xmlUses struct {
	File   string  `xml:"file,attr"`
	Link   string  `xml:"link,attr"`
	Size   float64 `xml:"size,attr"`   // bytes, Pegasus convention
	SizeMB float64 `xml:"sizeMB,attr"` // explicit megabytes, wins over Size
}

type xmlChild struct {
	Ref     string      `xml:"ref,attr"`
	Parents []xmlParent `xml:"parent"`
}

type xmlParent struct {
	Ref string `xml:"ref,attr"`
}

// NewDriver returns a static driver for the DAX document src.
func NewDriver(name, src string) *Driver {
	d := &Driver{}
	d.WFName = name
	d.Build = func() ([]*wf.Task, []string, []wf.Edge, error) {
		return build(name, src)
	}
	return d
}

// Driver executes DAX workflows; it is a wf.StaticDriver, so static
// scheduling policies (HEFT, round-robin) apply.
type Driver struct {
	wf.StaticBase
}

func build(name, src string) ([]*wf.Task, []string, []wf.Edge, error) {
	doc, err := readDoc(src)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("dax: parsing %s: %w", name, err)
	}
	if len(doc.Jobs) == 0 {
		return nil, nil, nil, fmt.Errorf("dax: workflow %s declares no jobs", name)
	}

	var ids wf.IDSeq
	byDaxID := make(map[string]*wf.Task, len(doc.Jobs))
	produced := make(map[string]bool)
	consumed := make(map[string]bool)
	var tasks []*wf.Task
	for _, j := range doc.Jobs {
		if j.ID == "" || j.Name == "" {
			return nil, nil, nil, fmt.Errorf("dax: job with missing id or name in %s", name)
		}
		if _, dup := byDaxID[j.ID]; dup {
			return nil, nil, nil, fmt.Errorf("dax: duplicate job id %q", j.ID)
		}
		t := &wf.Task{
			ID:           ids.Next(),
			Name:         j.Name,
			Command:      strings.TrimSpace(strings.Join([]string{j.Nspace, j.Name, strings.TrimSpace(j.Argument)}, " ")),
			CPUSeconds:   j.Runtime,
			Threads:      j.Threads,
			MemMB:        j.MemMB,
			OutputParams: []string{"out"},
			Declared:     map[string][]wf.FileInfo{},
		}
		for _, u := range j.Uses {
			if u.File == "" {
				return nil, nil, nil, fmt.Errorf("dax: job %q uses a file with no name", j.ID)
			}
			sizeMB := u.SizeMB
			if sizeMB == 0 && u.Size > 0 {
				sizeMB = u.Size / (1024 * 1024)
			}
			switch strings.ToLower(u.Link) {
			case "input":
				t.Inputs = append(t.Inputs, u.File)
				consumed[u.File] = true
			case "output":
				t.Declared["out"] = append(t.Declared["out"], wf.FileInfo{Path: u.File, SizeMB: sizeMB})
				produced[u.File] = true
			default:
				return nil, nil, nil, fmt.Errorf("dax: job %q uses %q with unknown link %q", j.ID, u.File, u.Link)
			}
		}
		if t.Threads == 0 {
			t.Threads = 1
		}
		// Unsized outputs default to 1 MB so simulation stays meaningful.
		for i := range t.Declared["out"] {
			if t.Declared["out"][i].SizeMB == 0 {
				t.Declared["out"][i].SizeMB = 1
			}
		}
		byDaxID[j.ID] = t
		tasks = append(tasks, t)
	}

	// Initial inputs: consumed but never produced.
	var initial []string
	seen := map[string]bool{}
	for _, t := range tasks {
		for _, in := range t.Inputs {
			if !produced[in] && !seen[in] {
				seen[in] = true
				initial = append(initial, in)
			}
		}
	}

	// Explicit control edges.
	var edges []wf.Edge
	for _, ch := range doc.Childs {
		child, ok := byDaxID[ch.Ref]
		if !ok {
			return nil, nil, nil, fmt.Errorf("dax: <child ref=%q> names an unknown job", ch.Ref)
		}
		for _, par := range ch.Parents {
			parent, ok := byDaxID[par.Ref]
			if !ok {
				return nil, nil, nil, fmt.Errorf("dax: <parent ref=%q> names an unknown job", par.Ref)
			}
			edges = append(edges, wf.Edge{Parent: parent.ID, Child: child.ID})
		}
	}
	return tasks, initial, edges, nil
}
