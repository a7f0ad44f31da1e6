// Package galaxy parses workflows exported from the Galaxy SWfMS (§3.2 of
// the paper): a JSON document with numbered steps, where data-input steps
// are placeholders for the workflow's input files and tool steps reference
// their upstream step through input_connections.
//
// As in Hi-WAY, the input placeholders are resolved when the workflow is
// committed for execution — here through Options.Inputs, which binds each
// input step's label to a concrete path. Resource profiles come from a
// per-tool registry, since Galaxy exports carry no resource annotations.
package galaxy

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"hiway/internal/wf"
)

type jsonWorkflow struct {
	Name  string              `json:"name"`
	Steps map[string]jsonStep `json:"steps"`
}

type jsonStep struct {
	ID               int                       `json:"id"`
	Type             string                    `json:"type"`
	Label            string                    `json:"label"`
	Name             string                    `json:"name"`
	ToolID           string                    `json:"tool_id"`
	Inputs           []jsonStepInput           `json:"inputs"`
	Outputs          []jsonStepOutput          `json:"outputs"`
	InputConnections map[string]jsonConnection `json:"input_connections"`
}

type jsonStepInput struct {
	Name string `json:"name"`
}

type jsonStepOutput struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

type jsonConnection struct {
	ID         int    `json:"id"`
	OutputName string `json:"output_name"`
}

// Options configures parsing.
type Options struct {
	// Inputs binds each data-input step (by label, falling back to its
	// first declared input name, falling back to "input_<id>") to a
	// concrete file path. Every input step must be bound.
	Inputs map[string]string
	// InputSizesMB optionally gives the size of each bound input path.
	InputSizesMB map[string]float64
	// Profiles supplies resource models by tool id (exact match, or the
	// tool id's last '/celled' component for Toolshed-style ids).
	Profiles map[string]wf.Profile
}

// Driver executes Galaxy workflows; it is a wf.StaticDriver.
type Driver struct {
	wf.StaticBase
}

// NewDriver returns a static driver for the exported workflow JSON src.
func NewDriver(name, src string, opts Options) *Driver {
	d := &Driver{}
	d.WFName = name
	d.Build = func() ([]*wf.Task, []string, []wf.Edge, error) {
		return build(name, src, opts)
	}
	return d
}

// inputKey derives the binding key for a data-input step.
func inputKey(s jsonStep) string {
	if s.Label != "" {
		return s.Label
	}
	if len(s.Inputs) > 0 && s.Inputs[0].Name != "" {
		return s.Inputs[0].Name
	}
	return fmt.Sprintf("input_%d", s.ID)
}

// lookupProfile resolves a tool id against the registry, tolerating
// Toolshed-style ids like "toolshed.g2/repos/devteam/tophat2/tophat2/2.1.0".
func lookupProfile(profiles map[string]wf.Profile, toolID string) (wf.Profile, bool) {
	if p, ok := profiles[toolID]; ok {
		return p, true
	}
	parts := strings.Split(toolID, "/")
	for i := len(parts) - 1; i >= 0; i-- {
		if p, ok := profiles[parts[i]]; ok {
			return p, true
		}
	}
	return wf.Profile{}, false
}

func build(name, src string, opts Options) ([]*wf.Task, []string, []wf.Edge, error) {
	var doc jsonWorkflow
	if err := json.Unmarshal([]byte(src), &doc); err != nil {
		return nil, nil, nil, fmt.Errorf("galaxy: parsing %s: %w", name, err)
	}
	if len(doc.Steps) == 0 {
		return nil, nil, nil, fmt.Errorf("galaxy: workflow %s has no steps", name)
	}

	// Deterministic step order.
	var steps []jsonStep
	for _, s := range doc.Steps {
		steps = append(steps, s)
	}
	sort.Slice(steps, func(i, j int) bool { return steps[i].ID < steps[j].ID })

	byID := make(map[int]jsonStep, len(steps))
	for _, s := range steps {
		if _, dup := byID[s.ID]; dup {
			return nil, nil, nil, fmt.Errorf("galaxy: duplicate step id %d", s.ID)
		}
		byID[s.ID] = s
	}

	// Resolve the path each (stepID, outputName) pair provides.
	outPath := make(map[string]string)
	key := func(id int, out string) string { return fmt.Sprintf("%d\x00%s", id, out) }

	var initial []string
	var ids wf.IDSeq
	taskByStep := make(map[int]*wf.Task)
	var tasks []*wf.Task

	for _, s := range steps {
		switch s.Type {
		case "data_input", "data_collection_input":
			k := inputKey(s)
			path, ok := opts.Inputs[k]
			if !ok {
				return nil, nil, nil, fmt.Errorf("galaxy: input step %d (%q) is not bound — supply Options.Inputs[%q]", s.ID, k, k)
			}
			// Galaxy input steps nominally expose output "output".
			outPath[key(s.ID, "output")] = path
			if len(s.Outputs) > 0 {
				for _, o := range s.Outputs {
					outPath[key(s.ID, o.Name)] = path
				}
			}
			initial = append(initial, path)
		case "tool", "":
			if s.ToolID == "" {
				return nil, nil, nil, fmt.Errorf("galaxy: step %d has no tool_id", s.ID)
			}
			toolName := s.ToolID
			if idx := strings.LastIndex(toolName, "/"); idx >= 0 {
				// Toolshed ids end in /<toolname>/<version>; prefer the name.
				parts := strings.Split(s.ToolID, "/")
				if len(parts) >= 2 {
					toolName = parts[len(parts)-2]
				}
			}
			t := &wf.Task{
				ID:           ids.Next(),
				Name:         toolName,
				Command:      s.ToolID,
				OutputParams: []string{"out"},
				Declared:     map[string][]wf.FileInfo{},
				Meta:         map[string]string{"galaxyStep": fmt.Sprint(s.ID), "workflow": name},
			}
			if len(s.Outputs) == 0 {
				return nil, nil, nil, fmt.Errorf("galaxy: tool step %d (%s) declares no outputs", s.ID, toolName)
			}
			for _, o := range s.Outputs {
				p := fmt.Sprintf("galaxy/%s/step%d_%s.%s", wf.SafeName(name), s.ID, o.Name, orDefault(o.Type, "dat"))
				outPath[key(s.ID, o.Name)] = p
				t.Declared["out"] = append(t.Declared["out"], wf.FileInfo{Path: p})
			}
			taskByStep[s.ID] = t
			tasks = append(tasks, t)
		default:
			return nil, nil, nil, fmt.Errorf("galaxy: step %d has unsupported type %q", s.ID, s.Type)
		}
	}

	// Wire connections now that all outputs are known.
	for _, s := range steps {
		t, isTool := taskByStep[s.ID]
		if !isTool {
			continue
		}
		conns := make([]string, 0, len(s.InputConnections))
		for c := range s.InputConnections {
			conns = append(conns, c)
		}
		sort.Strings(conns)
		for _, cname := range conns {
			conn := s.InputConnections[cname]
			src, ok := byID[conn.ID]
			if !ok {
				return nil, nil, nil, fmt.Errorf("galaxy: step %d input %q references unknown step %d", s.ID, cname, conn.ID)
			}
			oname := conn.OutputName
			if oname == "" {
				oname = "output"
			}
			p, ok := outPath[key(src.ID, oname)]
			if !ok {
				return nil, nil, nil, fmt.Errorf("galaxy: step %d input %q references missing output %q of step %d", s.ID, cname, oname, conn.ID)
			}
			t.Inputs = append(t.Inputs, p)
		}
		if p, ok := lookupProfile(opts.Profiles, s.ToolID); ok {
			p.ApplyTo(t)
		}
		if t.Threads == 0 {
			t.Threads = 1
		}
		for i := range t.Declared["out"] {
			if t.Declared["out"][i].SizeMB == 0 {
				t.Declared["out"][i].SizeMB = 1
			}
		}
	}
	if len(tasks) == 0 {
		return nil, nil, nil, fmt.Errorf("galaxy: workflow %s has no tool steps", name)
	}
	sort.Strings(initial)
	return tasks, initial, nil, nil
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}
