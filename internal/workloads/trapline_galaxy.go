package workloads

import (
	"encoding/json"
	"fmt"

	"hiway/internal/lang/galaxy"
	"hiway/internal/wf"
)

// This file emits the TRAPLINE RNA-seq pipeline as a Galaxy exported
// workflow (the .ga JSON format), mirroring how the paper obtained it:
// Wolfien et al. published TRAPLINE through Galaxy's public workflow
// repository, and Hi-WAY executed the export (§4.2). Routing the benchmark
// through the Galaxy frontend exercises the same code path.

type gaStep struct {
	ID               int                 `json:"id"`
	Type             string              `json:"type"`
	Label            string              `json:"label,omitempty"`
	Name             string              `json:"name,omitempty"`
	ToolID           string              `json:"tool_id,omitempty"`
	Inputs           []map[string]string `json:"inputs,omitempty"`
	Outputs          []map[string]string `json:"outputs,omitempty"`
	InputConnections map[string]gaConn   `json:"input_connections,omitempty"`
}

type gaConn struct {
	ID         int    `json:"id"`
	OutputName string `json:"output_name"`
}

// TRAPLINEGalaxyJSON renders the pipeline as a Galaxy export: one
// data-input step per replicate lane plus the reference genome, a TopHat 2
// and a Cufflinks step per lane, then Cuffmerge and Cuffdiff joins.
func TRAPLINEGalaxyJSON(lanesPerGroup int) string {
	if lanesPerGroup <= 0 {
		lanesPerGroup = 3
	}
	lanes := lanesPerGroup * 2
	steps := map[string]gaStep{}
	id := 0
	add := func(s gaStep) int {
		s.ID = id
		steps[fmt.Sprint(id)] = s
		id++
		return s.ID
	}

	genome := add(gaStep{Type: "data_input", Label: "genome"})
	var laneInputs []int
	for l := 0; l < lanes; l++ {
		group, rep := lane(l, lanesPerGroup)
		laneInputs = append(laneInputs, add(gaStep{Type: "data_input", Label: fmt.Sprintf("%s_rep%d", group, rep)}))
	}
	var cuffOut []int
	for l := 0; l < lanes; l++ {
		tophat := add(gaStep{
			Type:   "tool",
			ToolID: "toolshed.g2.bx.psu.edu/repos/devteam/tophat2/tophat2/2.1.0",
			Name:   "TopHat2",
			InputConnections: map[string]gaConn{
				"input":     {ID: laneInputs[l], OutputName: "output"},
				"reference": {ID: genome, OutputName: "output"},
			},
			Outputs: []map[string]string{{"name": "accepted_hits", "type": "bam"}},
		})
		cufflinks := add(gaStep{
			Type:   "tool",
			ToolID: "toolshed.g2.bx.psu.edu/repos/devteam/cufflinks/cufflinks/2.2.1",
			Name:   "Cufflinks",
			InputConnections: map[string]gaConn{
				"input": {ID: tophat, OutputName: "accepted_hits"},
			},
			Outputs: []map[string]string{{"name": "assembly", "type": "gtf"}},
		})
		cuffOut = append(cuffOut, cufflinks)
	}
	mergeConns := map[string]gaConn{"genome": {ID: genome, OutputName: "output"}}
	for i, c := range cuffOut {
		mergeConns[fmt.Sprintf("assembly%d", i)] = gaConn{ID: c, OutputName: "assembly"}
	}
	merge := add(gaStep{
		Type:             "tool",
		ToolID:           "toolshed.g2.bx.psu.edu/repos/devteam/cuffmerge/cuffmerge/2.2.1",
		Name:             "Cuffmerge",
		InputConnections: mergeConns,
		Outputs:          []map[string]string{{"name": "merged", "type": "gtf"}},
	})
	add(gaStep{
		Type:   "tool",
		ToolID: "toolshed.g2.bx.psu.edu/repos/devteam/cuffdiff/cuffdiff/2.2.1",
		Name:   "Cuffdiff",
		InputConnections: map[string]gaConn{
			"transcripts": {ID: merge, OutputName: "merged"},
		},
		Outputs: []map[string]string{{"name": "diff", "type": "tabular"}},
	})

	doc := map[string]any{
		"a_galaxy_workflow": "true",
		"name":              "TRAPLINE",
		"annotation":        "Standardized RNA-seq analysis pipeline (Wolfien et al. 2016)",
		"steps":             steps,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic("workloads: marshaling TRAPLINE export: " + err.Error())
	}
	return string(b)
}

// TRAPLINEFromGalaxy parses the generated Galaxy export into a driver with
// the same resource calibration as TRAPLINE, plus the matching inputs.
func TRAPLINEFromGalaxy(cfg TRAPLINEConfig) (wf.StaticDriver, []Input, error) {
	cfg.setDefaults()
	_, inputs := TRAPLINEGraph(cfg).Bind("") // the genome, then a read file per lane
	binds := map[string]string{"genome": inputs[0].Path}
	for l, in := range inputs[1:] {
		group, rep := lane(l, cfg.LanesPerGroup)
		binds[fmt.Sprintf("%s_rep%d", group, rep)] = in.Path
	}
	driver := galaxy.NewDriver("trapline-galaxy", TRAPLINEGalaxyJSON(cfg.LanesPerGroup), galaxy.Options{
		Inputs: binds,
		Profiles: map[string]wf.Profile{
			"tophat2":   {CPUSeconds: cfg.TophatCPUSeconds, Threads: 8, MemMB: 12000, OutputSizeMB: cfg.ReadsSizeMB * 1.6},
			"cufflinks": {CPUSeconds: cfg.CufflinksCPUSeconds, Threads: 8, MemMB: 10000, OutputSizeMB: 120},
			"cuffmerge": {CPUSeconds: cfg.MergeCPUSeconds, Threads: 8, MemMB: 8000, OutputSizeMB: 200},
			"cuffdiff":  {CPUSeconds: cfg.DiffCPUSeconds, Threads: 8, MemMB: 12000, OutputSizeMB: 40},
		},
	})
	// Validate the export parses before handing it out.
	if _, err := galaxy.NewDriver("probe", TRAPLINEGalaxyJSON(cfg.LanesPerGroup), galaxy.Options{Inputs: binds}).Parse(); err != nil {
		return nil, nil, fmt.Errorf("workloads: TRAPLINE Galaxy export invalid: %w", err)
	}
	return driver, inputs, nil
}
