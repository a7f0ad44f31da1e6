package workloads

import (
	"encoding/json"
	"fmt"
)

// This file renders the SNV-calling pipeline as a CWL v1.2 document — the
// same workflow snv_cuneiform.go expresses in the paper's native language.
// CWL is static, so the sort step's aggregate output (per-region alignment
// slices, runtime-cardinality in Cuneiform) is declared up front through
// the hiway:Profile outCount hint: the region count is known from the
// configuration, and the per-region variant calls scatter over the declared
// array. Both renderings compile into the same task graph, which
// TestSNVCuneiformCWLEquivalence pins by canonical lineage.

// SNVCWL renders the workflow document for the given configuration plus
// the inputs to stage, mirroring SNVCuneiform exactly: same tool names,
// same resource profile, same data volumes, same input list.
func SNVCWL(cfg SNVConfig) (string, []Input) {
	cfg.ApplyDefaults()

	tool := func(id string, cmd []any, cpu float64, cores, ram int, ins, outs []any, profile map[string]any) map[string]any {
		profile["class"] = "hiway:Profile"
		profile["cpuSeconds"] = cpu
		return map[string]any{
			"class":       "CommandLineTool",
			"id":          id,
			"baseCommand": cmd,
			"requirements": []any{map[string]any{
				"class": "ResourceRequirement", "coresMin": cores, "ramMin": ram,
			}},
			"hints":   []any{profile},
			"inputs":  ins,
			"outputs": outs,
		}
	}
	tools := []any{
		tool("align",
			[]any{"bowtie2", "-x", "/ref/hg38.idx", "-U", "$reads", "-S", "$bam"},
			cfg.AlignCPUSeconds, 8, 6500,
			[]any{map[string]any{"id": "reads", "type": "File"}},
			[]any{map[string]any{"id": "bam", "type": "File"}},
			map[string]any{"outSizeMB": map[string]any{"bam": cfg.alignedMB()}}),
		tool("sortscatter",
			[]any{"samtools", "sort", "$bams", "|", "split-regions", "--n", "$nregions", "--out-dir", "$regions"},
			cfg.SortCPUSeconds, 4, 4000,
			[]any{
				map[string]any{"id": "bams", "type": "File[]"},
				map[string]any{"id": "nregions", "type": "string"},
			},
			[]any{map[string]any{"id": "regions", "type": "File[]"}},
			map[string]any{
				"outSizeMB": map[string]any{"regions": cfg.regionMB()},
				"outCount":  map[string]any{"regions": cfg.CallSplitRegions},
			}),
		tool("call",
			[]any{"varscan", "mpileup2snp", "$region", ">", "$vcf"},
			cfg.CallCPUSeconds, 8, 6500,
			[]any{map[string]any{"id": "region", "type": "File"}},
			[]any{map[string]any{"id": "vcf", "type": "File"}},
			map[string]any{"outSizeMB": map[string]any{"vcf": 80 / float64(cfg.CallSplitRegions)}}),
		tool("annotate",
			[]any{"annovar", "$vcfs", ">", "$out"},
			cfg.AnnotateCPUSeconds, 2, 3000,
			[]any{map[string]any{"id": "vcfs", "type": "File[]"}},
			[]any{map[string]any{"id": "out", "type": "File"}},
			map[string]any{"outSizeMB": map[string]any{"out": 90.0}}),
	}

	var inputs []Input
	var wfInputs, steps, wfOutputs []any
	for s := 0; s < cfg.Samples; s++ {
		var readFiles []any
		for f := 0; f < cfg.FilesPerSample; f++ {
			p := fmt.Sprintf("/reads/sample%03d/part%02d.fq", s, f)
			readFiles = append(readFiles, map[string]any{"class": "File", "location": p})
			inputs = append(inputs, Input{Path: p, SizeMB: cfg.FileSizeMB, External: cfg.External})
		}
		readsID := fmt.Sprintf("reads_s%03d", s)
		wfInputs = append(wfInputs, map[string]any{
			"id": readsID, "type": "File[]", "default": readFiles,
		})
		alignID := fmt.Sprintf("align_s%03d", s)
		sortID := fmt.Sprintf("sort_s%03d", s)
		callID := fmt.Sprintf("call_s%03d", s)
		annotateID := fmt.Sprintf("annotate_s%03d", s)
		steps = append(steps,
			map[string]any{
				"id": alignID, "run": "#align", "scatter": "reads",
				"in":  []any{map[string]any{"id": "reads", "source": readsID}},
				"out": []any{"bam"},
			},
			map[string]any{
				"id": sortID, "run": "#sortscatter",
				"in": []any{
					map[string]any{"id": "bams", "source": alignID + "/bam"},
					map[string]any{"id": "nregions", "default": fmt.Sprintf("%d", cfg.CallSplitRegions)},
				},
				"out": []any{"regions"},
			},
			map[string]any{
				"id": callID, "run": "#call", "scatter": "region",
				"in":  []any{map[string]any{"id": "region", "source": sortID + "/regions"}},
				"out": []any{"vcf"},
			},
			map[string]any{
				"id": annotateID, "run": "#annotate",
				"in":  []any{map[string]any{"id": "vcfs", "source": callID + "/vcf"}},
				"out": []any{"out"},
			},
		)
		wfOutputs = append(wfOutputs, map[string]any{
			"id":           fmt.Sprintf("annotated_s%03d", s),
			"type":         "File",
			"outputSource": annotateID + "/out",
		})
	}
	if !cfg.RefLocal {
		inputs = append(inputs, Input{Path: "/ref/hg38.idx", SizeMB: 3500})
	}

	doc := map[string]any{
		"cwlVersion": "v1.2",
		"$graph": append([]any{map[string]any{
			"class":   "Workflow",
			"id":      "main",
			"doc":     "SNV calling with Bowtie 2, SAMtools, VarScan, and ANNOVAR (paper section 4.1)",
			"inputs":  wfInputs,
			"outputs": wfOutputs,
			"steps":   steps,
		}}, tools...),
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil { // impossible: the document is plain data
		panic(err)
	}
	return string(b) + "\n", inputs
}
