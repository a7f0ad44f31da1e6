package workloads

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"hiway/internal/wf"
)

// referenceSNV is the generator SNVGraph replaced, kept as its reference. It builds the variant-calling workflow: per read file, a Bowtie 2
// alignment against the reference; per sample, a SAMtools sort/merge, a
// VarScan variant call, and an ANNOVAR annotation. The driver's Build hands
// back the task list it was built from, not a copy.
func referenceSNV(cfg SNVConfig) (*wf.StaticBase, []Input) {
	cfg.ApplyDefaults()
	ref := Input{Path: "/ref/hg38.idx", SizeMB: 3500}
	var inputs []Input
	refInputs := []string{ref.Path}
	if cfg.RefLocal {
		refInputs = nil
	} else {
		inputs = append(inputs, ref)
	}

	alignedSize := cfg.FileSizeMB * 1.2 // SAM/BAM slightly larger than reads
	if cfg.CRAM {
		alignedSize = cfg.FileSizeMB * 0.4 // referential compression
	}

	var ids wf.IDSeq
	var tasks []*wf.Task
	for s := 0; s < cfg.Samples; s++ {
		var bams []string
		for f := 0; f < cfg.FilesPerSample; f++ {
			reads := Input{
				Path:     fmt.Sprintf("/reads/sample%03d/part%02d.fq", s, f),
				SizeMB:   cfg.FileSizeMB,
				External: cfg.External,
			}
			inputs = append(inputs, reads)
			bam := fmt.Sprintf("/work/sample%03d/part%02d.bam", s, f)
			align := &wf.Task{
				ID:           ids.Next(),
				Name:         "bowtie2",
				Command:      fmt.Sprintf("bowtie2 -x /ref/hg38.idx -U %s -S %s", reads.Path, bam),
				Inputs:       append([]string{reads.Path}, refInputs...),
				OutputParams: []string{"out"},
				Declared:     map[string][]wf.FileInfo{"out": {{Path: bam, SizeMB: alignedSize}}},
				CPUSeconds:   cfg.AlignCPUSeconds,
				Threads:      8,
				MemMB:        6500,
			}
			tasks = append(tasks, align)
			bams = append(bams, bam)
		}
		// Sorting scatters the merged alignment into one file per calling
		// region (a single file when CallSplitRegions is 1), so each
		// variant caller reads only its slice.
		sortedSizeMB := alignedSize * float64(cfg.FilesPerSample) * 0.9
		var regionFiles []wf.FileInfo
		for r := 0; r < cfg.CallSplitRegions; r++ {
			regionFiles = append(regionFiles, wf.FileInfo{
				Path:   fmt.Sprintf("/work/sample%03d/sorted_r%02d.bam", s, r),
				SizeMB: sortedSizeMB / float64(cfg.CallSplitRegions),
			})
		}
		sort := &wf.Task{
			ID:           ids.Next(),
			Name:         "samtools-sort",
			Command:      "samtools sort " + strings.Join(bams, " "),
			Inputs:       bams,
			OutputParams: []string{"out"},
			Declared:     map[string][]wf.FileInfo{"out": regionFiles},
			CPUSeconds:   cfg.SortCPUSeconds,
			Threads:      4,
			MemMB:        4000,
		}
		var vcfs []string
		var calls []*wf.Task
		for r := 0; r < cfg.CallSplitRegions; r++ {
			region := regionFiles[r].Path
			vcf := fmt.Sprintf("/work/sample%03d/variants_r%02d.vcf", s, r)
			call := &wf.Task{
				ID:           ids.Next(),
				Name:         "varscan",
				Command:      fmt.Sprintf("varscan mpileup2snp %s > %s", region, vcf),
				Inputs:       []string{region},
				OutputParams: []string{"out"},
				Declared:     map[string][]wf.FileInfo{"out": {{Path: vcf, SizeMB: 80 / float64(cfg.CallSplitRegions)}}},
				CPUSeconds:   cfg.CallCPUSeconds,
				Threads:      8,
				MemMB:        6500,
			}
			vcfs = append(vcfs, vcf)
			calls = append(calls, call)
		}
		annotated := fmt.Sprintf("/out/sample%03d/annotated.vcf", s)
		annotate := &wf.Task{
			ID:           ids.Next(),
			Name:         "annovar",
			Command:      fmt.Sprintf("annovar %s > %s", strings.Join(vcfs, " "), annotated),
			Inputs:       vcfs,
			OutputParams: []string{"out"},
			Declared:     map[string][]wf.FileInfo{"out": {{Path: annotated, SizeMB: 90}}},
			CPUSeconds:   cfg.AnnotateCPUSeconds,
			Threads:      2,
			MemMB:        3000,
		}
		tasks = append(tasks, sort)
		tasks = append(tasks, calls...)
		tasks = append(tasks, annotate)
	}

	sb := &wf.StaticBase{WFName: fmt.Sprintf("snv-calling-%dx%d", cfg.Samples, cfg.FilesPerSample)}
	sb.Build = func() ([]*wf.Task, []string, []wf.Edge, error) {
		return tasks, Paths(inputs), nil, nil
	}
	return sb, inputs
}

// referenceTRAPLINE is the generator TRAPLINEGraph replaced, kept as its
// reference. It builds the RNA-seq comparison workflow: per lane TopHat 2 and
// Cufflinks, then one Cuffmerge join and one Cuffdiff comparing the two
// groups. TopHat 2 is the multithreaded, intermediate-heavy step the paper
// singles out. As with SNV, Build hands back the task list itself.
func referenceTRAPLINE(cfg TRAPLINEConfig) (*wf.StaticBase, []Input) {
	cfg.setDefaults()
	genome := Input{Path: "/ref/mm10.fa", SizeMB: 2800}
	inputs := []Input{genome}
	lanes := cfg.LanesPerGroup * 2

	var ids wf.IDSeq
	var tasks []*wf.Task
	var quantified []string
	for l := 0; l < lanes; l++ {
		group := "young"
		if l >= cfg.LanesPerGroup {
			group = "aged"
		}
		reads := Input{Path: fmt.Sprintf("/reads/%s/rep%d.fastq", group, l%cfg.LanesPerGroup), SizeMB: cfg.ReadsSizeMB}
		inputs = append(inputs, reads)
		hits := fmt.Sprintf("/work/lane%d/accepted_hits.bam", l)
		tophat := &wf.Task{
			ID:           ids.Next(),
			Name:         "tophat2",
			Command:      fmt.Sprintf("tophat2 -o /work/lane%d /ref/mm10 %s", l, reads.Path),
			Inputs:       []string{reads.Path, genome.Path},
			OutputParams: []string{"out"},
			// TopHat generates large intermediate files (§4.2).
			Declared:   map[string][]wf.FileInfo{"out": {{Path: hits, SizeMB: cfg.ReadsSizeMB * 1.6}}},
			CPUSeconds: cfg.TophatCPUSeconds,
			Threads:    8,
			MemMB:      12000,
		}
		gtf := fmt.Sprintf("/work/lane%d/transcripts.gtf", l)
		cufflinks := &wf.Task{
			ID:           ids.Next(),
			Name:         "cufflinks",
			Command:      fmt.Sprintf("cufflinks -o /work/lane%d %s", l, hits),
			Inputs:       []string{hits},
			OutputParams: []string{"out"},
			Declared:     map[string][]wf.FileInfo{"out": {{Path: gtf, SizeMB: 120}}},
			CPUSeconds:   cfg.CufflinksCPUSeconds,
			Threads:      8,
			MemMB:        10000,
		}
		tasks = append(tasks, tophat, cufflinks)
		quantified = append(quantified, gtf)
	}
	merged := "/work/merged.gtf"
	merge := &wf.Task{
		ID:           ids.Next(),
		Name:         "cuffmerge",
		Command:      "cuffmerge " + strings.Join(quantified, " "),
		Inputs:       append(append([]string{}, quantified...), genome.Path),
		OutputParams: []string{"out"},
		Declared:     map[string][]wf.FileInfo{"out": {{Path: merged, SizeMB: 200}}},
		CPUSeconds:   cfg.MergeCPUSeconds,
		Threads:      8,
		MemMB:        8000,
	}
	diff := &wf.Task{
		ID:           ids.Next(),
		Name:         "cuffdiff",
		Command:      "cuffdiff " + merged,
		Inputs:       []string{merged},
		OutputParams: []string{"out"},
		Declared:     map[string][]wf.FileInfo{"out": {{Path: "/out/diff_results.txt", SizeMB: 40}}},
		CPUSeconds:   cfg.DiffCPUSeconds,
		Threads:      8,
		MemMB:        12000,
	}
	tasks = append(tasks, merge, diff)

	sb := &wf.StaticBase{WFName: "trapline-rnaseq"}
	sb.Build = func() ([]*wf.Task, []string, []wf.Edge, error) {
		return tasks, Paths(inputs), nil, nil
	}
	return sb, inputs
}

// TestGraphsMatchReference binds SNVGraph and TRAPLINEGraph, seeded over
// their configurations and under no prefix, beside the generators they
// replaced: task by task, and input by input, they are equal.
func TestGraphsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 60; i++ {
		snv := SNVConfig{Samples: rng.Intn(4), FilesPerSample: rng.Intn(12), FileSizeMB: float64(rng.Intn(3) * 64),
			External: rng.Intn(2) == 0, CRAM: rng.Intn(2) == 0, RefLocal: rng.Intn(2) == 0, CallSplitRegions: rng.Intn(4),
			AlignCPUSeconds: float64(rng.Intn(3) * 10), CallCPUSeconds: float64(rng.Intn(3) * 10)}
		trap := TRAPLINEConfig{LanesPerGroup: rng.Intn(4), ReadsSizeMB: float64(rng.Intn(3) * 64), MergeCPUSeconds: float64(rng.Intn(3))}
		for _, c := range []struct {
			name     string
			got, ref func() (*wf.StaticBase, []Input)
		}{
			{fmt.Sprintf("%+v", snv), func() (*wf.StaticBase, []Input) { return SNV(snv) }, func() (*wf.StaticBase, []Input) { return referenceSNV(snv) }},
			{fmt.Sprintf("%+v", trap), func() (*wf.StaticBase, []Input) { return TRAPLINE(trap) }, func() (*wf.StaticBase, []Input) { return referenceTRAPLINE(trap) }},
		} {
			got, gotInputs := c.got()
			ref, refInputs := c.ref()
			gotTasks, gotPaths, _, _ := got.Build()
			refTasks, refPaths, _, _ := ref.Build()
			if got.WFName != ref.WFName || !reflect.DeepEqual(gotInputs, refInputs) || !reflect.DeepEqual(gotPaths, refPaths) {
				t.Fatalf("%s: %s %v, reference %s %v", c.name, got.WFName, gotInputs, ref.WFName, refInputs)
			}
			if len(gotTasks) != len(refTasks) {
				t.Fatalf("%s: %d tasks, reference %d", c.name, len(gotTasks), len(refTasks))
			}
			for k := range gotTasks {
				if !reflect.DeepEqual(gotTasks[k], refTasks[k]) {
					t.Fatalf("%s: task %d\n%+v\nreference\n%+v", c.name, k, *gotTasks[k], *refTasks[k])
				}
			}
		}
	}
}
