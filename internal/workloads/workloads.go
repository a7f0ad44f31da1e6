// Package workloads generates the paper's evaluation workflows with
// resource profiles calibrated to the reported runtimes:
//
//   - the single-nucleotide-variant (SNV) calling workflow of §4.1
//     (Bowtie 2 → SAMtools sort → VarScan → ANNOVAR over 1000-Genomes
//     reads);
//   - the RNA-seq TRAPLINE workflow of §4.2 (TopHat 2 → Cufflinks →
//     merge/diff over six replicate lanes);
//   - the Montage astronomy workflow of §4.3 (emitted as a Pegasus DAX
//     document, exercising the DAX frontend exactly as the paper did);
//   - the k-means Cuneiform workflow of §3.3 (iterative clustering).
//
// File contents are synthetic — only DAG shape, degrees of parallelism,
// data volumes, and CPU demands matter to scheduling and scalability, and
// those follow the paper.
package workloads

import (
	"fmt"
	"strings"

	"hiway/internal/hdfs"
	"hiway/internal/wf"
)

// Input is one initial input file to stage before execution.
type Input struct {
	Path     string
	SizeMB   float64
	External bool   // lives in S3 rather than HDFS
	Node     string // optional preferred first-replica node
}

// Stage puts the inputs into the filesystem.
func Stage(fs *hdfs.FS, inputs []Input) error {
	for _, in := range inputs {
		if in.External {
			fs.PutExternal(in.Path, in.SizeMB)
			continue
		}
		if _, err := fs.Put(in.Path, in.SizeMB, in.Node); err != nil {
			return fmt.Errorf("workloads: staging %s: %w", in.Path, err)
		}
	}
	return nil
}

// Paths returns the input paths.
func Paths(inputs []Input) []string {
	out := make([]string, len(inputs))
	for i, in := range inputs {
		out[i] = in.Path
	}
	return out
}

// ---------------------------------------------------------------------------
// SNV calling (§4.1)

// SNVConfig parameterizes the variant-calling workflow.
type SNVConfig struct {
	// Samples is the number of genomic samples (the paper doubles this
	// together with the worker count, 1→128).
	Samples int
	// FilesPerSample is the number of read files per sample (paper: 8).
	FilesPerSample int
	// FileSizeMB is the size of one read file (paper: ~1 GB).
	FileSizeMB float64
	// External reads inputs from S3 during execution instead of HDFS
	// (the second experiment's network-load reduction).
	External bool
	// CRAM compresses intermediate alignments (referential compression),
	// shrinking intermediate data ~3x.
	CRAM bool
	// RefLocal treats the reference index as locally installed on every
	// node (the paper's Chef recipes install tools and reference data on
	// all workers, §3.6), so it is neither staged nor read from HDFS.
	RefLocal bool
	// CallSplitRegions splits each sample's variant calling into this many
	// parallel per-region tasks (chromosome-wise calling), shortening the
	// critical path for highly parallel clusters. Default 1 (no split).
	CallSplitRegions int
	// AlignCPUSeconds etc. scale the per-task CPU demand; zero picks the
	// calibrated defaults reproducing the ~340 min single-sample runtime
	// on an m3.large (2 cores). With CallSplitRegions > 1,
	// CallCPUSeconds is the demand per region task.
	AlignCPUSeconds, SortCPUSeconds, CallCPUSeconds, AnnotateCPUSeconds float64
}

// ApplyDefaults fills zero fields with the calibrated defaults — exported
// so experiment harnesses can perturb the effective values.
func (c *SNVConfig) ApplyDefaults() { c.setDefaults() }

func (c *SNVConfig) setDefaults() {
	if c.Samples <= 0 {
		c.Samples = 1
	}
	if c.FilesPerSample <= 0 {
		c.FilesPerSample = 8
	}
	if c.FileSizeMB <= 0 {
		c.FileSizeMB = 1024
	}
	if c.CallSplitRegions <= 0 {
		c.CallSplitRegions = 1
	}
	// Calibration: one sample ⇒ 8 alignments ×3000 + sort 2400 + call
	// 12000 + annotate 1600 = 40000 core-seconds ≈ 333 min on 2 cores,
	// plus I/O ⇒ ~340 min, matching Table 2's single-worker row.
	if c.AlignCPUSeconds <= 0 {
		c.AlignCPUSeconds = 3000
	}
	if c.SortCPUSeconds <= 0 {
		c.SortCPUSeconds = 2400
	}
	if c.CallCPUSeconds <= 0 {
		c.CallCPUSeconds = 12000
	}
	if c.AnnotateCPUSeconds <= 0 {
		c.AnnotateCPUSeconds = 1600
	}
}

// SNV builds the variant-calling workflow: per read file, a Bowtie 2
// alignment against the reference; per sample, a SAMtools sort/merge, a
// VarScan variant call, and an ANNOVAR annotation. The driver's Build hands
// back the task list it was built from, not a copy.
func SNV(cfg SNVConfig) (*wf.StaticBase, []Input) {
	cfg.setDefaults()
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

// TotalInputMB sums the data volume of the inputs excluding shared
// references — the "data volume" row of Table 2 counts read data.
func TotalInputMB(inputs []Input) float64 {
	var sum float64
	for _, in := range inputs {
		if !strings.HasPrefix(in.Path, "/ref/") {
			sum += in.SizeMB
		}
	}
	return sum
}

// ---------------------------------------------------------------------------
// RNA-seq TRAPLINE (§4.2)

// TRAPLINEConfig parameterizes the RNA-seq workflow.
type TRAPLINEConfig struct {
	// LanesPerGroup is the number of replicates per sample group
	// (paper: triplicates, two groups, degree of parallelism six).
	LanesPerGroup int
	// ReadsSizeMB is one lane's input size (paper: >10 GB total over six
	// lanes).
	ReadsSizeMB float64
	// TophatCPUSeconds etc. override the calibrated defaults.
	TophatCPUSeconds, CufflinksCPUSeconds, MergeCPUSeconds, DiffCPUSeconds float64
}

func (c *TRAPLINEConfig) setDefaults() {
	if c.LanesPerGroup <= 0 {
		c.LanesPerGroup = 3
	}
	if c.ReadsSizeMB <= 0 {
		c.ReadsSizeMB = 1800
	}
	// Calibration for c3.2xlarge (8 cores, factor 1.15): per-lane chain
	// ≈ (11000 + 5500)/(8·1.15) ≈ 30 min of compute plus I/O ⇒ ~33 min;
	// shared tail ≈ (2500 + 8500)/(8·1.15) ≈ 20 min. One node ⇒ ~220
	// min, six nodes ⇒ ~55 min — Fig. 8's Hi-WAY endpoints.
	if c.TophatCPUSeconds <= 0 {
		c.TophatCPUSeconds = 11000
	}
	if c.CufflinksCPUSeconds <= 0 {
		c.CufflinksCPUSeconds = 5500
	}
	if c.MergeCPUSeconds <= 0 {
		c.MergeCPUSeconds = 2500
	}
	if c.DiffCPUSeconds <= 0 {
		c.DiffCPUSeconds = 8500
	}
}

// TRAPLINE builds the RNA-seq comparison workflow: per lane TopHat 2 and
// Cufflinks, then one Cuffmerge join and one Cuffdiff comparing the two
// groups. TopHat 2 is the multithreaded, intermediate-heavy step the paper
// singles out. As with SNV, Build hands back the task list itself.
func TRAPLINE(cfg TRAPLINEConfig) (*wf.StaticBase, []Input) {
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

// InputSizes maps input paths to sizes (for engines without HDFS metadata,
// e.g. the CloudMan baseline).
func InputSizes(inputs []Input) map[string]float64 {
	m := make(map[string]float64, len(inputs))
	for _, in := range inputs {
		m[in.Path] = in.SizeMB
	}
	return m
}
