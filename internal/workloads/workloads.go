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
	"slices"
	"strconv"
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

// orDefault sets *v to def unless it is positive (for a string, set).
func orDefault[T int | float64 | string](v *T, def T) {
	var zero T
	if *v <= zero {
		*v = def
	}
}

// Paths returns the input paths.
func Paths(inputs []Input) []string {
	out := make([]string, len(inputs))
	for i, in := range inputs {
		out[i] = in.Path
	}
	return out
}

// Graph is a generated workflow before it is placed in HDFS: its tasks
// without their paths, and every path once, unprefixed, named by its
// position. It is immutable once generated, so any number of runs bind one
// at once. Every generated task declares the one output parameter out.
type Graph struct {
	Name   string
	text   []byte  // every path, one after another
	ends   []int32 // path i is text[ends[i]:ends[i+1]]
	tasks  []graphTask
	in     []pathID      // the tasks' input paths, task after task
	out    []graphOutput // the tasks' declared outputs, task after task
	staged []Input       // the inputs to stage, their Paths empty
	stage  []pathID      // the paths they stage
	params []string      // every task's OutputParams
}

// pathID is a path's position in its Graph.
type pathID int32

// graphTask is a generated task without its paths, and where its inputs and
// outputs end in Graph.in and Graph.out.
type graphTask struct {
	wf.Task
	in, out int32
}

type graphOutput struct {
	path   pathID
	sizeMB float64
}

// newGraph starts a graph of so many tasks, paths and staged inputs.
func newGraph(name string, tasks, paths, staged int) *Graph {
	return &Graph{Name: name, text: make([]byte, 0, 32*paths), ends: append(make([]int32, 0, paths+1), 0),
		tasks: make([]graphTask, 0, tasks), in: make([]pathID, 0, 2*tasks), out: make([]graphOutput, 0, tasks),
		staged: make([]Input, 0, staged), stage: make([]pathID, 0, staged), params: []string{"out"}}
}

// path adds a path and returns its position.
func (g *Graph) path(format string, args ...any) pathID {
	g.text = fmt.Appendf(g.text, format, args...)
	g.ends = append(g.ends, int32(len(g.text)))
	return pathID(len(g.ends) - 2)
}

// at returns the path at position i.
func (g *Graph) at(i pathID) []byte { return g.text[g.ends[i]:g.ends[i+1]] }

// cmd writes a command line from strings, paths and space-separated lists
// of paths.
func (g *Graph) cmd(words ...any) string {
	b := make([]byte, 0, 256)
	for _, w := range words {
		switch w := w.(type) {
		case string:
			b = append(b, w...)
		case pathID:
			b = append(b, g.at(w)...)
		case []pathID:
			for k, i := range w {
				if k > 0 {
					b = append(b, ' ')
				}
				b = append(b, g.at(i)...)
			}
		}
	}
	return string(b)
}

// input adds a path and an input that stages it.
func (g *Graph) input(in Input, format string, args ...any) pathID {
	i := g.path(format, args...)
	g.staged, g.stage = append(g.staged, in), append(g.stage, i)
	return i
}

// task adds t, reading the paths at the given positions (a negative one is
// no input) and declaring the outputs.
func (g *Graph) task(t wf.Task, inputs []pathID, outputs ...graphOutput) {
	for _, i := range inputs {
		if i >= 0 {
			g.in = append(g.in, i)
		}
	}
	g.out = append(g.out, outputs...)
	t.OutputParams = g.params
	g.tasks = append(g.tasks, graphTask{t, int32(len(g.in)), int32(len(g.out))})
}

// Bind places the graph under prefix for one run: its tasks, numbered as
// generated, and the inputs to stage. Each prefixed path is a slice of one
// string, shared by its producer, its readers and the input that stages it;
// Name, Command and OutputParams are the graph's own.
func (g *Graph) Bind(prefix string) ([]*wf.Task, []Input) { return g.bind(prefix, false) }

// bind is Bind, into the graph's own tasks if spend is set.
func (g *Graph) bind(prefix string, spend bool) ([]*wf.Task, []Input) {
	var b strings.Builder
	b.Grow(len(g.ends)*len(prefix) + len(g.text))
	for i := range len(g.ends) - 1 {
		b.WriteString(prefix)
		b.Write(g.at(pathID(i)))
	}
	all, n := b.String(), int32(len(prefix))
	path := func(i pathID) string { return all[int32(i)*n+g.ends[i] : int32(i+1)*n+g.ends[i+1]] }
	ins, outs := make([]string, len(g.in)), make([]wf.FileInfo, len(g.out))
	for k, i := range g.in {
		ins[k] = path(i)
	}
	for k, o := range g.out {
		outs[k] = wf.FileInfo{Path: path(o.path), SizeMB: o.sizeMB}
	}
	tasks := g.tasks
	if !spend {
		tasks = slices.Clone(g.tasks)
	}
	ptrs := make([]*wf.Task, len(tasks))
	var in0, out0 int32
	for i := range tasks {
		t := &tasks[i]
		t.Inputs = ins[in0:t.in:t.in]
		t.Declared = map[string][]wf.FileInfo{"out": outs[out0:t.out:t.out]}
		ptrs[i], in0, out0 = &t.Task, t.in, t.out
	}
	inputs := slices.Clone(g.staged)
	for k, i := range g.stage {
		inputs[k].Path = path(i)
	}
	return ptrs, inputs
}

// Driver binds the graph under no prefix into its own tasks, which spends
// it, as a static driver whose Build hands back the bound tasks themselves.
func (g *Graph) Driver() (*wf.StaticBase, []Input) {
	tasks, inputs := g.bind("", true)
	return &wf.StaticBase{WFName: g.Name, Build: func() ([]*wf.Task, []string, []wf.Edge, error) {
		return tasks, Paths(inputs), nil, nil
	}}, inputs
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
func (c *SNVConfig) ApplyDefaults() {
	orDefault(&c.Samples, 1)
	orDefault(&c.FilesPerSample, 8)
	orDefault(&c.FileSizeMB, 1024)
	orDefault(&c.CallSplitRegions, 1)
	// Calibration: one sample ⇒ 8 alignments ×3000 + sort 2400 + call
	// 12000 + annotate 1600 = 40000 core-seconds ≈ 333 min on 2 cores,
	// plus I/O ⇒ ~340 min, matching Table 2's single-worker row.
	orDefault(&c.AlignCPUSeconds, 3000)
	orDefault(&c.SortCPUSeconds, 2400)
	orDefault(&c.CallCPUSeconds, 12000)
	orDefault(&c.AnnotateCPUSeconds, 1600)
}

// alignedMB is the size of one read file's alignment: SAM/BAM slightly
// larger than the reads, or a third of that under referential compression.
func (c *SNVConfig) alignedMB() float64 {
	if c.CRAM {
		return c.FileSizeMB * 0.4
	}
	return c.FileSizeMB * 1.2
}

// regionMB is one calling region's slice of a sample's sorted alignment.
func (c *SNVConfig) regionMB() float64 {
	return c.alignedMB() * float64(c.FilesPerSample) * 0.9 / float64(c.CallSplitRegions)
}

// SNV builds the variant-calling workflow (SNVGraph), bound under no prefix.
func SNV(cfg SNVConfig) (*wf.StaticBase, []Input) { return SNVGraph(cfg).Driver() }

// SNVGraph generates the variant-calling workflow: per read file, a Bowtie
// 2 alignment against the reference; per sample, a SAMtools sort/merge, a
// VarScan variant call, and an ANNOVAR annotation.
func SNVGraph(cfg SNVConfig) *Graph {
	cfg.ApplyDefaults()
	files, regs := cfg.FilesPerSample, cfg.CallSplitRegions
	g := newGraph(fmt.Sprintf("snv-calling-%dx%d", cfg.Samples, files),
		cfg.Samples*(files+regs+2), cfg.Samples*(2*files+2*regs+1)+1, cfg.Samples*files+1)
	ref := pathID(-1) // no input
	if !cfg.RefLocal {
		ref = g.input(Input{SizeMB: 3500}, "/ref/hg38.idx")
	}

	var ids wf.IDSeq
	bams, regions, vcfs := make([]pathID, files), make([]graphOutput, regs), make([]pathID, regs)
	for s := 0; s < cfg.Samples; s++ {
		for f := range bams {
			reads := g.input(Input{SizeMB: cfg.FileSizeMB, External: cfg.External}, "/reads/sample%03d/part%02d.fq", s, f)
			bams[f] = g.path("/work/sample%03d/part%02d.bam", s, f)
			g.task(wf.Task{ID: ids.Next(), Name: "bowtie2",
				Command:    g.cmd("bowtie2 -x /ref/hg38.idx -U ", reads, " -S ", bams[f]),
				CPUSeconds: cfg.AlignCPUSeconds, Threads: 8, MemMB: 6500,
			}, []pathID{reads, ref}, graphOutput{bams[f], cfg.alignedMB()})
		}
		// Sorting scatters the merged alignment into one file per calling
		// region (a single file when CallSplitRegions is 1), so each
		// variant caller reads only its slice.
		for r := range regions {
			regions[r] = graphOutput{g.path("/work/sample%03d/sorted_r%02d.bam", s, r), cfg.regionMB()}
		}
		g.task(wf.Task{ID: ids.Next(), Name: "samtools-sort", Command: g.cmd("samtools sort ", bams),
			CPUSeconds: cfg.SortCPUSeconds, Threads: 4, MemMB: 4000}, bams, regions...)
		for r, region := range regions {
			vcfs[r] = g.path("/work/sample%03d/variants_r%02d.vcf", s, r)
			g.task(wf.Task{ID: ids.Next(), Name: "varscan",
				Command:    g.cmd("varscan mpileup2snp ", region.path, " > ", vcfs[r]),
				CPUSeconds: cfg.CallCPUSeconds, Threads: 8, MemMB: 6500,
			}, []pathID{region.path}, graphOutput{vcfs[r], 80 / float64(cfg.CallSplitRegions)})
		}
		annotated := g.path("/out/sample%03d/annotated.vcf", s)
		g.task(wf.Task{ID: ids.Next(), Name: "annovar",
			Command:    g.cmd("annovar ", vcfs, " > ", annotated),
			CPUSeconds: cfg.AnnotateCPUSeconds, Threads: 2, MemMB: 3000}, vcfs, graphOutput{annotated, 90})
	}
	return g
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
	orDefault(&c.LanesPerGroup, 3)
	orDefault(&c.ReadsSizeMB, 1800)
	// Calibration for c3.2xlarge (8 cores, factor 1.15): per-lane chain
	// ≈ (11000 + 5500)/(8·1.15) ≈ 30 min of compute plus I/O ⇒ ~33 min;
	// shared tail ≈ (2500 + 8500)/(8·1.15) ≈ 20 min. One node ⇒ ~220
	// min, six nodes ⇒ ~55 min — Fig. 8's Hi-WAY endpoints.
	orDefault(&c.TophatCPUSeconds, 11000)
	orDefault(&c.CufflinksCPUSeconds, 5500)
	orDefault(&c.MergeCPUSeconds, 2500)
	orDefault(&c.DiffCPUSeconds, 8500)
}

// TRAPLINE builds the RNA-seq comparison workflow (TRAPLINEGraph), bound
// under no prefix.
func TRAPLINE(cfg TRAPLINEConfig) (*wf.StaticBase, []Input) { return TRAPLINEGraph(cfg).Driver() }

// TRAPLINEGraph generates the RNA-seq comparison workflow: per lane TopHat 2
// and Cufflinks, then one Cuffmerge join and one Cuffdiff comparing the two
// groups. TopHat 2 is the multithreaded, intermediate-heavy step the paper
// singles out.
func TRAPLINEGraph(cfg TRAPLINEConfig) *Graph {
	cfg.setDefaults()
	lanes := cfg.LanesPerGroup * 2
	g := newGraph("trapline-rnaseq", 2*lanes+2, 3*lanes+3, lanes+1)
	genome := g.input(Input{SizeMB: 2800}, "/ref/mm10.fa")

	var ids wf.IDSeq
	quantified := make([]pathID, lanes, lanes+1)
	for l := range quantified {
		group, rep := lane(l, cfg.LanesPerGroup)
		reads := g.input(Input{SizeMB: cfg.ReadsSizeMB}, "/reads/%s/rep%d.fastq", group, rep)
		hits := g.path("/work/lane%d/accepted_hits.bam", l)
		// TopHat generates large intermediate files (§4.2).
		g.task(wf.Task{ID: ids.Next(), Name: "tophat2",
			Command:    g.cmd("tophat2 -o /work/lane", strconv.Itoa(l), " /ref/mm10 ", reads),
			CPUSeconds: cfg.TophatCPUSeconds, Threads: 8, MemMB: 12000,
		}, []pathID{reads, genome}, graphOutput{hits, cfg.ReadsSizeMB * 1.6})
		quantified[l] = g.path("/work/lane%d/transcripts.gtf", l)
		g.task(wf.Task{ID: ids.Next(), Name: "cufflinks",
			Command:    g.cmd("cufflinks -o /work/lane", strconv.Itoa(l), " ", hits),
			CPUSeconds: cfg.CufflinksCPUSeconds, Threads: 8, MemMB: 10000}, []pathID{hits}, graphOutput{quantified[l], 120})
	}
	merged := g.path("/work/merged.gtf")
	g.task(wf.Task{ID: ids.Next(), Name: "cuffmerge", Command: g.cmd("cuffmerge ", quantified),
		CPUSeconds: cfg.MergeCPUSeconds, Threads: 8, MemMB: 8000}, append(quantified, genome), graphOutput{merged, 200})
	g.task(wf.Task{ID: ids.Next(), Name: "cuffdiff", Command: g.cmd("cuffdiff ", merged),
		CPUSeconds: cfg.DiffCPUSeconds, Threads: 8, MemMB: 12000}, []pathID{merged}, graphOutput{g.path("/out/diff_results.txt"), 40})
	return g
}

// lane returns the group and replicate of lane l, lanesPerGroup per group.
func lane(l, lanesPerGroup int) (group string, rep int) {
	if l >= lanesPerGroup {
		return "aged", l - lanesPerGroup
	}
	return "young", l
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
