package workloads

import (
	"fmt"
	"maps"
	"strings"

	"hiway/internal/lang/cuneiform"
	"hiway/internal/wf"
)

// This file renders the SNV-calling pipeline as Cuneiform source — the
// language the paper used for Hi-WAY in §4.1 ("we implemented this
// workflow in both Cuneiform and Tez"). The sort step scatters the merged
// alignment into per-region files through an *aggregate output*, whose
// cardinality only materializes at run time; the subsequent per-region
// variant calls are then discovered dynamically — the part of the workflow
// a static DAG language cannot express.

// SNVCuneiform renders the workflow source for the given configuration.
// CPU attributes may be pre-scaled by the caller for run-to-run jitter.
func SNVCuneiform(cfg SNVConfig) (string, []Input) {
	cfg.ApplyDefaults()
	var sb strings.Builder
	fmt.Fprintf(&sb, `%%%% SNV calling (Bowtie 2 → SAMtools → VarScan → ANNOVAR), paper §4.1.
deftask align( bam : reads ) @cpu %.0f @threads 8 @mem 6500 @size bam %.0f in bash *{
  bowtie2 -x /ref/hg38.idx -U $reads -S $bam
}*
deftask sortscatter( <regions> : <bams> ~nregions ) @cpu %.0f @threads 4 @mem 4000 in bash *{
  samtools sort $bams | split-regions --n "$nregions" --out-dir "$regions"
}*
deftask call( vcf : region ) @cpu %.0f @threads 8 @mem 6500 @size vcf %.0f in bash *{
  varscan mpileup2snp $region > $vcf
}*
deftask annotate( out : <vcfs> ) @cpu %.0f @threads 2 @mem 3000 @size out 90 in bash *{
  annovar $vcfs > $out
}*
`,
		cfg.AlignCPUSeconds, cfg.alignedMB(),
		cfg.SortCPUSeconds,
		cfg.CallCPUSeconds, 80/float64(cfg.CallSplitRegions),
		cfg.AnnotateCPUSeconds)

	var inputs []Input
	for s := 0; s < cfg.Samples; s++ {
		var readPaths []string
		for f := 0; f < cfg.FilesPerSample; f++ {
			p := fmt.Sprintf("/reads/sample%03d/part%02d.fq", s, f)
			readPaths = append(readPaths, fmt.Sprintf("%q", p))
			inputs = append(inputs, Input{Path: p, SizeMB: cfg.FileSizeMB, External: cfg.External})
		}
		fmt.Fprintf(&sb, "\nlet s%03d_reads = %s;\n", s, strings.Join(readPaths, " "))
		fmt.Fprintf(&sb, "let s%03d_bams = align( reads: s%03d_reads );\n", s, s)
		fmt.Fprintf(&sb, "let s%03d_regions = sortscatter( bams: s%03d_bams nregions: \"%d\" );\n", s, s, cfg.CallSplitRegions)
		fmt.Fprintf(&sb, "let s%03d_vcfs = call( region: s%03d_regions );\n", s, s)
		fmt.Fprintf(&sb, "annotate( vcfs: s%03d_vcfs );\n", s)
	}
	if !cfg.RefLocal {
		inputs = append(inputs, Input{Path: "/ref/hg38.idx", SizeMB: 3500})
	}
	return sb.String(), inputs
}

// SNVCuneiformDriver builds the driver plus the Behavior hook that stands
// in for the real tools: the sortscatter task's aggregate output resolves
// to nregions region files sized from the sample's alignment volume.
func SNVCuneiformDriver(name string, cfg SNVConfig) (*cuneiform.Driver, []Input, wf.Behavior) {
	cfg.ApplyDefaults()
	src, inputs := SNVCuneiform(cfg)
	driver := cuneiform.NewDriver(name, src)
	behavior := func(t *wf.Task) wf.Outcome {
		out := wf.DefaultOutcome(t)
		if t.Name == "sortscatter" {
			files := make([]wf.FileInfo, cfg.CallSplitRegions)
			for r := range files {
				files[r] = wf.FileInfo{
					Path:   fmt.Sprintf("work/sortscatter_%d/region%02d.bam", t.ID, r),
					SizeMB: cfg.regionMB(),
				}
			}
			out.Outputs = maps.Clone(out.Outputs) // DefaultOutcome's map is the declaration
			out.Outputs["regions"] = files
		}
		return out
	}
	return driver, inputs, behavior
}
