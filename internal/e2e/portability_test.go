package e2e

import (
	"reflect"
	"testing"

	"hiway/internal/core"
	"hiway/internal/lang/cwl"
	"hiway/internal/scheduler"
	"hiway/internal/verify"
	"hiway/internal/workloads"
)

// TestSNVCrossLanguageEquivalence runs the paper's SNV reference pipeline
// end-to-end in both languages — the Cuneiform original (dynamic region
// scatter resolved by the Behavior hook) and the CWL port (region scatter
// declared statically) — on identical simulated clusters, and requires the
// two runs to reach the same canonical outcome: same completed-task
// lineage multiset, same workflow outputs.
func TestSNVCrossLanguageEquivalence(t *testing.T) {
	cfg := workloads.SNVConfig{
		Samples: 2, FilesPerSample: 3, FileSizeMB: 64, CallSplitRegions: 4,
		AlignCPUSeconds: 20, SortCPUSeconds: 10, CallCPUSeconds: 15, AnnotateCPUSeconds: 5,
		RefLocal: true,
	}

	cfDriver, cfInputs, behavior := workloads.SNVCuneiformDriver("snv-port", cfg)
	_, cfEnv := newEnv(t, 4, nil, cfInputs)
	cfRep, err := core.Run(cfEnv, cfDriver, scheduler.NewDataAware(cfEnv.FS),
		core.Config{ContainerVCores: 2, ContainerMemMB: 7000, Behavior: behavior})
	if err != nil {
		t.Fatal(err)
	}
	if !cfRep.Succeeded {
		t.Fatal("cuneiform run failed:", cfRep.Err)
	}

	cwlSrc, cwlInputs := workloads.SNVCWL(cfg)
	cwlDriver := cwl.NewDriver("snv-port", cwlSrc, cwl.Options{})
	_, cwlEnv := newEnv(t, 4, nil, cwlInputs)
	cwlRep, err := core.Run(cwlEnv, cwlDriver, scheduler.NewDataAware(cwlEnv.FS),
		core.Config{ContainerVCores: 2, ContainerMemMB: 7000})
	if err != nil {
		t.Fatal(err)
	}
	if !cwlRep.Succeeded {
		t.Fatal("cwl run failed:", cwlRep.Err)
	}

	// 6 aligns + 2 scatters + 8 calls + 2 annotates on both sides.
	if got := signatureCounts(cfRep.Results); got["align"] != 6 || got["call"] != 8 {
		t.Fatalf("cuneiform counts = %v", got)
	}
	if !reflect.DeepEqual(signatureCounts(cfRep.Results), signatureCounts(cwlRep.Results)) {
		t.Fatalf("signature counts diverge: cuneiform %v, cwl %v",
			signatureCounts(cfRep.Results), signatureCounts(cwlRep.Results))
	}
	cfCanon, cfOuts := verify.CanonicalOutcome(cfRep.Results, cfRep.Outputs)
	cwlCanon, cwlOuts := verify.CanonicalOutcome(cwlRep.Results, cwlRep.Outputs)
	if !reflect.DeepEqual(cfCanon, cwlCanon) {
		t.Fatalf("canonical lineage diverges:\ncuneiform: %v\ncwl:       %v", cfCanon, cwlCanon)
	}
	if !reflect.DeepEqual(cfOuts, cwlOuts) {
		t.Fatalf("canonical outputs diverge: cuneiform %v, cwl %v", cfOuts, cwlOuts)
	}
	if len(cfOuts) != cfg.Samples {
		t.Fatalf("outputs = %v, want one annotated VCF per sample", cfOuts)
	}
}
