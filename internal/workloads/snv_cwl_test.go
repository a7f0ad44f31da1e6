package workloads

import (
	"os"
	"testing"

	"hiway/internal/lang/cwl"
	"hiway/internal/wf"
)

// snvCWLDriver builds the CWL driver for the workflow. No Behavior hook is
// needed: the region scatter that is dynamic in the Cuneiform rendering is
// declared statically via outCount.
func snvCWLDriver(name string, cfg SNVConfig) (*cwl.Driver, []Input) {
	src, inputs := SNVCWL(cfg)
	return cwl.NewDriver(name, src, cwl.Options{}), inputs
}

// TestSNVCWLDrivesToCompletion mirrors the Cuneiform drive-to-completion
// test: the CWL rendering must produce the same task counts and the same
// readiness frontier, with the region scatter declared statically instead
// of resolved by a Behavior hook.
func TestSNVCWLDrivesToCompletion(t *testing.T) {
	cfg := SNVConfig{Samples: 2, FilesPerSample: 3, FileSizeMB: 64, CallSplitRegions: 4,
		AlignCPUSeconds: 10, SortCPUSeconds: 5, CallCPUSeconds: 8, AnnotateCPUSeconds: 4, RefLocal: true}
	driver, inputs := snvCWLDriver("snv-test", cfg)
	if len(inputs) != 6 {
		t.Fatalf("inputs = %d", len(inputs))
	}
	ready, err := driver.Parse()
	if err != nil {
		t.Fatal(err)
	}
	if len(ready) != 6 {
		t.Fatalf("ready = %d, want 6 aligns", len(ready))
	}
	counts := map[string]int{}
	queue := ready
	for len(queue) > 0 {
		task := queue[0]
		queue = queue[1:]
		counts[task.Name]++
		res := &wf.TaskResult{Task: task, Outputs: wf.DefaultOutcome(task).Outputs}
		next, err := driver.OnTaskComplete(res)
		if err != nil {
			t.Fatal(err)
		}
		queue = append(queue, next...)
	}
	if !driver.Done() {
		t.Fatal("driver not done after all tasks completed")
	}
	// Same shape as the Cuneiform rendering: 6 aligns + 2 scatters + 2×4
	// calls + 2 annotates.
	if counts["align"] != 6 || counts["sortscatter"] != 2 || counts["call"] != 8 || counts["annotate"] != 2 {
		t.Fatalf("counts = %v", counts)
	}
	if outs := driver.Outputs(); len(outs) != 2 {
		t.Fatalf("outputs = %v", outs)
	}
}

// TestSNVCWLResourceProfile pins the per-tool resources onto the parsed
// tasks: CWL ResourceRequirement and hiway:Profile must land where the
// Cuneiform @threads/@mem/@cpu/@size annotations do.
func TestSNVCWLResourceProfile(t *testing.T) {
	cfg := SNVConfig{Samples: 1, FilesPerSample: 2, FileSizeMB: 100, CallSplitRegions: 4, RefLocal: true}
	driver, _ := snvCWLDriver("snv-res", cfg)
	if _, err := driver.Parse(); err != nil {
		t.Fatal(err)
	}
	byName := map[string]*wf.Task{}
	for _, task := range driver.Graph().All() {
		byName[task.Name] = task
	}
	align := byName["align"]
	if align.Threads != 8 || align.MemMB != 6500 || align.CPUSeconds != 3000 {
		t.Fatalf("align resources: threads=%d mem=%d cpu=%g", align.Threads, align.MemMB, align.CPUSeconds)
	}
	if got := align.Declared["bam"][0].SizeMB; got != 120 { // 100 × 1.2
		t.Fatalf("bam size = %g", got)
	}
	sort := byName["sortscatter"]
	if sort.Threads != 4 || sort.MemMB != 4000 {
		t.Fatalf("sortscatter resources: threads=%d mem=%d", sort.Threads, sort.MemMB)
	}
	// The aggregate output is declared up front: 4 regions, each carrying
	// its share of the merged alignment volume (120 × 2 × 0.9 / 4).
	regions := sort.Declared["regions"]
	if len(regions) != 4 {
		t.Fatalf("regions = %d, want 4", len(regions))
	}
	if got := regions[0].SizeMB; got != 54 {
		t.Fatalf("region size = %g", got)
	}
	annotate := byName["annotate"]
	if annotate.Threads != 2 || annotate.MemMB != 3000 {
		t.Fatalf("annotate resources: threads=%d mem=%d", annotate.Threads, annotate.MemMB)
	}
}

// TestSNVCWLExampleInSync keeps the committed examples/snv.cwl identical to
// the generator's output, so the runnable example never drifts from the
// code that the experiments and the equivalence tests exercise.
func TestSNVCWLExampleInSync(t *testing.T) {
	want, _ := SNVCWL(SNVConfig{CallSplitRegions: 4})
	got, err := os.ReadFile("../../examples/snv.cwl")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatal("examples/snv.cwl is out of sync with workloads.SNVCWL(SNVConfig{CallSplitRegions: 4}); regenerate it")
	}
}
