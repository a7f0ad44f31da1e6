package e2e

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
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

// chainSeed finds a generated verify scenario whose renderings execute
// byte-identically across languages: a fault-free chain, where the
// Cuneiform evaluator's lazy task materialization allocates the same task
// IDs (and therefore synthesizes the same output paths) as the CWL
// frontend's upfront materialization.
func chainSeed(t *testing.T) *verify.Scenario {
	t.Helper()
	for seed := int64(1); seed <= 300; seed++ {
		sc := verify.Generate(seed)
		if sc.Shape != "chain" || sc.Chaos != "" || sc.Service != nil || sc.Elastic != nil {
			continue
		}
		if len(sc.IterTasks) > 0 {
			continue
		}
		if _, err := verify.RenderCuneiform(sc); err != nil {
			continue
		}
		return sc
	}
	t.Fatal("no fault-free chain scenario in seed range")
	return nil
}

// TestCrossLanguageByteIdenticalCLI is the strongest portability claim the
// CLI makes: the same logical workflow, rendered in two languages and run
// in separate `hiway sim` processes, produces byte-identical stdout and a
// byte-identical provenance trace. Restricted to chain-shaped fault-free
// scenarios, where task-ID allocation order coincides across frontends; the
// workflow files share the basename "wf" so workflow IDs and synthesized
// paths agree.
func TestCrossLanguageByteIdenticalCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the CLI binary")
	}
	sc := chainSeed(t)
	cfSrc, err := verify.RenderCuneiform(sc)
	if err != nil {
		t.Fatal(err)
	}
	cwlSrc, err := verify.RenderCWL(sc)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	bin := filepath.Join(dir, "hiway")
	build := exec.Command("go", "build", "-o", bin, "hiway/cmd/hiway")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	if err := os.WriteFile(filepath.Join(dir, "wf.cf"), []byte(cfSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wf.cwl"), []byte(cwlSrc), 0o644); err != nil {
		t.Fatal(err)
	}

	var stageArgs []string
	for _, in := range sc.Inputs {
		stageArgs = append(stageArgs, "-input",
			in.Path+"="+strconv.FormatFloat(in.SizeMB, 'g', -1, 64))
	}

	run := func(wfFile string) ([]byte, []byte) {
		t.Helper()
		runDir := filepath.Join(dir, strings.TrimPrefix(filepath.Ext(wfFile), "."))
		if err := os.MkdirAll(runDir, 0o755); err != nil {
			t.Fatal(err)
		}
		args := append([]string{"sim",
			"-w", filepath.Join(dir, wfFile),
			"-nodes", fmt.Sprint(sc.Nodes),
			"-prov", "prov.jsonl"}, stageArgs...)
		cmd := exec.Command(bin, args...)
		cmd.Dir = runDir
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("%s run: %v\nstderr: %s\nstdout: %s", wfFile, err, stderr.String(), stdout.String())
		}
		prov, err := os.ReadFile(filepath.Join(runDir, "prov.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		return stdout.Bytes(), prov
	}

	cfOut, cfProv := run("wf.cf")
	cwlOut, cwlProv := run("wf.cwl")
	if !bytes.Equal(cfOut, cwlOut) {
		t.Errorf("seed %d: stdout differs between languages:\n--- cuneiform\n%s--- cwl\n%s",
			sc.Seed, cfOut, cwlOut)
	}
	if !bytes.Equal(cfProv, cwlProv) {
		t.Errorf("seed %d: provenance traces differ between languages (%d vs %d bytes)",
			sc.Seed, len(cfProv), len(cwlProv))
	}
	if len(cfProv) == 0 {
		t.Error("empty provenance trace")
	}
}
