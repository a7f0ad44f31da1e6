package workloads

import (
	"strings"
	"testing"

	"hiway/internal/cluster"
	"hiway/internal/hdfs"
	"hiway/internal/lang/cuneiform"
	"hiway/internal/sim"
	"hiway/internal/wf"
)

func testFS(t *testing.T) *hdfs.FS {
	t.Helper()
	eng := sim.NewEngine()
	c, err := cluster.Uniform(eng, cluster.Config{SwitchMBps: 1000}, 4, cluster.M3Large())
	if err != nil {
		t.Fatal(err)
	}
	return hdfs.New(c, hdfs.Config{}, 3)
}

func TestSNVStructure(t *testing.T) {
	d, inputs := SNV(SNVConfig{Samples: 2, FilesPerSample: 4})
	ready, err := d.Parse()
	if err != nil {
		t.Fatal(err)
	}
	// Initially ready: all alignments (2 samples × 4 files).
	if len(ready) != 8 {
		t.Fatalf("ready = %d, want 8 alignments", len(ready))
	}
	all := d.Graph().All()
	// 8 align + 2 × (sort + call + annotate) = 14.
	if len(all) != 14 {
		t.Fatalf("tasks = %d, want 14", len(all))
	}
	// Inputs: reference + 8 read files.
	if len(inputs) != 9 {
		t.Fatalf("inputs = %d", len(inputs))
	}
	// Chain: annotate depends on call depends on sort depends on aligns.
	var annotate *wf.Task
	for _, task := range all {
		if task.Name == "annovar" {
			annotate = task
			break
		}
	}
	preds := d.Graph().Predecessors(annotate)
	if len(preds) != 1 || preds[0].Name != "varscan" {
		t.Fatalf("annovar preds = %v", preds)
	}
}

func TestSNVCalibrationSingleSample(t *testing.T) {
	d, _ := SNV(SNVConfig{Samples: 1})
	if _, err := d.Parse(); err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, task := range d.Graph().All() {
		total += task.CPUSeconds
	}
	// ~40000 core-seconds ⇒ ~333 min on a 2-core m3.large.
	if total < 35000 || total > 45000 {
		t.Fatalf("per-sample CPU = %.0f core-s, want ~40000", total)
	}
}

func TestSNVCRAMShrinksIntermediates(t *testing.T) {
	plain, _ := SNV(SNVConfig{Samples: 1})
	cram, _ := SNV(SNVConfig{Samples: 1, CRAM: true})
	plain.Parse()
	cram.Parse()
	sizeOf := func(d wf.StaticDriver) float64 {
		for _, task := range d.Graph().All() {
			if task.Name == "bowtie2" {
				return task.Declared["out"][0].SizeMB
			}
		}
		return 0
	}
	if sizeOf(cram) >= sizeOf(plain)/2 {
		t.Fatalf("CRAM should shrink alignments: %g vs %g", sizeOf(cram), sizeOf(plain))
	}
}

func TestSNVExternalInputs(t *testing.T) {
	_, inputs := SNV(SNVConfig{Samples: 1, External: true})
	reads := 0
	for _, in := range inputs {
		if strings.HasPrefix(in.Path, "/reads/") {
			reads++
			if !in.External {
				t.Fatalf("read input %s should be external", in.Path)
			}
		}
	}
	if reads != 8 {
		t.Fatalf("reads = %d", reads)
	}
	if TotalInputMB(inputs) != 8*1024 {
		t.Fatalf("volume = %g", TotalInputMB(inputs))
	}
}

func TestStagePlacesInputs(t *testing.T) {
	fs := testFS(t)
	inputs := []Input{
		{Path: "/a", SizeMB: 10},
		{Path: "/s3/b", SizeMB: 5, External: true},
		{Path: "/c", SizeMB: 1, Node: "node-02"},
	}
	if err := Stage(fs, inputs); err != nil {
		t.Fatal(err)
	}
	if !fs.Exists("/a") || !fs.Exists("/s3/b") || !fs.Exists("/c") {
		t.Fatal("inputs not staged")
	}
	f, _ := fs.Stat("/s3/b")
	if !f.External {
		t.Fatal("external flag lost")
	}
	if fs.LocalFraction([]string{"/c"}, "node-02") != 1 {
		t.Fatal("node placement ignored")
	}
	if err := Stage(fs, []Input{{Path: "/bad", SizeMB: -1}}); err == nil {
		t.Fatal("bad input accepted")
	}
}

func TestTRAPLINEStructure(t *testing.T) {
	d, inputs := TRAPLINE(TRAPLINEConfig{})
	ready, err := d.Parse()
	if err != nil {
		t.Fatal(err)
	}
	// Degree of parallelism six: six TopHat lanes start immediately.
	if len(ready) != 6 {
		t.Fatalf("ready = %d, want 6", len(ready))
	}
	all := d.Graph().All()
	// 6×(tophat+cufflinks) + merge + diff = 14.
	if len(all) != 14 {
		t.Fatalf("tasks = %d", len(all))
	}
	if len(inputs) != 7 { // genome + 6 lanes
		t.Fatalf("inputs = %d", len(inputs))
	}
	// Total input data volume: >10 GB as in the paper.
	var vol float64
	for _, in := range inputs {
		if strings.HasPrefix(in.Path, "/reads/") {
			vol += in.SizeMB
		}
	}
	if vol < 10000 {
		t.Fatalf("reads volume = %.0f MB, want >10 GB", vol)
	}
	sizes := InputSizes(inputs)
	if sizes["/ref/mm10.fa"] != 2800 {
		t.Fatalf("sizes = %v", sizes)
	}
}

func TestMontageTilesByDegree(t *testing.T) {
	if n := (MontageConfig{Degree: 0.25}).tiles(); n != 11 {
		t.Fatalf("0.25° tiles = %d, want 11 (the paper's parallelism)", n)
	}
	small := (MontageConfig{Degree: 0.1}).tiles()
	big := (MontageConfig{Degree: 1}).tiles()
	if small >= big {
		t.Fatalf("tiles must grow with degree: %d vs %d", small, big)
	}
	if (MontageConfig{}).tiles() != 11 {
		t.Fatal("default degree should be 0.25")
	}
}

func TestMontageDAXParses(t *testing.T) {
	d, inputs := Montage(MontageConfig{})
	ready, err := d.Parse()
	if err != nil {
		t.Fatal(err)
	}
	// All 11 projections are ready initially.
	if len(ready) != 11 {
		t.Fatalf("ready = %d", len(ready))
	}
	// 11 proj + 11 diff + concat + bgmodel + 11 bg + imgtbl + add +
	// shrink + jpeg = 39.
	if got := len(d.Graph().All()); got != 39 {
		t.Fatalf("tasks = %d, want 39", got)
	}
	if len(inputs) != 12 { // region.hdr + 11 tiles
		t.Fatalf("inputs = %d", len(inputs))
	}
	// The final output is the JPEG.
	outs := d.Graph().Sinks()
	if len(outs) != 1 || outs[0] != "mosaic.jpg" {
		t.Fatalf("sinks = %v", outs)
	}
}

func TestMontageExecutesToCompletion(t *testing.T) {
	d, _ := Montage(MontageConfig{})
	ready, _ := d.Parse()
	count := 0
	for len(ready) > 0 {
		task := ready[0]
		ready = ready[1:]
		count++
		res := &wf.TaskResult{Task: task, Outputs: map[string][]wf.FileInfo{"out": task.Declared["out"]}}
		next, err := d.OnTaskComplete(res)
		if err != nil {
			t.Fatal(err)
		}
		ready = append(ready, next...)
	}
	if count != 39 || !d.Done() {
		t.Fatalf("completed %d, done=%v", count, d.Done())
	}
}

func TestKMeansCuneiformParsesAndIterates(t *testing.T) {
	src := KMeansCuneiform("/data/points.csv", 5)
	d := cuneiform.NewDriver("kmeans", src)
	ready, err := d.Parse()
	if err != nil {
		t.Fatal(err)
	}
	if len(ready) != 1 || ready[0].Name != "init" {
		t.Fatalf("ready = %v", ready)
	}
	// Drive three refinement iterations then converge.
	iterations := 0
	complete := func(task *wf.Task) []*wf.Task {
		outs := map[string][]wf.FileInfo{}
		for _, p := range task.OutputParams {
			// The source's one aggregate output is converged's <flag>.
			if task.Name == "converged" && p == "flag" {
				if iterations >= 3 {
					outs[p] = nil
				} else {
					outs[p] = []wf.FileInfo{{Path: strings.Join([]string{"flag", task.String()}, "-"), SizeMB: 0.01}}
				}
				continue
			}
			outs[p] = task.Declared[p]
		}
		if task.Name == "update" {
			iterations++
		}
		next, err := d.OnTaskComplete(&wf.TaskResult{Task: task, Outputs: outs})
		if err != nil {
			t.Fatal(err)
		}
		return next
	}
	queue := ready
	steps := 0
	for len(queue) > 0 && steps < 100 {
		task := queue[0]
		queue = queue[1:]
		steps++
		queue = append(queue, complete(task)...)
	}
	if !d.Done() {
		t.Fatal("k-means did not converge within 100 steps")
	}
	if iterations < 3 {
		t.Fatalf("iterations = %d", iterations)
	}
}

func TestTRAPLINEGalaxyExportParses(t *testing.T) {
	src := TRAPLINEGalaxyJSON(3)
	if !strings.Contains(src, "a_galaxy_workflow") || !strings.Contains(src, "tophat2") {
		t.Fatalf("export looks wrong: %.200s", src)
	}
	driver, inputs, err := TRAPLINEFromGalaxy(TRAPLINEConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ready, err := driver.Parse()
	if err != nil {
		t.Fatal(err)
	}
	// Six TopHat lanes ready immediately, same as the native generator.
	if len(ready) != 6 {
		t.Fatalf("ready = %d", len(ready))
	}
	all := driver.Graph().All()
	if len(all) != 14 { // 6×(tophat+cufflinks) + merge + diff
		t.Fatalf("tasks = %d", len(all))
	}
	if len(inputs) != 7 {
		t.Fatalf("inputs = %d", len(inputs))
	}
	// Profiles carried the calibration over.
	for _, task := range all {
		if task.Name == "tophat2" {
			if task.CPUSeconds != 11000 || task.Threads != 8 || task.MemMB != 12000 {
				t.Fatalf("tophat profile = %+v", task)
			}
			if task.Declared["out"][0].SizeMB != 1800*1.6 {
				t.Fatalf("tophat output size = %+v", task.Declared["out"])
			}
		}
	}
	// Structure equivalence with the native generator (task multiset by
	// signature-ish name).
	native, _ := TRAPLINE(TRAPLINEConfig{})
	if _, err := native.Parse(); err != nil {
		t.Fatal(err)
	}
	count := func(d wf.StaticDriver) map[string]int {
		m := map[string]int{}
		for _, task := range d.Graph().All() {
			m[task.Name]++
		}
		return m
	}
	g, n := count(driver), count(native)
	if g["tophat2"] != n["tophat2"] || g["cufflinks"] != n["cufflinks"] {
		t.Fatalf("structure mismatch: galaxy=%v native=%v", g, n)
	}
}

func TestTRAPLINEGalaxyExecutesToCompletion(t *testing.T) {
	driver, _, err := TRAPLINEFromGalaxy(TRAPLINEConfig{LanesPerGroup: 2})
	if err != nil {
		t.Fatal(err)
	}
	ready, err := driver.Parse()
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	for len(ready) > 0 {
		task := ready[0]
		ready = ready[1:]
		done++
		res := &wf.TaskResult{Task: task, Outputs: map[string][]wf.FileInfo{"out": task.Declared["out"]}}
		next, err := driver.OnTaskComplete(res)
		if err != nil {
			t.Fatal(err)
		}
		ready = append(ready, next...)
	}
	if done != 10 || !driver.Done() { // 4×2 + merge + diff
		t.Fatalf("done=%d finished=%v", done, driver.Done())
	}
}

func TestSNVCuneiformDrivesToCompletion(t *testing.T) {
	cfg := SNVConfig{Samples: 2, FilesPerSample: 3, FileSizeMB: 64, CallSplitRegions: 4,
		AlignCPUSeconds: 10, SortCPUSeconds: 5, CallCPUSeconds: 8, AnnotateCPUSeconds: 4, RefLocal: true}
	driver, inputs, behavior := SNVCuneiformDriver("snv-test", cfg)
	if len(inputs) != 6 {
		t.Fatalf("inputs = %d", len(inputs))
	}
	ready, err := driver.Parse()
	if err != nil {
		t.Fatal(err)
	}
	// All alignments ready immediately.
	if len(ready) != 6 {
		t.Fatalf("ready = %d, want 6 aligns", len(ready))
	}
	counts := map[string]int{}
	queue := ready
	for len(queue) > 0 {
		task := queue[0]
		queue = queue[1:]
		counts[task.Name]++
		outcome := behavior(task)
		res := &wf.TaskResult{Task: task, Outputs: outcome.Outputs}
		next, err := driver.OnTaskComplete(res)
		if err != nil {
			t.Fatal(err)
		}
		queue = append(queue, next...)
	}
	if !driver.Done() {
		t.Fatal("driver not done after all tasks completed")
	}
	// 6 aligns + 2 scatters + 2×4 calls + 2 annotates = 18.
	if counts["align"] != 6 || counts["sortscatter"] != 2 || counts["call"] != 8 || counts["annotate"] != 2 {
		t.Fatalf("counts = %v", counts)
	}
	// The workflow outputs are the two annotated VCFs.
	if outs := driver.Outputs(); len(outs) != 2 {
		t.Fatalf("outputs = %v", outs)
	}
}

func TestSNVCuneiformCRAMSize(t *testing.T) {
	plain, _ := SNVCuneiform(SNVConfig{Samples: 1, RefLocal: true})
	cram, _ := SNVCuneiform(SNVConfig{Samples: 1, CRAM: true, RefLocal: true})
	if !strings.Contains(plain, "@size bam 1229") { // 1024 × 1.2
		t.Fatalf("plain size annotation missing:\n%.300s", plain)
	}
	if !strings.Contains(cram, "@size bam 410") { // 1024 × 0.4
		t.Fatalf("CRAM size annotation missing:\n%.300s", cram)
	}
}
