package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"hiway/internal/cluster"
	"hiway/internal/core"
	"hiway/internal/hdfs"
	"hiway/internal/lang"
	"hiway/internal/obs"
	"hiway/internal/provdb"
	"hiway/internal/provenance"
	"hiway/internal/recipes"
	"hiway/internal/scheduler"
	"hiway/internal/wf"
	"hiway/internal/workloads"
	"hiway/internal/yarn"
)

// simSizes fixes the input sizes of the two simulator workloads. The full
// sizes were calibrated once on the reference box (bench/README.md,
// "Calibration") and are never derived at run time; tiny is the smoke
// test's size.
type simSizes struct {
	wideTasks, wideWidth, wideNodes int

	cfSamples                                    int // SNV Cuneiform: samples == workers (Table 2)
	cwlSamples, cwlFiles, cwlRegions, cwlPerNode int // SNV CWL on the Fig. 4 cluster
	montageDegree                                float64
	traplineLanes                                int // lanes per group
}

var (
	fullSim = simSizes{
		wideTasks: 10240, wideWidth: 256, wideNodes: 256,
		cfSamples:  32,
		cwlSamples: 48, cwlFiles: 24, cwlRegions: 16, cwlPerNode: 12,
		montageDegree: 3.0,
		traplineLanes: 96,
	}
	tinySim = simSizes{
		wideTasks: 256, wideWidth: 16, wideNodes: 16,
		cfSamples:  3,
		cwlSamples: 2, cwlFiles: 4, cwlRegions: 2, cwlPerNode: 4,
		montageDegree: 0.25,
		traplineLanes: 2,
	}
)

// pipeline is one workflow run on the simulator: the frontend input, the
// recipe of the cluster it runs on, and how the AM is configured. Everything
// in it is generated from the seed before the timed region.
type pipeline struct {
	name   string
	lang   string // frontend for lang.NewDriver; "" means synth builds the driver
	source string
	binds  map[string]string
	synth  func() wf.Driver
	inputs []workloads.Input
	recipe recipes.Recipe // Inputs stay nil: staging is timed on its own
	policy string
	cfg    core.Config
	// db names a provdb file shared, within one iteration, by every leg
	// naming it; "" keeps provenance in a fresh MemStore.
	db string
	// query, if set, is timed against the leg's store after the run. Lineage
	// revisits shared subtrees, so both queries name a shallow file: the
	// lineage of the final outputs has 2^layers (wide) and tiles² (Montage)
	// nodes.
	query string
	// width is the leg's degree of parallelism and nodes its cluster size;
	// the layer probes are sized from them.
	width, nodes int
	// expect is the completed-task multiset, derived from the sizes in
	// closed form and not from running the generator.
	expect map[string]int
}

// --- input generation ---

func jitter(rng *rand.Rand, v, spread float64) float64 {
	return v * (1 + (rng.Float64()*2-1)*spread)
}

// widePipeline is the ROADMAP item-1 shape (experiments.syntheticWorkflow):
// layers × width tasks, each consuming its own lane and one shuffled
// neighbour lane of the previous layer. The seed draws per-task CPU demand,
// per-file size and the neighbour stride of each layer.
func widePipeline(sz simSizes, seed int64) *pipeline {
	rng := rand.New(rand.NewSource(seed))
	layers := sz.wideTasks / sz.wideWidth
	width := sz.wideWidth
	cpu := make([]float64, layers*width)
	size := make([]float64, layers*width)
	for i := range cpu {
		cpu[i] = jitter(rng, 20, 0.10)
		size[i] = jitter(rng, 8, 0.25)
	}
	stride := make([]int, layers)
	for l := range stride {
		stride[l] = 1 + 2*rng.Intn(width/2) // odd, so lane → neighbour is a permutation
	}
	inputs := make([]workloads.Input, width)
	initial := make([]string, width)
	for w := range inputs {
		initial[w] = fmt.Sprintf("/wide/in/part-%04d", w)
		inputs[w] = workloads.Input{Path: initial[w], SizeMB: jitter(rng, 8, 0.25)}
	}
	expect := map[string]int{}
	for l := 0; l < layers; l++ {
		expect[fmt.Sprintf("stage-%03d", l)] = width
	}
	out := func(l, w int) string { return fmt.Sprintf("/wide/l%03d/part-%04d", l, w) }
	synth := func() wf.Driver {
		idBase := wf.ReserveIDs(int64(layers * width))
		build := func() ([]*wf.Task, []string, []wf.Edge, error) {
			tasks := make([]*wf.Task, 0, layers*width)
			for l := 0; l < layers; l++ {
				for w := 0; w < width; w++ {
					ins := []string{initial[w]}
					if l > 0 {
						ins = []string{out(l-1, w), out(l-1, (w*stride[l]+l)%width)}
					}
					i := l*width + w
					tasks = append(tasks, &wf.Task{
						ID:           idBase + int64(i),
						Name:         fmt.Sprintf("stage-%03d", l),
						Command:      fmt.Sprintf("synth stage %d lane %d", l, w),
						Inputs:       ins,
						OutputParams: []string{"out"},
						Declared:     map[string][]wf.FileInfo{"out": {{Path: out(l, w), SizeMB: size[i]}}},
						CPUSeconds:   cpu[i],
						Threads:      1,
						MemMB:        512,
					})
				}
			}
			return tasks, initial, nil, nil
		}
		return &wf.StaticBase{WFName: fmt.Sprintf("wide-%dx%d", layers, width), Build: build}
	}
	queryLayer := 2
	if layers <= queryLayer {
		queryLayer = layers - 1
	}
	return &pipeline{
		name:   "wide",
		synth:  synth,
		inputs: inputs,
		recipe: recipes.Recipe{
			Name:       "wide",
			Groups:     []recipes.NodeGroup{{Count: sz.wideNodes, Spec: cluster.C32XLarge()}},
			SwitchMBps: 40 * float64(sz.wideNodes),
			HDFS:       hdfs.Config{BlockSizeMB: 64, Replication: 3},
			Seed:       seed,
		},
		policy: scheduler.PolicyDataAware,
		cfg:    core.Config{ContainerVCores: 1, ContainerMemMB: 1024},
		query:  "lineage " + out(queryLayer, 0),
		width:  width,
		nodes:  sz.wideNodes,
		expect: expect,
	}
}

// snvCuneiformPipeline is Table 2's weak-scaling run: SNV calling written in
// Cuneiform, one sample per m3.large worker, reads fetched from the external
// source, CRAM intermediates, FCFS, one container per worker.
func snvCuneiformPipeline(sz simSizes, seed int64) *pipeline {
	rng := rand.New(rand.NewSource(seed))
	cfg := workloads.SNVConfig{Samples: sz.cfSamples, External: true, CRAM: true, RefLocal: true}
	cfg.ApplyDefaults()
	cfg.AlignCPUSeconds = jitter(rng, cfg.AlignCPUSeconds, 0.03)
	cfg.SortCPUSeconds = jitter(rng, cfg.SortCPUSeconds, 0.03)
	cfg.CallCPUSeconds = jitter(rng, cfg.CallCPUSeconds, 0.03)
	cfg.AnnotateCPUSeconds = jitter(rng, cfg.AnnotateCPUSeconds, 0.03)
	src, inputs := workloads.SNVCuneiform(cfg)
	_, _, behavior := workloads.SNVCuneiformDriver("snv-cuneiform", cfg)
	master := cluster.M3Large()
	master.MemMB = 2048 // worker containers (7000 MB) cannot land on a master
	s := sz.cfSamples
	return &pipeline{
		name:   "snv-cuneiform",
		lang:   lang.Cuneiform,
		source: src,
		inputs: inputs,
		recipe: recipes.Recipe{
			Name: "table2",
			Groups: []recipes.NodeGroup{
				{Count: 2, Spec: master},
				{Count: s, Spec: cluster.M3Large()},
			},
			SwitchMBps:          4000,
			ExternalPerFlowMBps: 50,
			HDFS:                hdfs.Config{BlockSizeMB: 256, Replication: 3, ExcludeNodes: []string{"node-00", "node-01"}},
			YARN:                yarn.Config{AMResource: yarn.Resource{VCores: 1, MemMB: 1024}},
			Seed:                seed,
		},
		policy: scheduler.PolicyFCFS,
		cfg:    core.Config{ContainerVCores: 2, ContainerMemMB: 7000, AMNode: "node-00", Behavior: behavior},
		width:  s,
		nodes:  s + 2,
		expect: map[string]int{"align": s * cfg.FilesPerSample, "sortscatter": s, "call": s * cfg.CallSplitRegions, "annotate": s},
	}
}

// snvCWLPipeline is Fig. 4's strong-scaling shape: the same SNV pipeline
// written in CWL, fine-grained (many read files, region-split calling), on
// the 24-node Xeon cluster behind an oversubscribed switch, data-aware.
func snvCWLPipeline(sz simSizes, seed int64) *pipeline {
	rng := rand.New(rand.NewSource(seed))
	cfg := workloads.SNVConfig{
		Samples: sz.cwlSamples, FilesPerSample: sz.cwlFiles, FileSizeMB: 340, CallSplitRegions: sz.cwlRegions,
		AlignCPUSeconds:    jitter(rng, 600, 0.04),
		SortCPUSeconds:     jitter(rng, 400, 0.04),
		CallCPUSeconds:     jitter(rng, 800, 0.04),
		AnnotateCPUSeconds: jitter(rng, 600, 0.04),
		RefLocal:           true,
	}
	src, inputs := workloads.SNVCWL(cfg)
	spec := cluster.XeonE52620()
	spec.VCores = sz.cwlPerNode
	spec.MemMB = sz.cwlPerNode*1024 + 1024 // headroom for the AM container
	s := sz.cwlSamples
	return &pipeline{
		name:   "snv-cwl",
		lang:   lang.CWL,
		source: src,
		inputs: inputs,
		recipe: recipes.Recipe{
			Name:       "fig4",
			Groups:     []recipes.NodeGroup{{Count: 24, Spec: spec}},
			SwitchMBps: 400,
			HDFS:       hdfs.Config{BlockSizeMB: 1024, Replication: 2},
			YARN:       yarn.Config{AMResource: yarn.Resource{VCores: 1, MemMB: 1024}},
			Seed:       seed,
		},
		policy: scheduler.PolicyDataAware,
		cfg:    core.Config{ContainerVCores: 1, ContainerMemMB: 1024},
		width:  24 * sz.cwlPerNode,
		nodes:  24,
		expect: map[string]int{"align": s * sz.cwlFiles, "sortscatter": s, "call": s * sz.cwlRegions, "annotate": s},
	}
}

// montagePipelines is Fig. 9: Montage as a Pegasus DAX on one master and
// eleven m3.large workers of which ten are CPU- or disk-stressed, under HEFT,
// twice on one provdb-backed store — first with no provenance, then planned
// from the first run's.
func montagePipelines(sz simSizes, seed int64) []*pipeline {
	rng := rand.New(rand.NewSource(seed))
	cfg := workloads.MontageConfig{Degree: sz.montageDegree, RuntimeScale: jitter(rng, 0.09, 0.05)}
	src := workloads.MontageDAX(cfg)
	_, inputs := workloads.Montage(cfg)
	n := len(inputs) - 1 // tiles: every input but region.hdr
	master := cluster.M3Large()
	master.MemMB = 2048
	groups := []recipes.NodeGroup{{Count: 1, Spec: master}, {Count: 1, Spec: cluster.M3Large()}}
	for _, hogs := range []int{1, 4, 16, 64, 256} {
		s := cluster.M3Large()
		s.CPUHogs = hogs
		groups = append(groups, recipes.NodeGroup{Count: 1, Spec: s})
	}
	for _, hogs := range []int{1, 4, 16, 64, 256} {
		s := cluster.M3Large()
		s.IOHogs = hogs
		groups = append(groups, recipes.NodeGroup{Count: 1, Spec: s})
	}
	leg := func(name string) *pipeline {
		return &pipeline{
			name:   name,
			lang:   lang.DAX,
			source: src,
			inputs: inputs,
			recipe: recipes.Recipe{
				Name:       "fig9",
				Groups:     groups,
				SwitchMBps: 2000,
				HDFS:       hdfs.Config{BlockSizeMB: 512, Replication: 3, ExcludeNodes: []string{"node-00"}},
				YARN:       yarn.Config{AMResource: yarn.Resource{VCores: 1, MemMB: 1024}},
				Seed:       seed,
			},
			policy: scheduler.PolicyHEFT,
			cfg:    core.Config{ContainerVCores: 2, ContainerMemMB: 7000, AMNode: "node-00"},
			db:     "montage.provdb",
			width:  n,
			nodes:  12,
			expect: map[string]int{
				"mProject": n, "mDiffFit": n, "mBackground": n,
				"mConcatFit": 1, "mBgModel": 1, "mImgtbl": 1, "mAdd": 1, "mShrink": 1, "mJPEG": 1,
			},
		}
	}
	cold, warm := leg("montage-dax-cold"), leg("montage-dax-warm")
	warm.query = "lineage corrections.tbl" // against the store holding both runs
	return []*pipeline{cold, warm}
}

// traplinePipeline is Fig. 8: TRAPLINE as a Galaxy export on c3.2xlarge
// nodes, one whole-node container per task, here under the adaptive policy.
func traplinePipeline(sz simSizes, seed int64) *pipeline {
	lanes := sz.traplineLanes * 2
	inputs := []workloads.Input{{Path: "/ref/mm10.fa", SizeMB: 2800}}
	binds := map[string]string{"genome": "/ref/mm10.fa"}
	for l := 0; l < lanes; l++ {
		group := "young"
		if l >= sz.traplineLanes {
			group = "aged"
		}
		label := fmt.Sprintf("%s_rep%d", group, l%sz.traplineLanes)
		in := workloads.Input{Path: fmt.Sprintf("/reads/%s/rep%d.fastq", group, l%sz.traplineLanes), SizeMB: 1800}
		inputs = append(inputs, in)
		binds[label] = in.Path
	}
	return &pipeline{
		name:   "trapline-galaxy",
		lang:   lang.Galaxy,
		source: workloads.TRAPLINEGalaxyJSON(sz.traplineLanes),
		binds:  binds,
		inputs: inputs,
		recipe: recipes.Recipe{
			Name:       "fig8",
			Groups:     []recipes.NodeGroup{{Count: 6, Spec: cluster.C32XLarge()}},
			SwitchMBps: 4000,
			HDFS:       hdfs.Config{BlockSizeMB: 1024, Replication: 3},
			YARN:       yarn.Config{AMResource: yarn.Resource{VCores: 0, MemMB: 512}},
			Seed:       seed,
		},
		policy: scheduler.PolicyAdaptiveGreedy,
		cfg:    core.Config{ContainerVCores: 8, ContainerMemMB: 14000},
		width:  6,
		nodes:  6,
		expect: map[string]int{"tophat2": lanes, "cufflinks": lanes, "cuffmerge": 1, "cuffdiff": 1},
	}
}

// simPipelines returns the legs of one iteration of a simulator workload.
func simPipelines(workload string, sz simSizes, seed int64) []*pipeline {
	if workload == wlSimWide {
		return []*pipeline{widePipeline(sz, seed)}
	}
	legs := []*pipeline{snvCuneiformPipeline(sz, seed), snvCWLPipeline(sz, seed)}
	legs = append(legs, montagePipelines(sz, seed)...)
	return append(legs, traplinePipeline(sz, seed))
}

// --- one leg ---

// legResult is what one pipeline run yields: phase wall times, the outputs
// the digest is made of, and — in a traced run — the seam accumulators and
// kernel counters.
type legResult struct {
	name string

	newDriver, materialize, provLoad, stage, launch, loop, flush, query time.Duration
	start, end                                                          time.Time

	makespan   float64
	events     int64
	maxDepth   int
	reshares   int64
	containers int64
	multiset   map[string]int
	tasks      int

	seams       *seamClock
	requests    int64
	allocations int64
	attempts    int64
}

func (r *legResult) wall() time.Duration { return r.end.Sub(r.start) }

// submit is start → core.Launch returned: the run is parsed, planned and its
// first tasks are queued — the simulator's counterpart of a 202.
func (r *legResult) submit() time.Duration {
	return r.newDriver + r.materialize + r.provLoad + r.stage + r.launch
}

// digest renders the outputs a correct run must reproduce exactly.
func (r *legResult) digest() string {
	names := make([]string, 0, len(r.multiset))
	for n := range r.multiset {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, n := range names {
		fmt.Fprintf(&sb, "%s=%d,", n, r.multiset[n])
	}
	sum := sha256.Sum256([]byte(sb.String()))
	return fmt.Sprintf("%s makespan=%.6f events=%d containers=%d tasks=%d multiset=%x",
		r.name, r.makespan, r.events, r.containers, r.tasks, sum[:6])
}

// runLeg executes one pipeline from frontend source to flushed provenance.
// Phase boundaries are always clocked (eight time.Now calls per run); the
// seam wrappers, the counters-only obs registry and the spans go in only when
// tr is set. A nil tracer makes every span call a no-op.
func runLeg(p *pipeline, store provenance.Store, tr *obs.Tracer, parent obs.SpanID) (*legResult, error) {
	traced := tr.Enabled()
	r := &legResult{name: p.name}
	legSpan := tr.Begin("run", p.name, spanTrack, parent)
	defer tr.End(legSpan)
	if traced {
		r.seams = &seamClock{tr: tr, parent: legSpan}
	}
	phase := func(name string) obs.SpanID { return tr.Begin("phase", name, spanTrack, legSpan) }

	r.start = time.Now()
	sp := phase("lang.new_driver")
	var driver wf.Driver
	if p.synth != nil {
		driver = p.synth()
	} else {
		d, err := lang.NewDriver(p.lang, p.name, p.source, p.binds)
		if err != nil {
			return nil, err
		}
		driver = d
	}
	tr.End(sp)
	t1 := time.Now()
	sp = phase("recipes.materialize")
	rec := p.recipe
	eng, env, err := rec.Materialize()
	if err != nil {
		return nil, err
	}
	tr.End(sp)
	t2 := time.Now()
	sp = phase("provenance.load")
	if traced {
		store = wrapStore(store, r.seams)
	}
	mgr, err := provenance.NewManager(store)
	if err != nil {
		return nil, err
	}
	env.Prov = mgr
	tr.End(sp)
	t3 := time.Now()
	sp = phase("workloads.stage")
	if err := workloads.Stage(env.FS, p.inputs); err != nil {
		return nil, err
	}
	tr.End(sp)
	t4 := time.Now()
	sp = phase("core.launch")
	deps := scheduler.Deps{Locality: env.FS, Estimator: mgr}
	var reg *obs.Registry
	if traced {
		reg = obs.NewRegistry()
		o := &obs.Obs{Metrics: reg} // counters only: no tracer, no decision log
		env.Obs = o
		env.RM.SetObs(o)
		deps.Locality = wrapLocality(env.FS, r.seams)
		deps.Estimator = wrapEstimator(mgr, r.seams)
	}
	sched, err := scheduler.New(p.policy, deps)
	if err != nil {
		return nil, err
	}
	if traced {
		sched = wrapScheduler(sched, r.seams)
		driver = wrapDriver(driver, r.seams)
	}
	cfg := p.cfg
	cfg.WorkflowID = p.name
	am, err := core.Launch(env, driver, sched, cfg)
	if err != nil {
		return nil, err
	}
	tr.End(sp)
	t5 := time.Now()
	sp = phase("core.loop")
	for eng.Step() {
	}
	tr.End(sp)
	t6 := time.Now()
	sp = phase("provenance.flush")
	rep, err := am.Report()
	if err != nil {
		return nil, err
	}
	if err := mgr.Flush(); err != nil {
		return nil, err
	}
	tr.End(sp)
	r.end = time.Now()
	r.newDriver, r.materialize, r.provLoad, r.stage = t1.Sub(r.start), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)
	r.launch, r.loop, r.flush = t5.Sub(t4), t6.Sub(t5), r.end.Sub(t6)

	r.makespan = rep.MakespanSec
	r.events = eng.Processed()
	r.maxDepth = eng.MaxQueueDepth()
	r.reshares = env.Cluster.Switch.Reshares()
	r.containers = rep.Containers
	r.multiset = map[string]int{}
	for _, res := range rep.Results {
		if res.Succeeded() {
			r.multiset[res.Task.Name]++
			r.tasks++
		}
	}
	if traced {
		r.requests = reg.Counter("hiway_yarn_requests_total", "").Value()
		r.allocations = reg.Counter("hiway_yarn_containers_allocated_total", "").Value()
		r.attempts = reg.Counter("hiway_core_attempts_total", "").Value()
		c := r.seams
		tr.ArgFloat(legSpan, "lang.on_complete_ms", ms(c.onComplete))
		tr.ArgFloat(legSpan, "scheduler.select_ms", ms(c.sel))
		tr.ArgFloat(legSpan, "scheduler.ready_ms", ms(c.ready))
		tr.ArgFloat(legSpan, "hdfs.locality_ms", ms(c.locality))
		tr.ArgFloat(legSpan, "provenance.estimate_ms", ms(c.estimate))
		tr.ArgFloat(legSpan, "provenance.append_ms", ms(c.appendT))
		tr.ArgFloat(legSpan, "core.loop_self_ms", ms(r.launch+r.loop-c.outer))
		tr.ArgInt(legSpan, "sim.events", r.events)
	}
	if p.query == "" {
		return r, nil
	}

	// The query a user of `hiway prov -query` would run on this store;
	// outside the run's wall, and from a collected heap so that it does not
	// pay for the run's garbage.
	q, err := provenance.ParseQuery(p.query)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	sp = tr.Begin("query", p.query, spanTrack, legSpan)
	tq := time.Now()
	out, err := provenance.RunQuery(mgr.Store(), q)
	r.query = time.Since(tq)
	tr.End(sp)
	if err != nil {
		return nil, err
	}
	if !strings.Contains(out, " <- ") {
		return nil, fmt.Errorf("%s: %q found no producer:\n%s", p.name, p.query, out)
	}
	return r, nil
}

// check compares a leg's outputs with what its inputs demand.
func (p *pipeline) check(r *legResult) error {
	if len(r.multiset) != len(p.expect) {
		return fmt.Errorf("%s: completed %d signatures, want %d", p.name, len(r.multiset), len(p.expect))
	}
	for name, want := range p.expect {
		if got := r.multiset[name]; got != want {
			return fmt.Errorf("%s: completed %d × %s, want %d", p.name, got, name, want)
		}
	}
	if r.makespan <= 0 {
		return fmt.Errorf("%s: makespan %g", p.name, r.makespan)
	}
	return nil
}

// --- one iteration ---

type iterResult struct {
	legs []*legResult
	// dbio is opening and closing the iteration's provdb files: the part of
	// the provenance flush that no leg's own wall covers.
	dbio time.Duration
	// outer is the clock around the legs, queries excluded: what wall() does
	// not account for is harness overhead between the phases.
	outer time.Duration
	// events are the provdb-backed store's contents, kept in a traced run to
	// size the provdb probe.
	events []provenance.Event
}

func (it *iterResult) wall() time.Duration {
	d := it.dbio
	for _, l := range it.legs {
		d += l.wall()
	}
	return d
}

func (it *iterResult) tasks() int {
	n := 0
	for _, l := range it.legs {
		n += l.tasks
	}
	return n
}

func (it *iterResult) digest() string {
	parts := make([]string, len(it.legs))
	for i, l := range it.legs {
		parts[i] = l.digest()
	}
	return strings.Join(parts, "; ")
}

// runIteration runs every leg once, strictly serially. dir holds the
// iteration's provdb files; they are created fresh and removed afterwards.
func runIteration(legs []*pipeline, dir string, tr *obs.Tracer) (*iterResult, error) {
	it := &iterResult{}
	iterSpan := tr.Begin("iteration", "iteration", spanTrack, 0)
	defer tr.End(iterSpan)
	dbs := map[string]*provenance.DBStore{}
	defer func() {
		for name, st := range dbs {
			st.Close()
			os.Remove(filepath.Join(dir, name))
		}
	}()
	for _, p := range legs {
		var store provenance.Store = provenance.NewMemStore()
		if p.db != "" {
			st := dbs[p.db]
			if st == nil {
				path := filepath.Join(dir, p.db)
				os.Remove(path)
				t0 := time.Now()
				db, err := provdb.Open(path)
				if err != nil {
					return nil, err
				}
				st = provenance.NewDBStore(db)
				it.dbio += time.Since(t0)
				dbs[p.db] = st
			}
			store = st
		}
		t0 := time.Now()
		r, err := runLeg(p, store, tr, iterSpan)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		it.outer += time.Since(t0) - r.query
		if err := p.check(r); err != nil {
			return nil, err
		}
		it.legs = append(it.legs, r)
	}
	for _, st := range dbs {
		if tr.Enabled() {
			evs, err := st.Events()
			if err != nil {
				return nil, err
			}
			it.events = append(it.events, evs...)
		}
		t0 := time.Now()
		if err := st.Close(); err != nil {
			return nil, err
		}
		it.dbio += time.Since(t0)
	}
	it.outer += it.dbio
	return it, nil
}
