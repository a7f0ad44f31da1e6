package hiway_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"hiway/internal/cluster"
	"hiway/internal/core"
	"hiway/internal/hdfs"
	"hiway/internal/lang/cuneiform"
	"hiway/internal/lang/cwl"
	"hiway/internal/lang/dax"
	"hiway/internal/memo"
	"hiway/internal/provenance"
	"hiway/internal/scheduler"
	"hiway/internal/service"
	"hiway/internal/sim"
	"hiway/internal/wf"
	"hiway/internal/workloads"
	"hiway/internal/yarn"
)

// layered builds a static graph of layers × width tasks, each consuming one
// file of the layer before (the first layer reads "seed"): the graph of
// internal/wf's BenchmarkDAGExecution.
func layered(layers, width int) []*wf.Task {
	var tasks []*wf.Task
	var ids wf.IDSeq
	prev := []string{"seed"}
	for l := 0; l < layers; l++ {
		outs := make([]string, width)
		for w := range outs {
			outs[w] = fmt.Sprintf("f-%d-%d", l, w)
			tasks = append(tasks, &wf.Task{ID: ids.Next(), Name: fmt.Sprintf("t%d", l),
				Inputs: []string{prev[w%len(prev)]}, OutputParams: []string{"out"},
				Declared:   map[string][]wf.FileInfo{"out": {{Path: outs[w], SizeMB: 1}}},
				CPUSeconds: 10, Threads: 1})
		}
		prev = outs
	}
	return tasks
}

// budget is one layer's allocation ceiling on a fixed workload, per task or
// per event.
type budget struct {
	layer  string
	unit   string  // what the workload counts: "task", "event" or "request"
	units  int     // how many of them one run handles
	allocs float64 // heap allocations per unit
	bytes  float64 // heap bytes per unit
	// pooled: the workload's allocation depends on sync.Pool, which the
	// race detector makes drop Puts at random, so it is not measured under
	// -race.
	pooled bool
	// prepare readies n runs of the workload and returns the function that
	// performs the next one; only that function is measured.
	prepare func(t *testing.T, n int) func()
}

// staticRuns readies n runs of layered(8, 128) through the AM, FCFS, each on
// a fresh 16-node substrate and, with prov, recording into a Manager over a
// fresh MemStore. With memoWarm the runs share a memo table that a cold run
// filled before them, so every task of a measured run is spliced from it.
func staticRuns(prov, memoWarm bool) func(t *testing.T, n int) func() {
	return func(t *testing.T, n int) func() {
		tasks := layered(8, 128)
		var cfg core.Config
		if memoWarm {
			cfg.Memo = memo.New(0)
			n++ // the cold run
		}
		envs := make([]core.Env, n)
		for i := range envs {
			eng := sim.NewEngine()
			c, err := cluster.Uniform(eng, cluster.Config{SwitchMBps: 1000, ExternalPerFlowMBps: 50}, 16,
				cluster.NodeSpec{VCores: 4, MemMB: 8192, CPUFactor: 1, DiskMBps: 200, NetMBps: 200})
			if err != nil {
				t.Fatal(err)
			}
			fs := hdfs.New(c, hdfs.Config{BlockSizeMB: 64, Replication: 2}, 42)
			fs.Put("seed", 64, "")
			envs[i] = core.Env{Cluster: c, FS: fs, RM: yarn.NewResourceManager(eng, c, yarn.Config{})}
			if prov {
				if envs[i].Prov, err = provenance.NewManager(provenance.NewMemStore()); err != nil {
					t.Fatal(err)
				}
			}
		}
		next := 0
		run := func() {
			sb := &wf.StaticBase{WFName: "layered", Build: func() ([]*wf.Task, []string, []wf.Edge, error) {
				return tasks, []string{"seed"}, nil, nil
			}}
			rep, err := core.Run(envs[next], sb, scheduler.NewFCFS(), cfg)
			next++
			if err != nil || len(rep.Results) != len(tasks) {
				t.Fatalf("run %d: %v", next, err)
			}
			if memoWarm && next > 1 && rep.Memoized != len(tasks) {
				t.Fatalf("warm run %d: %d of %d tasks spliced", next, rep.Memoized, len(tasks))
			}
		}
		if memoWarm {
			run()
		}
		return run
	}
}

// servedRuns readies n servers, each of which has served a 44-task spec once,
// and returns the function that serves it once more on the next of them.
func servedRuns(t *testing.T, n int) func() {
	spec := service.WorkloadSpec{Kind: service.WorkloadSNV, Samples: 4, FilesPerSample: 8, FileSizeMB: 16, CPUSeconds: 10}
	profiles := []service.TenantProfile{{Name: "alpha", Weight: 1, MaxContainers: 8, Workload: spec}}
	body := func(name string) []byte {
		b, err := json.Marshal(service.SubmitRequest{Tenant: "alpha", Name: name, Workload: &spec})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serve := func(s *service.Server, h http.Handler, name string, b []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/workflows", bytes.NewReader(b))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusAccepted {
			t.Fatalf("%s: got %d (%s)", name, rec.Code, rec.Body.String())
		}
		r := s.Lookup("alpha-" + name)
		<-r.Done()
		if st := r.Status(); st.State != service.StateSucceeded || st.Tasks != 44 {
			t.Fatalf("%s: state %q, %d tasks, error %q", name, st.State, st.Tasks, st.Error)
		}
	}
	servers := make([]*service.Server, n)
	handlers := make([]http.Handler, n)
	for i := range servers {
		s, err := service.NewServer(service.ServerConfig{Nodes: 4}, profiles)
		if err != nil {
			t.Fatal(err)
		}
		servers[i], handlers[i] = s, s.Handler()
		serve(s, handlers[i], "warm", body("warm"))
	}
	measured := body("measured")
	next := 0
	return func() {
		serve(servers[next], handlers[next], "measured", measured)
		next++
	}
}

// recordStream returns n tasks' start/end inputs for a provenance Manager:
// eight signatures, two inputs and one output each, the last task retried.
func recordStream(n int) ([]*wf.Task, []*wf.TaskResult, map[string]float64) {
	tasks := make([]*wf.Task, n)
	results := make([]*wf.TaskResult, n)
	sizes := map[string]float64{}
	for i := range tasks {
		in := fmt.Sprintf("/in/%d", i%64)
		sizes[in] = float64(1 + i%5)
		out := fmt.Sprintf("/out/%d", i)
		tasks[i] = &wf.Task{ID: int64(i + 1), Name: fmt.Sprintf("sig%d", i%8), Command: "run",
			Inputs: []string{in, "/ref/index"}, OutputParams: []string{"out"}, CPUSeconds: 10, Threads: 1}
		results[i] = &wf.TaskResult{Task: tasks[i], Node: fmt.Sprintf("node-%02d", i%16),
			Start: float64(i), End: float64(i) + 10, ExecSec: 9,
			Outputs: map[string][]wf.FileInfo{"out": {{Path: out, SizeMB: 2}}}}
	}
	results[n-1].Attempt = 1
	return tasks, results, sizes
}

// TestAllocationBudgets pins what each layer allocates per unit of a fixed
// workload. Allocation on a fixed input is deterministic where timing is
// not, so the budgets hold on any machine. Each is the value measured when
// it was set plus at most 5%; a change that lowers a layer's allocation
// lowers its budget in the same diff.
func TestAllocationBudgets(t *testing.T) {
	const runs = 3
	for _, b := range []budget{
		{
			// NewDAG over a fresh task list: the template (producers,
			// dependency rows, topological order) and a first run of it.
			layer: "wf: template build", unit: "task", units: 1000, allocs: 0.03, bytes: 110,
			prepare: func(t *testing.T, n int) func() {
				tasks := layered(10, 100)
				return func() {
					if _, err := wf.NewDAG(tasks, []string{"seed"}, nil); err != nil {
						t.Fatal(err)
					}
				}
			},
		},
		{
			// A run of a built template, as a served run of a compiled spec
			// is: Instance over the tasks, then every task completed as it
			// becomes ready.
			layer: "wf: instance + complete-all", unit: "task", units: 1000, allocs: 0.94, bytes: 32,
			prepare: func(t *testing.T, n int) func() {
				tasks, inputs := layered(10, 100), []string{"seed"}
				d, err := wf.NewDAG(tasks, inputs, nil)
				if err != nil {
					t.Fatal(err)
				}
				return func() {
					d := d.Template().Instance(tasks, inputs)
					for queue := d.Ready(); len(queue) > 0; queue = queue[1:] {
						queue = append(queue, d.Complete(queue[0])...)
					}
					if !d.Done() {
						t.Fatal("DAG not done")
					}
				}
			},
		},
		{
			// One static workflow through the AM on a fresh 16-node substrate,
			// FCFS, no provenance; building the substrate is not measured.
			layer: "core: Run, static, fcfs", unit: "task", units: 1024, allocs: 26.19, bytes: 1708,
			prepare: staticRuns(false, false),
		},
		{
			// The same, recording into a provenance Manager over a fresh
			// MemStore: what a task's start and end events cost the AM.
			layer: "core: Run, static, fcfs, provenance", unit: "task", units: 1024, allocs: 28.37, bytes: 2514,
			prepare: staticRuns(true, false),
		},
		{
			// The same over a warm memo table: each task derives its key
			// from the digest of the producer of its input (the seed for
			// the first layer), hits and is spliced; the cold run that
			// filled the table is not measured.
			layer: "memo: key + lookup per task", unit: "task", units: 1024, allocs: 8.51, bytes: 948,
			prepare: staticRuns(false, true),
		},
		{
			// One served run from submit to terminal, in process: the POST
			// through the handler chain, admission, the run's private
			// substrate, the AM with its provenance and the SSE log, to
			// Done. A small SNV spec (4 samples × 8 read files, 44 tasks,
			// about a serve-open run) on a 4-node server that has already
			// run it once, so lazy one-time state is not measured.
			layer: "service: submit → terminal per run", unit: "task", units: 44, allocs: 41.39, bytes: 4417,
			prepare: servedRuns, pooled: true,
		},
		{
			// A Manager records a start and an end event per task into a
			// fresh MemStore and flushes: the record path, the hot index and
			// the store's batches. Each task end is sized in place, as core
			// and localexec size theirs.
			layer: "provenance: record + batch flush", unit: "event", units: 4096, allocs: 1.09, bytes: 444,
			prepare: func(t *testing.T, n int) func() {
				tasks, results, sizes := recordStream(2048)
				return func() {
					m, err := provenance.NewManager(provenance.NewMemStore())
					if err != nil {
						t.Fatal(err)
					}
					for i, task := range tasks {
						res := results[i]
						if err := m.RecordTaskStart("wf-budget", "budget", task, res.Node, res.Attempt, res.Start); err != nil {
							t.Fatal(err)
						}
						ev := provenance.TaskEndEvent("wf-budget", "budget", res)
						for j := range ev.Inputs {
							ev.Inputs[j].SizeMB = sizes[ev.Inputs[j].Path]
						}
						if err := m.Record(ev); err != nil {
							t.Fatal(err)
						}
					}
					if err := m.Flush(); err != nil {
						t.Fatal(err)
					}
				}
			},
		},
		{
			// One application alone on a fair-shared RM, as every served run
			// is on its private cluster: 512 one-core requests at once, each
			// container held 10 s, so every round re-orders a long queue.
			layer: "yarn: fair allocate round, one application", unit: "request", units: 512, allocs: 4.34, bytes: 307,
			prepare: func(t *testing.T, n int) func() {
				type rig struct {
					eng *sim.Engine
					rm  *yarn.ResourceManager
				}
				rigs := make([]rig, n)
				for i := range rigs {
					eng := sim.NewEngine()
					c, err := cluster.Uniform(eng, cluster.Config{SwitchMBps: 1000}, 4,
						cluster.NodeSpec{VCores: 4, MemMB: 8192, CPUFactor: 1, DiskMBps: 200, NetMBps: 200})
					if err != nil {
						t.Fatal(err)
					}
					rigs[i] = rig{eng, yarn.NewResourceManager(eng, c, yarn.Config{
						Tenants: map[string]yarn.TenantPolicy{"acme": {Weight: 3}}})}
				}
				next := 0
				return func() {
					r := rigs[next]
					next++
					app, err := r.rm.SubmitApplicationFor("acme", "")
					if err != nil {
						t.Fatal(err)
					}
					granted := 0
					hold := func(c *yarn.Container) {
						granted++
						r.eng.Schedule(10, func() { app.Release(c) })
					}
					for i := 0; i < 512; i++ {
						app.Request(yarn.Request{Resource: yarn.Resource{VCores: 1, MemMB: 512}}, hold)
					}
					r.eng.Run()
					if granted != 512 {
						t.Fatalf("%d of 512 requests granted", granted)
					}
				}
			},
		},
		{
			// Three tenants (weights 3, 1 and 0) of two applications each on
			// one RM, as hiway load runs them: 64 one-core requests per
			// application at once, each container held 10 s, so every round
			// interleaves six queues.
			layer: "yarn: fair allocate round, 3 tenants × 2 applications", unit: "request", units: 384, allocs: 4.70, bytes: 458,
			prepare: func(t *testing.T, n int) func() {
				type rig struct {
					eng *sim.Engine
					rm  *yarn.ResourceManager
				}
				rigs := make([]rig, n)
				for i := range rigs {
					eng := sim.NewEngine()
					c, err := cluster.Uniform(eng, cluster.Config{SwitchMBps: 1000}, 4,
						cluster.NodeSpec{VCores: 4, MemMB: 8192, CPUFactor: 1, DiskMBps: 200, NetMBps: 200})
					if err != nil {
						t.Fatal(err)
					}
					rigs[i] = rig{eng, yarn.NewResourceManager(eng, c, yarn.Config{AMResource: yarn.Resource{MemMB: 256},
						Tenants: map[string]yarn.TenantPolicy{"acme": {Weight: 3}, "bulk": {Weight: 1}, "idle": {Weight: 0}}})}
				}
				next := 0
				return func() {
					r := rigs[next]
					next++
					granted := 0
					for _, tn := range []string{"acme", "acme", "bulk", "bulk", "idle", "idle"} {
						app, err := r.rm.SubmitApplicationFor(tn, "")
						if err != nil {
							t.Fatal(err)
						}
						hold := func(c *yarn.Container) {
							granted++
							r.eng.Schedule(10, func() { app.Release(c) })
						}
						for i := 0; i < 64; i++ {
							app.Request(yarn.Request{Resource: yarn.Resource{VCores: 1, MemMB: 512}}, hold)
						}
					}
					r.eng.Run()
					if granted != 384 {
						t.Fatalf("%d of 384 requests granted", granted)
					}
				}
			},
		},
		{
			// A task's data path on sim-wide's 256 nodes: each task writes
			// one single-block output from a rotating writer and reads two
			// staged inputs onto it, replication 3, the engine run to the
			// end; staging the inputs is not measured.
			layer: "hdfs: Write + Read, 256 nodes", unit: "task", units: 1024, allocs: 13.79, bytes: 988,
			prepare: func(t *testing.T, n int) func() {
				type rig struct {
					eng   *sim.Engine
					fs    *hdfs.FS
					nodes []*cluster.Node
				}
				rigs := make([]rig, n)
				for i := range rigs {
					eng := sim.NewEngine()
					c, err := cluster.Uniform(eng, cluster.Config{SwitchMBps: 1000}, 256,
						cluster.NodeSpec{VCores: 4, MemMB: 8192, CPUFactor: 1, DiskMBps: 200, NetMBps: 200})
					if err != nil {
						t.Fatal(err)
					}
					fs := hdfs.New(c, hdfs.Config{BlockSizeMB: 128, Replication: 3}, 42)
					for p := 0; p < 64; p++ {
						if _, err := fs.Put(fmt.Sprintf("/in/%02d", p), 8, ""); err != nil {
							t.Fatal(err)
						}
					}
					rigs[i] = rig{eng, fs, c.Nodes()}
				}
				outs := make([]string, 1024)
				ins := make([][]string, 1024)
				for i := range outs {
					outs[i] = fmt.Sprintf("/out/%04d", i)
					ins[i] = []string{fmt.Sprintf("/in/%02d", i%64), fmt.Sprintf("/in/%02d", (i*7+3)%64)}
				}
				next, failed := 0, 0
				done := func(err error) {
					if err != nil {
						failed++
					}
				}
				return func() {
					r := rigs[next]
					next++
					for i := range outs {
						node := r.nodes[i%len(r.nodes)]
						r.fs.Write(node, outs[i], 8, done)
						r.fs.Read(node, ins[i], done)
					}
					r.eng.Run()
					if failed > 0 || !r.fs.Exists(outs[len(outs)-1]) {
						t.Fatalf("run %d: %d reads or writes failed", next, failed)
					}
				}
			},
		},
		{
			// The data-aware policy indexing tasks by the nodes that hold
			// their inputs in a real namenode, then serving freed
			// containers on rotating nodes: 1,024 tasks over 64 two-block
			// parts and a shared four-block reference, replication 3 on 16
			// nodes.
			layer: "scheduler: DataAware over hdfs.FS, ready + select", unit: "task", units: 1024, allocs: 1.22, bytes: 533,
			prepare: func(t *testing.T, n int) func() {
				eng := sim.NewEngine()
				c, err := cluster.Uniform(eng, cluster.Config{SwitchMBps: 1000}, 16,
					cluster.NodeSpec{VCores: 4, MemMB: 8192, CPUFactor: 1, DiskMBps: 200, NetMBps: 200})
				if err != nil {
					t.Fatal(err)
				}
				fs := hdfs.New(c, hdfs.Config{BlockSizeMB: 64, Replication: 3}, 42)
				var nodes []string
				for _, n := range c.Nodes() {
					nodes = append(nodes, n.ID)
				}
				if _, err := fs.Put("/ref/genome", 256, ""); err != nil {
					t.Fatal(err)
				}
				tasks := make([]*wf.Task, 1024)
				for i := range tasks {
					part := fmt.Sprintf("/in/part-%02d", i%64)
					if i < 64 {
						if _, err := fs.Put(part, 100, nodes[i%len(nodes)]); err != nil {
							t.Fatal(err)
						}
					}
					tasks[i] = &wf.Task{ID: int64(i + 1), Name: "align", Inputs: []string{part, "/ref/genome"}}
				}
				return func() {
					s := scheduler.NewDataAware(fs)
					ready, selected := 0, 0
					for selected < len(tasks) {
						for w := 0; w < 32 && ready < len(tasks); w++ {
							s.OnTaskReady(tasks[ready])
							ready++
						}
						for k := 0; k < 16 && s.Queued() > 0; k++ {
							if s.Select(nodes[(selected+k)%len(nodes)]) != nil {
								selected++
							}
						}
					}
				}
			},
		},
		{
			// One build of sim-paper's CWL document for SNV calling, 48
			// samples × 24 read files × 16 call regions (~204 KB): decoding
			// and compiling its 2,016 tasks, without the DAG.
			layer: "lang/cwl: build sim-paper's SNV document", unit: "task", units: 2016, allocs: 20.56, bytes: 2155,
			prepare: func(t *testing.T, n int) func() {
				src, _ := workloads.SNVCWL(workloads.SNVConfig{
					Samples: 48, FilesPerSample: 24, FileSizeMB: 340, CallSplitRegions: 16,
					AlignCPUSeconds: 600, SortCPUSeconds: 400, CallCPUSeconds: 800, AnnotateCPUSeconds: 600,
					RefLocal: true,
				})
				d := cwl.NewDriver("snv-cwl", src, cwl.Options{})
				return func() {
					if tasks, _, _, err := d.Build(); err != nil || len(tasks) != 2016 {
						t.Fatalf("%d tasks, error %v", len(tasks), err)
					}
				}
			},
		},
		{
			// One build of sim-paper's Montage DAX at degree 3.0 (1,449
			// tasks): reading the document and making its tasks, without
			// the DAG.
			layer: "lang/dax: build sim-paper's Montage document", unit: "task", units: 1449, allocs: 15.37, bytes: 1942,
			prepare: func(t *testing.T, n int) func() {
				d := dax.NewDriver("montage", workloads.MontageDAX(workloads.MontageConfig{Degree: 3.0}))
				return func() {
					if tasks, _, _, err := d.Build(); err != nil || len(tasks) != 1449 {
						t.Fatalf("%d tasks, error %v", len(tasks), err)
					}
				}
			},
		},
		{
			// The first pass of sim-paper's SNV Cuneiform document, 32
			// samples (one per Table 2 worker): parsing it and evaluating
			// every statement once, per task that pass discovers.
			layer: "lang/cuneiform: first pass of sim-paper's SNV Cuneiform document", unit: "task", units: 256, allocs: 32.02, bytes: 2900,
			prepare: func(t *testing.T, n int) func() {
				src, _ := workloads.SNVCuneiform(workloads.SNVConfig{Samples: 32, External: true, CRAM: true, RefLocal: true})
				return func() {
					if tasks, err := cuneiform.NewDriver("snv-cuneiform", src).Parse(); err != nil || len(tasks) != 256 {
						t.Fatalf("%d tasks, error %v", len(tasks), err)
					}
				}
			},
		},
	} {
		if b.pooled && raceEnabled {
			t.Logf("%-50s not measured under the race detector", b.layer)
			continue
		}
		// One warm-up and runs measured by AllocsPerRun, runs more for bytes.
		run := b.prepare(t, 2*runs+1)
		allocs := testing.AllocsPerRun(runs, run) / float64(b.units)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(b.units)
		t.Logf("%-50s %6.2f allocs/%s (budget %.2f)  %7.1f B/%s (budget %.0f)", b.layer, allocs, b.unit, b.allocs, bytes, b.unit, b.bytes)
		if allocs > b.allocs || bytes > b.bytes {
			t.Errorf("%s: %.2f allocs and %.1f B per %s, over the budget of %.2f and %.0f",
				b.layer, allocs, bytes, b.unit, b.allocs, b.bytes)
		}
	}
}
