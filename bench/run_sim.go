package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hiway/internal/obs"
)

const (
	setupRepeats = 3 // set-ups per run; setup_s is their median
	minIters     = 3
)

// simRun is the state of one simulator-workload run.
type simRun struct {
	opts   options
	sizes  simSizes
	legs   []*pipeline
	tmpDir string
	res    *result
	ref    *refSpeed
}

// runSim measures sim-wide or sim-paper. Iterations are strictly serial:
// one engine at a time, on one goroutine.
func runSim(o options) (*result, error) {
	s := &simRun{opts: o, sizes: fullSim, res: newResult(o), ref: newRefSpeed(1)}
	if o.tiny {
		s.sizes = tinySim
	}
	dir, err := scratchDir(o)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	s.tmpDir = dir

	// Set-up: generate every input from the seed, then one warm-up
	// iteration so the timed region starts with a grown heap and warm
	// caches. Repeated, because one set-up is too short to time steadily.
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		s.legs = simPipelines(o.workload, s.sizes, o.seed)
		if _, err := runIteration(s.legs, s.tmpDir, nil); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if o.trace {
		return s.traced()
	}
	return s.untraced(median(setups))
}

// iterSample is one timed iteration with its allocation delta.
type iterSample struct {
	it    *iterResult
	alloc uint64
}

// timedIteration runs one iteration from a collected heap and reads the
// bytes it allocated. The collection, the reference kernel's sample — taken
// with the collector idle — and both ReadMemStats are outside the
// iteration's wall.
func (s *simRun) timedIteration(tr *obs.Tracer) (iterSample, error) {
	var before, after runtime.MemStats
	runtime.GC()
	s.ref.sample()
	runtime.ReadMemStats(&before)
	it, err := runIteration(s.legs, s.tmpDir, tr)
	if err != nil {
		return iterSample{}, err
	}
	runtime.ReadMemStats(&after)
	return iterSample{it: it, alloc: after.TotalAlloc - before.TotalAlloc}, nil
}

// checkDigests requires every iteration to reproduce the first one's digest
// and that digest to equal the golden one, where the golden file has this
// seed and size.
func (s *simRun) checkDigests(samples []iterSample) {
	r := s.res
	r.Digest = samples[0].it.digest()
	for _, sm := range samples {
		r.Attempted++
		if d := sm.it.digest(); d != r.Digest {
			r.Failed++
			r.note("iteration digest differs from the first: %s", d)
		}
	}
	r.checkGolden(goldenKey(s.opts))
}

func (s *simRun) untraced(setupS float64) (*result, error) {
	r := s.res
	var samples []iterSample
	budget := time.Duration(s.opts.seconds * float64(time.Second))
	for start := time.Now(); len(samples) < minIters || time.Since(start) < budget; {
		sm, err := s.timedIteration(nil)
		if err != nil {
			return nil, err
		}
		samples = append(samples, sm)
	}
	s.checkDigests(samples)

	var walls, allocKB, ttt, query []float64
	for _, sm := range samples {
		walls = append(walls, sm.it.wall().Seconds())
		allocKB = append(allocKB, float64(sm.alloc)/1024/float64(sm.it.tasks()))
		for _, l := range sm.it.legs {
			ttt = append(ttt, ms(l.wall()))
			if l.query > 0 {
				query = append(query, ms(l.query))
			}
		}
	}
	tasks := float64(samples[0].it.tasks())
	f := s.ref.factor()
	m := newMetricSet(endToEnd)
	m.set("setup_s", setupS*f)
	m.set("tasks_per_s", tasks/median(walls)/f)
	m.set("runs_per_s", float64(len(s.legs))/median(walls)/f)
	m.set("ttt_ms_p50", percentile(ttt, 0.50)*f)
	m.set("ttt_ms_p95", percentile(ttt, 0.95)*f)
	m.set("query_ms_p50", percentile(query, 0.50)*f)
	m.set("alloc_kb_per_task", median(allocKB))
	m.set("peak_rss_mb", peakRSSMB())
	r.Metrics = m.export()
	_, _, q3 := quartiles(walls)
	r.note("%d iterations of %d runs and %.0f tasks; iteration wall median %.1f ms, p75 %.1f ms, as measured",
		len(samples), len(s.legs), tasks, 1000*median(walls), 1000*q3)
	s.ref.describe(r)
	return r, nil
}

// traced alternates untraced and traced iterations — pairs cancel the slow
// drift of the box — for half of -seconds, then runs the layer probes at the
// sizes the iterations reported and writes the spans.
func (s *simRun) traced() (*result, error) {
	r := s.res
	epoch := time.Now()
	tr := obs.NewTracer(func() float64 { return time.Since(epoch).Seconds() })
	var plain, traced []iterSample
	budget := time.Duration(s.opts.seconds * float64(time.Second) / 2)
	for start := time.Now(); len(traced) < minIters || time.Since(start) < budget; {
		order := []*obs.Tracer{nil, tr}
		if len(traced)%2 == 1 {
			order[0], order[1] = tr, nil
		}
		for _, t := range order {
			sm, err := s.timedIteration(t)
			if err != nil {
				return nil, err
			}
			if t == nil {
				plain = append(plain, sm)
			} else {
				traced = append(traced, sm)
			}
		}
	}
	s.checkDigests(append(append([]iterSample(nil), plain...), traced...))

	// Times: per-iteration sums over the legs, then the median over the
	// traced iterations.
	m := newMetricSet(perLayer)
	per := make([]map[string]float64, len(traced))
	for i, sm := range traced {
		per[i] = s.layerTimes(sm.it)
	}
	times := map[string]float64{}
	for name := range per[0] {
		xs := make([]float64, len(per))
		for i := range per {
			xs[i] = per[i][name]
		}
		times[name] = median(xs)
		m.set(name, times[name])
	}

	// Counts come from the last iteration; checkDigests has already shown
	// every iteration equal.
	last := traced[len(traced)-1].it
	counts := map[string]float64{}
	depth, width, nodes := 0, 0, 0
	var selN, assignN int64
	for i, l := range last.legs {
		c := l.seams
		counts["sim.events"] += float64(l.events)
		counts["sim.switch_reshares"] += float64(l.reshares)
		counts["yarn.requests"] += float64(l.requests)
		counts["yarn.allocations"] += float64(l.allocations)
		counts["core.attempts"] += float64(l.attempts)
		counts["core.makespan_s"] += l.makespan
		counts["lang.on_complete_calls"] += float64(c.onCompleteN)
		counts["scheduler.select_calls"] += float64(c.selN)
		counts["hdfs.locality_calls"] += float64(c.localityN)
		counts["provenance.estimate_calls"] += float64(c.estimateN)
		counts["provenance.events"] += float64(c.events)
		counts["provenance.batches"] += float64(c.batches)
		selN += c.selN
		assignN += c.assignN
		depth = max(depth, l.maxDepth)
		width = max(width, s.legs[i].width)
		nodes = max(nodes, s.legs[i].nodes)
	}
	for name, v := range counts {
		m.set(name, v)
	}
	if selN > 0 {
		m.set("scheduler.assign_ratio", float64(assignN)/float64(selN))
	}
	m.set("sim.max_queue_depth", float64(depth))
	m.set("sim.events_per_s", counts["sim.events"]/(times["core.loop_ms"]/1000))

	// Probes, sized from the counts above.
	m.set("sim.queue_ns_per_event", probeQueue(depth))
	m.set("sim.reshare_us_per_op", probeReshare(width))
	allocUs, err := probeYarnAlloc(nodes)
	if err != nil {
		return nil, err
	}
	m.set("yarn.alloc_us", allocUs)
	putUs, err := probeHDFSPut(nodes, 3)
	if err != nil {
		return nil, err
	}
	m.set("hdfs.put_us", putUs)
	pdb, err := probeProvdb(last.events, s.tmpDir)
	if err != nil {
		return nil, err
	}
	m.set("provdb.put_us", pdb.putUs)
	m.set("provdb.sync_ms", pdb.syncMs)
	m.set("provdb.reopen_ms", pdb.reopenMs)
	m.set("provdb.bytes_per_event", pdb.bytesPerEvent)

	var plainWalls, tracedWalls, submit []float64
	for _, sm := range plain {
		plainWalls = append(plainWalls, ms(sm.it.wall()))
	}
	for _, sm := range traced {
		tracedWalls = append(tracedWalls, ms(sm.it.wall()))
		for _, l := range sm.it.legs {
			submit = append(submit, ms(l.submit()))
		}
	}
	_, _, q3 := quartiles(plainWalls)
	m.set("harness.iter_ms_p75", q3)
	m.set("harness.ref_kernel_ms", median(s.ref.walls))
	m.set("harness.submit_ms_p50", percentile(submit, 0.50))
	m.set("harness.trace_overhead_share", median(tracedWalls)/median(plainWalls)-1)
	m.set("harness.failed_share", float64(r.Failed)/float64(r.Attempted))
	setGoMetrics(m)
	r.Metrics = m.export()

	for i, l := range last.legs {
		c := l.seams
		r.Legs = append(r.Legs, legSummary{
			Name: l.name, Tasks: l.tasks, WallMs: ms(l.wall()),
			ParseMs: ms(c.parse), OnCompleteMs: ms(c.onComplete), SchedulerMs: ms(c.sel + c.ready + c.plan),
			LoopSelfMs: ms(l.launch + l.loop - c.outer), Policy: s.legs[i].policy,
		})
	}
	if r.spanFile, err = writeSpans(s.opts, tr); err != nil {
		return nil, err
	}
	r.note("%d traced and %d untraced iterations; spans in %s", len(traced), len(plain), r.spanFile)
	return r, nil
}

// layerTimes sums one traced iteration's legs into the per-layer time
// metrics, in ms by metric name. The phases are disjoint, and the loop splits
// into outermost seam time and self time; what they leave of the clock around
// the legs is the harness's own overhead.
func (s *simRun) layerTimes(it *iterResult) map[string]float64 {
	x := map[string]float64{"provenance.flush_ms": ms(it.dbio)}
	phases := it.dbio
	for i, l := range it.legs {
		c := l.seams
		parse := "lang.parse_ms"
		if s.legs[i].lang == "" {
			parse = "wf.dag_build_ms" // the synthetic driver has no frontend
		}
		x[parse] += ms(c.parse)
		for name, d := range map[string]time.Duration{
			"lang.parse_ms":          l.newDriver,
			"lang.on_complete_ms":    c.onComplete,
			"recipes.materialize_ms": l.materialize,
			"workloads.stage_ms":     l.stage,
			"scheduler.select_ms":    c.sel,
			"scheduler.ready_ms":     c.ready,
			"scheduler.plan_ms":      c.plan,
			"hdfs.locality_ms":       c.locality,
			"provenance.estimate_ms": c.estimate,
			"provenance.append_ms":   c.appendT,
			"provenance.load_ms":     l.provLoad,
			"provenance.flush_ms":    l.flush,
			"core.loop_ms":           l.launch + l.loop,
			"core.loop_self_ms":      l.launch + l.loop - c.outer,
		} {
			x[name] += ms(d)
		}
		phases += l.newDriver + l.materialize + l.provLoad + l.stage + l.launch + l.loop + l.flush
		if s.legs[i].name == "snv-cuneiform" {
			x["lang.cuneiform_on_complete_share"] = float64(c.onComplete) / float64(l.wall())
		}
	}
	x["harness.accounted_share"] = float64(phases) / float64(it.outer)
	return x
}

// writeSpans writes the tracer's spans as Chrome trace_event JSON, which
// Perfetto loads.
func writeSpans(o options, tr *obs.Tracer) (string, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("%s.seed%d.trace.json", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
