package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hiway/internal/obs"
	"hiway/internal/provdb"
	"hiway/internal/provenance"
	"hiway/internal/service"
)

// genLagLimitMs invalidates the reference step when the load generator was
// late for most of its requests. The limit is on the median: the generator
// shares the server's two cores by design, and whenever both run a large
// workflow nothing else is scheduled for up to 10 ms, so a p95 limit of 1 ms
// would reject every run (README.md, "Run validity").
const genLagLimitMs = 1.0

// phasePlan sizes the phases from -seconds. Counts are whole blocks of the
// kind mix, so every phase receives exactly the mix. The schedule is cut
// into consecutive ranges: warm-up, one closed-loop segment, r1, r2..r4.
type phasePlan struct {
	warmup, segment int
	steps           [4]int
	stepDur         [4]time.Duration
	closedBudget    time.Duration
	refBudget       time.Duration
}

func wholeBlocks(x float64) int {
	n := int(math.Round(x/mixBlock)) * mixBlock
	if n < mixBlock {
		n = mixBlock
	}
	return n
}

func newPhasePlan(sz serveSizes, seconds float64, traced bool) phasePlan {
	share := sz.closedShare
	if traced {
		share = sz.tracedClosedShare
	}
	p := phasePlan{
		warmup:       wholeBlocks(float64(sz.warmup)),
		segment:      wholeBlocks(float64(sz.segment)),
		closedBudget: time.Duration(share * seconds * float64(time.Second)),
		refBudget:    time.Duration(sz.refShare * seconds * float64(time.Second)),
	}
	for i := range p.steps {
		d := sz.overloadShare * seconds
		if i == 0 {
			d = sz.refSegmentSec
		}
		p.steps[i] = wholeBlocks(sz.rates[i] * d)
		p.stepDur[i] = time.Duration(float64(p.steps[i]) / sz.rates[i] * float64(time.Second))
	}
	return p
}

func (p phasePlan) total() int {
	return p.warmup + p.segment + p.steps[0] + p.steps[1] + p.steps[2] + p.steps[3]
}

// arrivalTimes draws n arrival offsets over dur: a Poisson process
// conditioned on its count, so each step's load is fixed and only its
// timing is random.
func arrivalTimes(rng *rand.Rand, n int, dur time.Duration) []time.Duration {
	at := make([]time.Duration, n)
	for i := range at {
		at[i] = time.Duration(rng.Float64() * float64(dur))
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	return at
}

// stepStats is the client-side view of one step: an open-loop step, or a
// closed-loop segment. q holds its latency percentiles in ms by name — the
// stepQuantiles, which are also the per-step metric names, and the
// generator's lag.
type stepStats struct {
	rate                      float64
	sent, refused, backlogEnd int
	q                         map[string]float64
}

// stepQuantiles are the latency percentiles reported for each of r1..r4.
// submit counts from the instant a request was due to its 202, ttt to the
// run's terminal state.
var stepQuantiles = []string{"submit_ms_p50", "submit_ms_p95", "submit_ms_p99", "ttt_ms_p50", "ttt_ms_p95"}

func summarizeStep(rate float64, recs []sample, backlogEnd int) stepStats {
	st := stepStats{rate: rate, sent: len(recs), backlogEnd: backlogEnd}
	var submit, ttt, lag []float64
	for i := range recs {
		lag = append(lag, msSince(recs[i].due, recs[i].sent))
		if recs[i].status != http.StatusAccepted {
			st.refused++
			continue
		}
		submit = append(submit, msSince(recs[i].due, recs[i].acked))
		ttt = append(ttt, msSince(recs[i].due, recs[i].done))
	}
	st.q = map[string]float64{
		"submit_ms_p50": percentile(submit, 0.50), "submit_ms_p95": percentile(submit, 0.95), "submit_ms_p99": percentile(submit, 0.99),
		"ttt_ms_p50": percentile(ttt, 0.50), "ttt_ms_p95": percentile(ttt, 0.95),
		"gen_lag_ms_p50": percentile(lag, 0.50), "gen_lag_ms_p95": percentile(lag, 0.95),
	}
	return st
}

// medianStep is the median of a step's segments, percentile by percentile;
// counts add up.
func medianStep(segs []stepStats) stepStats {
	out := stepStats{rate: segs[0].rate, q: map[string]float64{}}
	for _, sg := range segs {
		out.sent += sg.sent
		out.refused += sg.refused
		out.backlogEnd = max(out.backlogEnd, sg.backlogEnd)
	}
	for name := range segs[0].q {
		xs := make([]float64, len(segs))
		for i := range segs {
			xs[i] = segs[i].q[name]
		}
		out.q[name] = median(xs)
	}
	return out
}

// runHook turns the server's lifecycle callbacks into spans on the harness's
// wall-clock tracer: one async "queued" and one async "exec" span per run,
// named by the run ID so a run's spans share an identifier. off makes every
// callback return at once, which is how one server measures its own tracing
// overhead.
type runHook struct {
	tr  *obs.Tracer
	off atomic.Bool

	mu    sync.Mutex
	spans map[string]obs.SpanID
}

func (h *runHook) swap(id string, next obs.SpanID) {
	h.mu.Lock()
	prev := h.spans[id]
	if next == 0 {
		delete(h.spans, id)
	} else {
		h.spans[id] = next
	}
	h.mu.Unlock()
	h.tr.End(prev)
}

func (h *runHook) OnQueued(now float64, tenant, id string) {
	if !h.off.Load() {
		h.swap(id, h.tr.BeginAsync("queued", id, "server/"+tenant, 0))
	}
}

func (h *runHook) OnRejected(now float64, tenant, id string, retryAfterSec float64) {
	if !h.off.Load() {
		h.tr.Instant("rejected", id, "server/"+tenant)
	}
}

func (h *runHook) OnAdmitted(now float64, tenant, id string) {
	if !h.off.Load() {
		h.swap(id, h.tr.BeginAsync("exec", id, "server/"+tenant, 0))
	}
}

func (h *runHook) OnFinished(now float64, tenant, id string, succeeded bool) {
	if !h.off.Load() {
		h.swap(id, 0)
	}
}

// flushSink is the drain phase's provdb-backed store: it forwards
// FlushProvenance's one batch to a DBStore, timing the append alone (the
// call around it also merges), and keeps the merged events for the probes.
type flushSink struct {
	*provenance.DBStore
	events []provenance.Event
	put    time.Duration
}

func (s *flushSink) AppendBatch(evs []provenance.Event) error {
	s.events = evs
	t0 := time.Now()
	err := s.DBStore.AppendBatch(evs)
	s.put = time.Since(t0)
	return err
}

// serveRun is the state of one server-workload run. The server keeps every
// run it ever accepted, so a phase measured on a server that has already
// served another would be measuring that one's retention too, and a long
// phase on one server spends its second half collecting its first half's.
// Every phase is therefore cut into short segments, each on a server of its
// own, started fresh and warmed up the same way, and reports medians over
// its segments:
//
//	closed     closed-loop segments of a fixed run list until the phase's
//	           time is spent; every end-to-end metric is read here. Each
//	           segment's server then answers two provenance queries.
//	reference  (traced runs) r1 in open-loop segments: the same submissions
//	           on fresh arrival times
//	overload   (traced runs) r2, r3, r4 on one server, then drain and the
//	           provenance flush into provdb
//
// The open-loop steps are per-layer numbers because they do not repeat well
// enough on the reference box to carry a bound (README.md, "What is bounded").
// setup_s is the median over all the set-ups.
type serveRun struct {
	opts   options
	sizes  serveSizes
	plan   phasePlan
	memoOn bool
	hook   *runHook    // nil unless traced
	tr     *obs.Tracer // nil unless traced
	subs   []submission
	next   int // first submission no phase has taken yet
	rng    *rand.Rand
	setups []float64
	ref    *refSpeed
	res    *result
	steps  [4]stepStats
}

// setup generates the schedule from the seed, starts a server and pushes
// the warm-up submissions through it. It returns the heap held before any
// load; the set-up's wall time goes to s.setups.
func (s *serveRun) setup() (*serveHarness, uint64, error) {
	t0 := time.Now()
	pool := buildPool(s.sizes)
	subs, err := buildSchedule(&pool, s.opts.seed, s.plan.total())
	if err != nil {
		return nil, 0, err
	}
	var hook service.Hook
	if s.hook != nil {
		hook = s.hook
	}
	h, err := newServeHarness(s.memoOn, hook)
	if err != nil {
		return nil, 0, err
	}
	h.tr = s.tr
	d := time.Since(t0)

	// Outside the set-up's clock: the pre-load heap, and a sample of the
	// reference kernel while the collector is idle.
	var st runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&st)
	s.ref.sample()

	t0 = time.Now()
	warm := make([]sample, s.plan.warmup)
	if _, err := h.closedLoop(subs[:s.plan.warmup], warm); err != nil {
		h.close()
		return nil, 0, err
	}
	s.setups = append(s.setups, (d + time.Since(t0)).Seconds())
	if bad, first := h.checkRuns(subs[:s.plan.warmup], warm); bad > 0 {
		h.close()
		return nil, 0, fmt.Errorf("warm-up: %d runs wrong, first %s", bad, first)
	}
	return h, st.HeapAlloc, nil
}

func (s *serveRun) take(n int) []submission {
	subs := s.subs[s.next : s.next+n]
	s.next += n
	return subs
}

// countWrong adds a phase's refused submissions and wrong runs to the
// result's failures.
func (s *serveRun) countWrong(h *serveHarness, subs []submission, recs []sample) {
	r := s.res
	r.Attempted += len(subs)
	for i := range recs {
		if recs[i].status != http.StatusAccepted {
			r.Failed++
		}
	}
	bad, first := h.checkRuns(subs, recs)
	r.Failed += bad
	if first != "" {
		r.note("run output: %s", first)
	}
}

// runServe measures serve-open or serve-memo: a live service.Server behind
// httptest on loopback, driven from at most nproc connections.
func runServe(o options) (*result, error) {
	s := &serveRun{
		opts: o, sizes: fullServe, memoOn: o.workload == wlServeMemo, res: newResult(o),
		rng: rand.New(rand.NewSource(o.seed ^ 0x5eed)),
		ref: newRefSpeed(runtime.NumCPU()),
	}
	if o.tiny {
		s.sizes = tinyServe
	}
	if o.trace {
		epoch := time.Now()
		s.tr = obs.NewTracer(func() float64 { return time.Since(epoch).Seconds() })
		s.hook = &runHook{tr: s.tr, spans: map[string]obs.SpanID{}}
	}
	s.plan = newPhasePlan(s.sizes, o.seconds, o.trace)
	s.next = s.plan.warmup
	// The phases cut their ranges from this schedule; every set-up generates
	// it again, inside its clock, and gets the same bytes.
	pool := buildPool(s.sizes)
	var err error
	if s.subs, err = buildSchedule(&pool, o.seed, s.plan.total()); err != nil {
		return nil, err
	}
	e2e, layers := newMetricSet(endToEnd), newMetricSet(perLayer)
	digest := sha256.New()
	r := s.res

	if err := s.closed(e2e, layers, digest); err != nil {
		return nil, fmt.Errorf("closed-loop phase: %w", err)
	}
	r.Digest = fmt.Sprintf("%s sha256=%x", o.workload, digest.Sum(nil)[:8])
	r.checkGolden(goldenKey(o))
	if !o.trace {
		f := s.ref.factor()
		for _, name := range []string{"ttt_ms_p50", "ttt_ms_p95", "query_ms_p50"} {
			e2e.set(name, e2e.values[name]*f)
		}
		for _, name := range []string{"tasks_per_s", "runs_per_s"} {
			e2e.set(name, e2e.values[name]/f)
		}
		e2e.set("setup_s", median(s.setups)*f)
		e2e.set("peak_rss_mb", peakRSSMB())
		r.Metrics = e2e.export()
		s.ref.describe(r)
		return r, nil
	}

	if err := s.reference(layers); err != nil {
		return nil, fmt.Errorf("reference phase: %w", err)
	}
	if err := s.overload(layers); err != nil {
		return nil, fmt.Errorf("overload phase: %w", err)
	}
	maxRateOK := 0.0
	for i, st := range s.steps {
		if st.q["ttt_ms_p95"] <= s.sizes.tttLimitMs && st.refused == 0 && st.backlogEnd <= runtime.NumCPU() {
			maxRateOK = math.Max(maxRateOK, st.rate)
		}
		pfx := fmt.Sprintf("service.r%d.", i+1)
		for _, name := range stepQuantiles {
			layers.set(pfx+name, st.q[name])
		}
		layers.set(pfx+"refused", float64(st.refused))
		layers.set(pfx+"backlog_end", float64(st.backlogEnd))
		r.note("r%d %4.0f/s: %d sent, %d refused, backlog %d; submit p50 %.2f p95 %.2f p99 %.2f ms; ttt p50 %.2f p95 %.2f ms; generator lag p50 %.2f p95 %.2f ms",
			i+1, st.rate, st.sent, st.refused, st.backlogEnd, st.q["submit_ms_p50"], st.q["submit_ms_p95"], st.q["submit_ms_p99"],
			st.q["ttt_ms_p50"], st.q["ttt_ms_p95"], st.q["gen_lag_ms_p50"], st.q["gen_lag_ms_p95"])
	}
	r.note("highest rate within limits (ttt p95 <= %.0f ms, none refused, backlog <= %d): %.0f/s", s.sizes.tttLimitMs, runtime.NumCPU(), maxRateOK)
	layers.set("service.gen_lag_ms_p50", s.steps[0].q["gen_lag_ms_p50"])
	layers.set("service.gen_lag_ms_p95", s.steps[0].q["gen_lag_ms_p95"])
	layers.set("service.max_rate_ok", maxRateOK)
	layers.set("harness.failed_share", float64(r.Failed)/float64(r.Attempted))
	layers.set("harness.ref_kernel_ms", median(s.ref.walls))
	setGoMetrics(layers)
	r.Metrics = layers.export()
	if r.spanFile, err = writeSpans(o, s.tr); err != nil {
		return nil, err
	}
	r.note("spans in %s", r.spanFile)
	return r, nil
}

// closed runs closed-loop segments — nproc clients, the same run list each
// time — and reads every end-to-end metric from them: throughput from the
// segment's wall, latencies from its runs (sent → 202, sent → terminal),
// allocation from MemStats around it, and the provenance query from two
// queries against the segment's server once all its runs are terminal.
func (s *serveRun) closed(e2e, layers *metricSet, digest io.Writer) error {
	r := s.res
	subs := s.take(s.plan.segment)
	tasks := 0
	var lineages []string
	for i := range subs {
		tasks += subs[i].entry.tasks
		if subs[i].lineage != "" {
			lineages = append(lineages, subs[i].lineage)
		}
	}
	// seg collects one value per segment (two for the query) by name.
	seg := map[string][]float64{}
	add := func(name string, v float64) { seg[name] = append(seg[name], v) }
	var retainedKB, listMs float64
	var prom map[string]float64
	segment := func(n int) error {
		h, baseline, err := s.setup()
		if err != nil {
			return err
		}
		defer h.close()
		// Traced: the hook is off on even segments and on on odd ones; the
		// two medians give the tracing overhead.
		off := n%2 == 0
		if s.hook != nil {
			s.hook.off.Store(off)
			defer s.hook.off.Store(false)
		}
		recs := make([]sample, len(subs))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		wall, err := h.closedLoop(subs, recs)
		runtime.ReadMemStats(&after)
		if err != nil {
			return err
		}
		st := summarizeStep(0, recs, 0)
		add("runs_per_s", float64(len(subs))/wall.Seconds())
		add("tasks_per_s", float64(tasks)/wall.Seconds())
		add("alloc_kb_per_task", float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(tasks))
		add("submit_ms_p50", st.q["submit_ms_p50"])
		add("ttt_ms_p50", st.q["ttt_ms_p50"])
		add("ttt_ms_p95", st.q["ttt_ms_p95"])
		if off {
			add("wall_hook_off", wall.Seconds())
		} else {
			add("wall_hook_on", wall.Seconds())
		}
		s.countWrong(h, subs, recs)

		// One lineage and one memo-hits query over HTTP, each merging the
		// provenance of every run the server holds, from a collected heap.
		runtime.GC()
		runtime.ReadMemStats(&after)
		for q, query := range []string{"lineage " + lineages[(n*7)%len(lineages)], "memo-hits"} {
			code, body, d, err := h.query(query)
			if err != nil {
				return err
			}
			r.Attempted++
			if code != http.StatusOK || (q == 0 && !bytes.Contains(body, []byte(" <- "))) {
				r.Failed++
				r.note("query %q: status %d, %d bytes", query, code, len(body))
			}
			add("query_ms_p50", ms(d))
		}
		if n > 0 {
			return nil
		}
		// Once: the digest, the retained heap with every run terminal, the
		// listing, and the memo table's counters from the server's /metrics.
		h.digestRuns(digest, subs)
		retainedKB = (float64(after.HeapAlloc) - float64(baseline)) / 1024 / float64(h.accepted.Load())
		code, _, d, err := h.get("/v1/workflows")
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("/v1/workflows: status %d, %v", code, err)
		}
		listMs = ms(d)
		code, body, _, err := h.get("/metrics")
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("/metrics: status %d, %v", code, err)
		}
		prom = parseProm(body)
		return nil
	}
	for n, start := 0, time.Now(); n < 3 || time.Since(start) < s.plan.closedBudget; n++ {
		if err := segment(n); err != nil {
			return err
		}
	}
	for _, name := range []string{"tasks_per_s", "runs_per_s", "ttt_ms_p50", "ttt_ms_p95", "query_ms_p50", "alloc_kb_per_task"} {
		e2e.set(name, median(seg[name]))
	}
	q1, med, q3 := quartiles(seg["runs_per_s"])
	r.note("closed loop: %d segments of %d runs and %d tasks; runs/s median %.0f [%.0f, %.0f]; query p50 %.1f ms over %d runs; as measured",
		len(seg["runs_per_s"]), len(subs), tasks, med, q1, q3, median(seg["query_ms_p50"]), len(subs)+s.plan.warmup)

	layers.set("harness.submit_ms_p50", median(seg["submit_ms_p50"]))
	layers.set("service.retained_kb_per_run", retainedKB)
	layers.set("service.list_ms", listMs)
	if on := seg["wall_hook_on"]; s.hook != nil && len(on) > 0 {
		layers.set("harness.trace_overhead_share", median(on)/median(seg["wall_hook_off"])-1)
	}
	lookups := prom["hiway_memo_lookups_total"]
	layers.set("memo.lookups", lookups)
	if lookups > 0 {
		layers.set("memo.hit_ratio", prom["hiway_memo_hits_total"]/lookups)
	}
	layers.set("memo.commits", prom["hiway_memo_commits_total"])
	layers.set("memo.evictions", prom["hiway_memo_evictions_total"])
	layers.set("memo.cpu_seconds_saved", prom["hiway_memo_cpu_seconds_saved"])
	return nil
}

// openStep runs one open-loop step on h and summarizes it.
func (s *serveRun) openStep(h *serveHarness, i int, subs []submission) ([]sample, stepStats, error) {
	recs := make([]sample, len(subs))
	if err := h.openLoop(subs, arrivalTimes(s.rng, len(subs), s.plan.stepDur[i]), recs); err != nil {
		return nil, stepStats{}, err
	}
	backlog := int(h.accepted.Load() - h.terminal.Load())
	h.awaitIdle()
	return recs, summarizeStep(s.sizes.rates[i], recs, backlog), nil
}

// reference runs r1, a quarter of capacity, as open-loop segments: the same
// submissions on fresh arrival times, a fresh server each time, until the
// phase's time is spent. Latencies count from the instant a request was due.
func (s *serveRun) reference(layers *metricSet) error {
	r := s.res
	subs := s.take(s.plan.steps[0])
	var all []stepStats
	var queueWait, exec []float64
	for seg, start := 0, time.Now(); seg < 3 || time.Since(start) < s.plan.refBudget; seg++ {
		h, _, err := s.setup()
		if err != nil {
			return err
		}
		recs, st, err := s.openStep(h, 0, subs)
		if err != nil {
			h.close()
			return err
		}
		all = append(all, st)
		s.countWrong(h, subs, recs)
		// Server-side split of the step, from the runs' own stamps.
		for i := range subs {
			if recs[i].status != http.StatusAccepted {
				continue
			}
			rs := h.srv.Lookup(subs[i].id).Status()
			queueWait = append(queueWait, 1000*(rs.AdmitAt-rs.SubmitAt))
			exec = append(exec, 1000*(rs.EndAt-rs.AdmitAt))
		}
		h.close()
	}
	st := medianStep(all)
	s.steps[0] = st
	r.note("r1 is the median of %d segments of %d submissions", len(all), len(subs))
	if lag := st.q["gen_lag_ms_p50"]; lag > genLagLimitMs {
		r.invalidate("service.gen_lag_ms_p50 %.2f ms at r1 exceeds %.1f ms", lag, genLagLimitMs)
	}
	layers.set("service.queue_wait_ms_p50", percentile(queueWait, 0.50))
	layers.set("service.queue_wait_ms_p95", percentile(queueWait, 0.95))
	layers.set("service.exec_ms_p50", percentile(exec, 0.50))
	layers.set("service.exec_ms_p95", percentile(exec, 0.95))

	// The handler without a socket, on a server of its own fed the same
	// bodies.
	handlerP50, err := s.probeHandler()
	if err != nil {
		return err
	}
	layers.set("service.handler_ms_p50", handlerP50)
	layers.set("service.http_overhead_ms", st.q["submit_ms_p50"]-handlerP50)
	return nil
}

// overload runs r2, r3 and r4 — half of, near and past capacity — on one
// server, then drains it and flushes every run's provenance into a
// provdb-backed store.
func (s *serveRun) overload(layers *metricSet) error {
	h, _, err := s.setup()
	if err != nil {
		return err
	}
	defer h.close()
	for i := 1; i < 4; i++ {
		subs := s.take(s.plan.steps[i])
		recs, st, err := s.openStep(h, i, subs)
		if err != nil {
			return err
		}
		s.steps[i] = st
		// Refusals are the steps' subject, not failures; wrong runs are.
		bad, first := h.checkRuns(subs, recs)
		s.res.Failed += bad
		if first != "" {
			s.res.note("run output: %s", first)
		}
	}

	t0 := time.Now()
	h.srv.StartDrain()
	<-h.srv.Drained()
	h.srv.Wait()
	layers.set("service.drain_ms", ms(time.Since(t0)))
	stats := h.srv.Stats()
	layers.set("service.rejected", float64(stats.Rejected))
	layers.set("service.peak_running", float64(stats.PeakRunning))

	dir, err := scratchDir(s.opts)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "serve.provdb")
	db, err := provdb.Open(path)
	if err != nil {
		return err
	}
	sink := &flushSink{DBStore: provenance.NewDBStore(db)}
	t0 = time.Now()
	n, err := h.srv.FlushProvenance(sink)
	if err != nil {
		sink.Close()
		return err
	}
	layers.set("service.flush_prov_ms", ms(time.Since(t0)))
	layers.set("provenance.events", float64(n))
	layers.set("provenance.batches", 1)
	layers.set("provenance.append_ms", ms(sink.put))
	pdb, err := finishProvdb(provdbTimes{putUs: perOp(sink.put, n, time.Microsecond)}, sink.DBStore, db, path, n)
	if err != nil {
		return err
	}
	layers.set("provdb.put_us", pdb.putUs)
	layers.set("provdb.sync_ms", pdb.syncMs)
	layers.set("provdb.reopen_ms", pdb.reopenMs)
	layers.set("provdb.bytes_per_event", pdb.bytesPerEvent)

	// Probes at the sizes this workload uses: each run's private cluster is
	// 8 nodes of 8 vcores, and the memo table saw `lookups` keys.
	const nodes, slots = 8, 64
	layers.set("sim.queue_ns_per_event", probeQueue(slots))
	layers.set("sim.reshare_us_per_op", probeReshare(slots))
	allocUs, err := probeYarnAlloc(nodes)
	if err != nil {
		return err
	}
	layers.set("yarn.alloc_us", allocUs)
	putUs, err := probeHDFSPut(nodes, 3)
	if err != nil {
		return err
	}
	layers.set("hdfs.put_us", putUs)
	lookupNs, commitNs := probeMemo(memoKeys(sink.events, int(layers.values["memo.lookups"])))
	layers.set("memo.lookup_ns", lookupNs)
	layers.set("memo.commit_ns", commitNs)
	return nil
}

// digestRuns hashes the terminal state and completed-task list of a
// phase's runs. The phases it is used on run below capacity, so a correct
// server accepts every one.
func (h *serveHarness) digestRuns(w io.Writer, subs []submission) {
	for i := range subs {
		run := h.srv.Lookup(subs[i].id)
		if run == nil {
			fmt.Fprintf(w, "%s missing\n", subs[i].id)
			continue
		}
		st := run.Status()
		fmt.Fprintf(w, "%s %s %s\n", st.ID, st.State, strings.Join(st.CompletedTasks, ","))
	}
}

// probeHandler times POST /v1/workflows through Handler().ServeHTTP with no
// socket, on a fresh server given the schedule's first bodies.
func (s *serveRun) probeHandler() (float64, error) {
	probe, err := newServeHarness(s.memoOn, nil)
	if err != nil {
		return 0, err
	}
	defer probe.close()
	handler := probe.srv.Handler()
	n := min(len(s.subs), 10*mixBlock)
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/workflows", bytes.NewReader(s.subs[i].body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		t0 := time.Now()
		handler.ServeHTTP(rec, req)
		times = append(times, ms(time.Since(t0)))
		if rec.Code != http.StatusAccepted {
			return 0, fmt.Errorf("handler probe: status %d for %s", rec.Code, s.subs[i].id)
		}
		<-probe.srv.Lookup(s.subs[i].id).Done()
	}
	return percentile(times, 0.50), nil
}

// parseProm reads the unlabelled series of a Prometheus text exposition.
func parseProm(body []byte) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out
}
