package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hiway/internal/lang"
	"hiway/internal/obs"
	"hiway/internal/service"
	"hiway/internal/workloads"
)

// serveSizes fixes the traffic of the two server workloads. Rates, the
// segment size and the ttt limit were calibrated once on the reference box
// (bench/README.md, "Calibration"); phase lengths are shares of -seconds so
// the smoke test can run the same phases in a fraction of the time.
type serveSizes struct {
	warmup int // discarded submissions on every fresh server
	// segment is the run count of one closed-loop segment; segments repeat
	// for closedShare of -seconds (tracedClosedShare in a traced run, which
	// also has the open-loop phases to fit in).
	segment                        int
	closedShare, tracedClosedShare float64
	// rates are r1..r4 in submissions/s: about 0.25, 0.5, 0.8 and 1.25 × the
	// calibrated closed-loop capacity of serve-open. r1 repeats in segments
	// of refSegmentSec for refShare of -seconds; r2..r4 last overloadShare
	// of -seconds each.
	rates                   [4]float64
	refSegmentSec, refShare float64
	overloadShare           float64
	tttLimitMs              float64 // p95 limit a rate must meet to count for max_rate_ok
	largeSamples            int     // samples of a "large SNV" spec (× 8 files)
}

var (
	fullServe = serveSizes{
		warmup:  100,
		segment: 600, closedShare: 0.88, tracedClosedShare: 0.20,
		rates:         [4]float64{250, 500, 800, 1250},
		refSegmentSec: 2, refShare: 0.20,
		overloadShare: 0.04,
		tttLimitMs:    64,
		largeSamples:  32,
	}
	tinyServe = serveSizes{
		warmup:  20,
		segment: 40, closedShare: 0.60, tracedClosedShare: 0.20,
		rates:         [4]float64{200, 400, 640, 1000},
		refSegmentSec: 0.1, refShare: 0.20,
		overloadShare: 0.08,
		tttLimitMs:    1000,
		largeSamples:  4,
	}
)

// The tenant mix: shares of submissions by kind. Kinds are dealt in shuffled
// blocks of mixBlock so every block holds exactly this mix: the work a phase
// receives does not depend on how many large runs the seed happened to deal
// it.
const (
	kindSmallSNV = iota
	kindLargeSNV
	kindCuneiform
	kindCWL
	kindTrapline
	numKinds
)

var (
	kindNames = [numKinds]string{"snv-small", "snv-large", "cuneiform-src", "cwl-src", "trapline"}
	mixPer20  = [numKinds]int{10, 2, 3, 3, 2} // 50 / 10 / 15 / 15 / 10 %
	// poolPerKind sizes the pool of 100 distinct (kind, samples, fileSizeMB)
	// triples. Large SNV has few entries so the pool's distinct task keys
	// (~2.4k) sit at about half the memo table's 4,096-entry hot tier.
	poolPerKind = [numKinds]int{55, 5, 15, 15, 10}
)

const mixBlock = 20 // sum of mixPer20

var serveTenants = []string{"ada", "bob", "cyd", "dee"}

// poolEntry is one distinct submission shape: a (kind, samples, fileSizeMB)
// triple as a request. expect is the completed-task list a correct run of it
// reports — the sorted task names, comma-joined, as RunStatus lists them —
// derived from the sizes in closed form.
type poolEntry struct {
	kind   int
	req    service.SubmitRequest // Tenant and Name are filled per submission
	expect string
	tasks  int
	// lineage is a path whose lineage query resolves on a run of this entry,
	// relative to the run's staging prefix; "" if it has none we can name.
	lineage string
}

// expectTasks renders a completed-task multiset the way RunStatus does.
func expectTasks(counts map[string]int) (string, int) {
	var names []string
	for name, n := range counts {
		for i := 0; i < n; i++ {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return strings.Join(names, ","), len(names)
}

// buildPool lays out the 100 triples. The pool is a constant of the
// benchmark: the seed picks from it, it does not shape it.
func buildPool(sz serveSizes) [numKinds][]poolEntry {
	var pool [numKinds][]poolEntry
	for i := 0; i < poolPerKind[kindSmallSNV]; i++ {
		s, mb := 1+i%4, 32+8*float64(i/4)
		e := poolEntry{kind: kindSmallSNV, lineage: "/out/sample000/annotated.vcf"}
		e.req.Workload = &service.WorkloadSpec{Kind: service.WorkloadSNV, Samples: s, FileSizeMB: mb}
		e.expect, e.tasks = expectTasks(map[string]int{"bowtie2": s * 2, "samtools-sort": s, "varscan": s, "annovar": s})
		pool[kindSmallSNV] = append(pool[kindSmallSNV], e)
	}
	for i := 0; i < poolPerKind[kindLargeSNV]; i++ {
		s, mb := sz.largeSamples, 64+16*float64(i)
		e := poolEntry{kind: kindLargeSNV, lineage: "/out/sample000/annotated.vcf"}
		e.req.Workload = &service.WorkloadSpec{Kind: service.WorkloadSNV, Samples: s, FilesPerSample: 8, FileSizeMB: mb}
		e.expect, e.tasks = expectTasks(map[string]int{"bowtie2": s * 8, "samtools-sort": s, "varscan": s, "annovar": s})
		pool[kindLargeSNV] = append(pool[kindLargeSNV], e)
	}
	srcCfg := func(i int) workloads.SNVConfig {
		return workloads.SNVConfig{
			Samples: 1 + i%3, FilesPerSample: 2, FileSizeMB: 48 + 8*float64(i/3), CallSplitRegions: 2, RefLocal: true,
			AlignCPUSeconds: 40, SortCPUSeconds: 40, CallCPUSeconds: 40, AnnotateCPUSeconds: 40,
		}
	}
	inputSpecs := func(ins []workloads.Input) []service.InputSpec {
		out := make([]service.InputSpec, len(ins))
		for i, in := range ins {
			out[i] = service.InputSpec{Path: in.Path, SizeMB: in.SizeMB}
		}
		return out
	}
	for i := 0; i < poolPerKind[kindCuneiform]; i++ {
		cfg := srcCfg(i)
		src, ins := snvCuneiformStatic(cfg)
		e := poolEntry{kind: kindCuneiform}
		e.req.Lang, e.req.Source, e.req.Inputs = lang.Cuneiform, src, inputSpecs(ins)
		e.expect, e.tasks = expectTasks(map[string]int{"align": cfg.Samples * 2, "sortmerge": cfg.Samples, "call": cfg.Samples, "annotate": cfg.Samples})
		pool[kindCuneiform] = append(pool[kindCuneiform], e)
	}
	for i := 0; i < poolPerKind[kindCWL]; i++ {
		cfg := srcCfg(i)
		src, ins := workloads.SNVCWL(cfg)
		e := poolEntry{kind: kindCWL}
		e.req.Lang, e.req.Source, e.req.Inputs = lang.CWL, src, inputSpecs(ins)
		e.expect, e.tasks = expectTasks(map[string]int{"align": cfg.Samples * 2, "sortscatter": cfg.Samples, "call": cfg.Samples * 2, "annotate": cfg.Samples})
		pool[kindCWL] = append(pool[kindCWL], e)
	}
	for i := 0; i < poolPerKind[kindTrapline]; i++ {
		mb := 64 + 16*float64(i)
		e := poolEntry{kind: kindTrapline, lineage: "/out/diff_results.txt"}
		e.req.Workload = &service.WorkloadSpec{Kind: service.WorkloadTRAPLINE, FileSizeMB: mb}
		e.expect, e.tasks = expectTasks(map[string]int{"tophat2": 2, "cufflinks": 2, "cuffmerge": 1, "cuffdiff": 1})
		pool[kindTrapline] = append(pool[kindTrapline], e)
	}
	return pool
}

// snvCuneiformStatic renders SNV calling as Cuneiform source a client can
// submit as is. workloads.SNVCuneiform scatters regions through an aggregate
// output that only its Behavior hook fills in, and a submission over HTTP
// cannot carry a hook; here the sort step declares one merged alignment.
func snvCuneiformStatic(cfg workloads.SNVConfig) (string, []workloads.Input) {
	var sb strings.Builder
	fmt.Fprintf(&sb, `%%%% SNV calling, one merged alignment per sample.
deftask align( bam : reads ) @cpu %.0f @threads 8 @mem 6500 @size bam %.0f in bash *{
  bowtie2 -x /ref/hg38.idx -U $reads -S $bam
}*
deftask sortmerge( sorted : <bams> ) @cpu %.0f @threads 4 @mem 4000 @size sorted %.0f in bash *{
  samtools sort $bams > $sorted
}*
deftask call( vcf : sorted ) @cpu %.0f @threads 8 @mem 6500 @size vcf 80 in bash *{
  varscan mpileup2snp $sorted > $vcf
}*
deftask annotate( out : vcf ) @cpu %.0f @threads 2 @mem 3000 @size out 90 in bash *{
  annovar $vcf > $out
}*
`, cfg.AlignCPUSeconds, cfg.FileSizeMB*1.2, cfg.SortCPUSeconds, cfg.FileSizeMB*1.2*float64(cfg.FilesPerSample)*0.9,
		cfg.CallCPUSeconds, cfg.AnnotateCPUSeconds)
	var inputs []workloads.Input
	for s := 0; s < cfg.Samples; s++ {
		var reads []string
		for f := 0; f < cfg.FilesPerSample; f++ {
			p := fmt.Sprintf("/reads/sample%03d/part%02d.fq", s, f)
			reads = append(reads, fmt.Sprintf("%q", p))
			inputs = append(inputs, workloads.Input{Path: p, SizeMB: cfg.FileSizeMB})
		}
		fmt.Fprintf(&sb, "\nlet s%03d_reads = %s;\n", s, strings.Join(reads, " "))
		fmt.Fprintf(&sb, "let s%03d_sorted = sortmerge( bams: align( reads: s%03d_reads ) );\n", s, s)
		fmt.Fprintf(&sb, "annotate( vcf: call( sorted: s%03d_sorted ) );\n", s)
	}
	return sb.String(), inputs
}

// submission is one pre-marshalled request of the schedule.
type submission struct {
	entry *poolEntry
	id    string // "<tenant>-<name>", the server's run ID
	body  []byte
	// lineage is the absolute path a lineage query resolves on this run.
	lineage string
}

// zipfCycle lays out picks from n ranks in Zipf(1.2) proportions as evenly as
// possible: at every step it picks the rank furthest behind its share. Any
// window of the cycle then holds the ranks in (nearly) the same proportions,
// where independent draws would give every seed a different mix of cheap and
// costly specs — on 600 submissions that moved the latency medians by ±30%.
func zipfCycle(n, length int) []int {
	share := make([]float64, n)
	total := 0.0
	for k := range share {
		share[k] = math.Pow(float64(k+1), -1.2)
		total += share[k]
	}
	count := make([]int, n)
	cycle := make([]int, length)
	for t := range cycle {
		best, bestDeficit := 0, math.Inf(-1)
		for k := range share {
			if d := share[k]/total*float64(t+1) - float64(count[k]); d > bestDeficit {
				best, bestDeficit = k, d
			}
		}
		count[best]++
		cycle[t] = best
	}
	return cycle
}

const zipfCycleLen = 1 << 12

// buildSchedule lays out n submissions: kinds dealt in shuffled blocks of
// the mix, the spec within a kind by walking that kind's Zipf cycle from a
// seeded offset, tenants round-robin, names sequential. The seed decides the
// order and where each cycle starts; the same seed gives the same bytes.
func buildSchedule(pool *[numKinds][]poolEntry, seed int64, n int) ([]submission, error) {
	rng := rand.New(rand.NewSource(seed))
	var cycle [numKinds][]int
	var at [numKinds]int
	for k := range cycle {
		cycle[k] = zipfCycle(len(pool[k]), zipfCycleLen)
		at[k] = rng.Intn(zipfCycleLen)
	}
	var block []int
	for k, c := range mixPer20 {
		for i := 0; i < c; i++ {
			block = append(block, k)
		}
	}
	subs := make([]submission, 0, n)
	for len(subs) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, k := range block {
			if len(subs) == n {
				break
			}
			i := len(subs)
			e := &pool[k][cycle[k][at[k]%zipfCycleLen]]
			at[k]++
			req := e.req
			req.Tenant = serveTenants[i%len(serveTenants)]
			req.Name = fmt.Sprintf("r%06d", i)
			body, err := json.Marshal(&req)
			if err != nil {
				return nil, err
			}
			s := submission{entry: e, id: req.Tenant + "-" + req.Name, body: body}
			if e.lineage != "" {
				s.lineage = fmt.Sprintf("/svc/%s/%s%s", req.Tenant, req.Name, e.lineage)
			}
			subs = append(subs, s)
		}
	}
	return subs, nil
}

// --- the server under test and its client ---

type serveHarness struct {
	srv    *service.Server
	ts     *httptest.Server
	client *http.Client
	conns  int
	tr     *obs.Tracer // client-side submit spans; nil unless traced

	accepted atomic.Int64
	terminal atomic.Int64
	waiters  sync.WaitGroup
}

func newServeHarness(memoOn bool, hook service.Hook) (*serveHarness, error) {
	profiles := make([]service.TenantProfile, len(serveTenants))
	for i, t := range serveTenants {
		profiles[i] = service.TenantProfile{Name: t, Weight: 1}
	}
	srv, err := service.NewServer(service.ServerConfig{
		MaxConcurrent: runtime.NumCPU(),
		MaxQueue:      64,
		Memo:          memoOn,
		Hook:          hook,
	}, profiles)
	if err != nil {
		return nil, err
	}
	// One load-generating goroutine, and one connection, per core.
	h := &serveHarness{srv: srv, conns: runtime.NumCPU()}
	h.ts = httptest.NewServer(srv.Handler())
	h.client = &http.Client{Transport: &http.Transport{
		MaxIdleConns: h.conns, MaxIdleConnsPerHost: h.conns, MaxConnsPerHost: h.conns,
	}}
	return h, nil
}

// close drains the server and stops every goroutine the harness started.
func (h *serveHarness) close() {
	h.srv.StartDrain()
	<-h.srv.Drained()
	h.srv.Wait()
	h.waiters.Wait()
	h.client.CloseIdleConnections()
	h.ts.Close()
}

// sample is the client-side record of one submission.
type sample struct {
	due, sent, acked, done time.Time
	status                 int
}

// submit posts one pre-marshalled body and, once accepted, parks a waiter on
// the run's Done channel that stamps the terminal instant.
func (h *serveHarness) submit(s *submission, rec *sample) error {
	sp := h.tr.BeginAsync("submit", s.id, "client", 0)
	rec.sent = time.Now()
	resp, err := h.client.Post(h.ts.URL+"/v1/workflows", "application/json", bytes.NewReader(s.body))
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	rec.acked = time.Now()
	h.tr.End(sp)
	rec.status = resp.StatusCode
	if resp.StatusCode != http.StatusAccepted {
		return nil
	}
	run := h.srv.Lookup(s.id)
	if run == nil {
		return fmt.Errorf("accepted run %s is not registered", s.id)
	}
	h.accepted.Add(1)
	h.waiters.Add(1)
	go func() {
		defer h.waiters.Done()
		<-run.Done()
		rec.done = time.Now()
		h.terminal.Add(1)
	}()
	return nil
}

// awaitIdle blocks until every accepted run is terminal.
func (h *serveHarness) awaitIdle() { h.waiters.Wait() }

// openLoop sends subs on the given arrival offsets, timed from start, over
// the harness's connections: each sender takes the next due submission,
// sleeps until it is due and posts it, so a stalled round trip delays the
// ones behind it and shows up as generator lag.
func (h *serveHarness) openLoop(subs []submission, at []time.Duration, recs []sample) error {
	var next atomic.Int64
	var firstErr atomic.Value
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < h.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(subs) {
					return
				}
				recs[i].due = start.Add(at[i])
				sleepUntil(recs[i].due)
				if err := h.submit(&subs[i], &recs[i]); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err, _ := firstErr.Load().(error); err != nil {
		return err
	}
	return nil
}

// timerSlack is how early sleepUntil wakes to yield-spin the rest: the
// reference box's timers overshoot by about 0.5 ms at the median and 1.1 ms
// at p95, which would otherwise be most of the generator's lag.
const timerSlack = 1200 * time.Microsecond

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > timerSlack {
		time.Sleep(d - timerSlack)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// closedLoop pushes subs through clients that each wait for their run's
// terminal state before submitting the next. It returns the wall time from
// the first submit to the last terminal.
func (h *serveHarness) closedLoop(subs []submission, recs []sample) (time.Duration, error) {
	var next atomic.Int64
	var firstErr atomic.Value
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < h.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(subs) {
					return
				}
				recs[i].due = time.Now()
				if err := h.submit(&subs[i], &recs[i]); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				if recs[i].status != http.StatusAccepted {
					continue
				}
				<-h.srv.Lookup(subs[i].id).Done()
			}
		}()
	}
	wg.Wait()
	h.awaitIdle()
	wall := time.Since(start)
	if err, _ := firstErr.Load().(error); err != nil {
		return 0, err
	}
	return wall, nil
}

func (h *serveHarness) get(path string) (int, []byte, time.Duration, error) {
	t0 := time.Now()
	resp, err := h.client.Get(h.ts.URL + path)
	if err != nil {
		return 0, nil, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, time.Since(t0), err
}

func (h *serveHarness) query(q string) (int, []byte, time.Duration, error) {
	return h.get("/v1/provenance?q=" + url.QueryEscape(q))
}

// checkRuns compares every accepted run's terminal state and completed-task
// list with what its pool entry demands, and returns how many fall short.
func (h *serveHarness) checkRuns(subs []submission, recs []sample) (failed int, firstBad string) {
	for i := range subs {
		if recs[i].status != http.StatusAccepted {
			continue
		}
		st := h.srv.Lookup(subs[i].id).Status()
		got := strings.Join(st.CompletedTasks, ",")
		if st.State != service.StateSucceeded || got != subs[i].entry.expect {
			failed++
			if firstBad == "" {
				firstBad = fmt.Sprintf("%s (%s): state %s error %q tasks %q want %q",
					subs[i].id, kindNames[subs[i].entry.kind], st.State, st.Error, got, subs[i].entry.expect)
			}
		}
	}
	return failed, firstBad
}

func msSince(a, b time.Time) float64 { return ms(b.Sub(a)) }
