// Command bench is the repository's one benchmark: four named workloads over
// the simulator and the HTTP server, end-to-end metrics with tracing off and
// per-layer metrics from a traced run. BENCHMARK.json at the repository root
// declares the same workloads and metrics; README.md in this directory
// defines them.
//
//	go run ./bench --workload sim-wide --seed 1 --seconds 20 --trace 0
//	go run ./bench                       # all four, one JSON result file
//	go run ./bench --trace 1             # per-layer numbers and span files
//	go run ./bench -runs 10 -out A.json  # ten seeds per workload
//	go run ./bench -compare A.json B.json
//	go run ./bench -aa -runs 10          # two sets of the same build, compared
//
// With --workload it measures that workload in this process and prints, as
// its last line, the result object the benchmark contract asks for. Without,
// it runs each workload in a child process of its own (clean heap, own
// ru_maxrss) and writes every child's result to one file.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// options are one workload run's inputs.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool   // the smoke test's sizes
	outDir   string // span files and result files
	tmpRoot  string // provdb files, removed at exit
}

func (o options) size() string {
	if o.tiny {
		return "tiny"
	}
	return "full"
}

// legSummary is one sim-paper leg of a traced run: the numbers that show
// which layer a pipeline stresses.
type legSummary struct {
	Name         string  `json:"name"`
	Policy       string  `json:"policy"`
	Tasks        int     `json:"tasks"`
	WallMs       float64 `json:"wall_ms"`
	ParseMs      float64 `json:"parse_ms"`
	OnCompleteMs float64 `json:"on_complete_ms"`
	SchedulerMs  float64 `json:"scheduler_ms"`
	LoopSelfMs   float64 `json:"loop_self_ms"`
}

// result is everything one workload run reports. The contract's last line
// is its first four fields.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	Workload string       `json:"workload"`
	Seed     int64        `json:"seed"`
	Seconds  float64      `json:"seconds"`
	Trace    bool         `json:"trace"`
	Size     string       `json:"size"`
	Digest   string       `json:"digest"`
	Golden   string       `json:"golden"` // match, mismatch, or none for a seed the golden file lacks
	Valid    bool         `json:"valid"`
	Notes    []string     `json:"notes,omitempty"`
	Legs     []legSummary `json:"legs,omitempty"`
	Env      *envStamp    `json:"env,omitempty"`

	spanFile string // where a traced run wrote its spans
}

func newResult(o options) *result {
	return &result{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Size: o.size(), Valid: true}
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *result) invalidate(format string, args ...any) {
	r.Valid = false
	r.note("invalid: "+format, args...)
}

//go:embed golden.json
var goldenJSON []byte

// goldenKey names a digest in golden.json. Digests cover a fixed piece of
// work — one iteration, one closed-loop segment — so they do not depend on
// -seconds.
func goldenKey(o options) string {
	return fmt.Sprintf("%s/%s/seed=%d", o.workload, o.size(), o.seed)
}

func loadGolden() (map[string]string, error) {
	g := map[string]string{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// checkGolden compares the run's digest with the golden file's. A seed the
// file does not hold is not a failure: the run has still been checked
// against the outputs its inputs demand, and against itself.
func (r *result) checkGolden(key string) {
	g, err := loadGolden()
	if err != nil {
		r.Golden = "mismatch"
		r.Failed++
		r.note("%v", err)
		return
	}
	want, ok := g[key]
	switch {
	case !ok:
		r.Golden = "none"
	case want == r.Digest:
		r.Golden = "match"
	default:
		r.Golden = "mismatch"
		r.Failed++
		r.note("digest differs from golden %s:\n  got  %s\n  want %s", key, r.Digest, want)
	}
}

// scratchDir makes the run's private directory for provdb files.
func scratchDir(o options) (string, error) {
	if err := os.MkdirAll(o.tmpRoot, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(o.tmpRoot, o.workload+"-")
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

func setGoMetrics(m *metricSet) {
	var st runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&st)
	m.set("go.gc_cpu_share", st.GCCPUFraction)
	m.set("go.gc_cycles", float64(st.NumGC))
	m.set("go.heap_live_mb", float64(st.HeapAlloc)/(1<<20))
}

// runWorkload measures one workload in this process.
func runWorkload(o options) (*result, error) {
	env := stampEnv()
	var r *result
	var err error
	switch o.workload {
	case wlSimWide, wlSimPaper:
		r, err = runSim(o)
	case wlServeOpen, wlServeMemo:
		r, err = runServe(o)
	default:
		return nil, fmt.Errorf("unknown workload %q (want %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if err != nil {
		return nil, err
	}
	r.Env = env
	if env.BusyCores > 0.5*float64(env.NumCPU) {
		r.invalidate("%.2f of %d cores were busy before the run started", env.BusyCores, env.NumCPU)
	}
	r.Correct = r.Failed == 0 && r.Golden != "mismatch"
	return r, nil
}

func workloadNames() []string {
	names := make([]string, len(workloadDefs))
	for i, w := range workloadDefs {
		names[i] = w.name
	}
	return names
}

// printResult prints every metric by name and unit, then the full result on
// one tagged line for a parent bench process, then the contract's object as
// the last line.
func printResult(r *result) error {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	fmt.Printf("%s seed %d, %g s, size %s, trace %v\n", r.Workload, r.Seed, r.Seconds, r.Size, r.Trace)
	for _, d := range defs {
		fmt.Printf("  %-36s %14.4f %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}
	for _, l := range r.Legs {
		fmt.Printf("  leg %-18s %-9s %5d tasks  wall %8.2f ms  parse %7.2f  on_complete %7.2f  scheduler %6.2f  loop_self %7.2f\n",
			l.Name, l.Policy, l.Tasks, l.WallMs, l.ParseMs, l.OnCompleteMs, l.SchedulerMs, l.LoopSelfMs)
	}
	for _, n := range r.Notes {
		fmt.Println("  note:", n)
	}
	fmt.Printf("  digest %s (golden: %s)\n", r.Digest, r.Golden)
	full, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Printf("%s%s\n", resultTag, full)
	last, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	return nil
}

const resultTag = "bench-result: "

// runSeconds is BENCHMARK.json's run_seconds: the -seconds the sizes and
// bounds were calibrated at.
const runSeconds = 25

// printBenchmarkJSON renders BENCHMARK.json from the tables in metrics.go;
// TestBenchmarkJSON fails when the committed file differs from them.
func printBenchmarkJSON(w io.Writer) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, d := range workloadDefs {
		doc.Workloads = append(doc.Workloads, wl{d.name, d.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.name, d.unit, d.better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

func main() {
	var o options
	var trace, runs int
	var size, out string
	var compare, aa, updateGolden, benchmarkJSON bool
	flag.StringVar(&o.workload, "workload", "", "measure this workload in this process: "+strings.Join(workloadNames(), ", ")+" (default: all four, each in a child process)")
	flag.Int64Var(&o.seed, "seed", 1, "every input is generated from it")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "length of the timed region")
	flag.IntVar(&trace, "trace", 0, "1: per-layer metrics from a shorter run with the seam wrappers on, plus a span file")
	flag.StringVar(&size, "size", "full", "full, or tiny for the smoke test's sizes")
	flag.StringVar(&o.outDir, "outdir", ".bench_out", "directory for span and result files")
	flag.StringVar(&o.tmpRoot, "tmpdir", ".bench_tmp", "directory for provdb files; removed afterwards")
	flag.IntVar(&runs, "runs", 1, "without -workload: runs per workload, on seeds seed, seed+1, ...")
	flag.StringVar(&out, "out", "", "without -workload: result file (default <outdir>/result.json)")
	flag.BoolVar(&compare, "compare", false, "compare two result files: -compare A.json B.json")
	flag.BoolVar(&aa, "aa", false, "run two interleaved sets of this build and compare them")
	flag.BoolVar(&updateGolden, "update-golden", false, "rewrite bench/golden.json from runs on seeds seed..seed+runs-1")
	flag.BoolVar(&benchmarkJSON, "benchmark-json", false, "print BENCHMARK.json as the tables in metrics.go have it")
	flag.Parse()
	o.trace = trace != 0
	o.tiny = size == "tiny"
	if size != "full" && size != "tiny" {
		fatal(fmt.Errorf("-size %q: want full or tiny", size))
	}

	switch {
	case benchmarkJSON:
		if err := printBenchmarkJSON(os.Stdout); err != nil {
			fatal(err)
		}
	case compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -compare A.json B.json"))
		}
		regressed, err := compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	case o.workload != "":
		r, err := runWorkload(o)
		os.Remove(o.tmpRoot) // succeeds only if empty
		if err != nil {
			fatal(err)
		}
		if err := printResult(r); err != nil {
			fatal(err)
		}
	default:
		if err := runAll(o, runs, out, aa, updateGolden); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// resultFile is what `go run ./bench` writes: every child's result.
type resultFile struct {
	Env  *envStamp `json:"env"`
	Runs []*result `json:"runs"`
}

func writeResultFile(path string, rf *resultFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}
