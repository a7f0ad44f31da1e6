package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// childTimeout bounds one workload run, set-up included.
const childTimeout = 180 * time.Second

// runChild measures one workload in a child process of this binary and
// returns the result it printed.
func runChild(o options) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe,
		"--workload", o.workload, "--seed", fmt.Sprint(o.seed), "--seconds", fmt.Sprint(o.seconds),
		"--trace", trace, "--size", o.size(), "--outdir", o.outDir, "--tmpdir", o.tmpRoot)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var res *result
	for _, line := range strings.Split(string(out), "\n") {
		if rest, ok := strings.CutPrefix(line, resultTag); ok {
			res = &result{}
			if jerr := json.Unmarshal([]byte(rest), res); jerr != nil {
				return nil, fmt.Errorf("%s: reading the child's result: %w", o.workload, jerr)
			}
		} else if line != "" && line[0] != '{' {
			fmt.Println(line)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", o.workload, o.seed, err)
	}
	if res == nil {
		return nil, fmt.Errorf("%s seed %d: the child printed no result", o.workload, o.seed)
	}
	return res, nil
}

// runAll runs every workload `runs` times, each run in its own child
// process on its own seed, and writes one result file. With aa it runs two
// sets, interleaved run by run with the order alternating, and compares
// them. With updateGolden it rewrites bench/golden.json from the digests.
func runAll(o options, runs int, out string, aa, updateGolden bool) error {
	if runs < 1 {
		return fmt.Errorf("-runs %d: want at least 1", runs)
	}
	if out == "" {
		out = filepath.Join(o.outDir, "result.json")
	}
	sets := []*resultFile{{Env: stampEnv()}}
	if aa {
		sets = append(sets, &resultFile{Env: sets[0].Env})
	}
	for k := 0; k < runs; k++ {
		for _, w := range workloadDefs {
			co := o
			co.workload, co.seed = w.name, o.seed+int64(k)
			for i := range sets {
				set := sets[(i+k)%len(sets)]
				r, err := runChild(co)
				if err != nil {
					return err
				}
				set.Runs = append(set.Runs, r)
			}
		}
	}
	os.Remove(o.tmpRoot) // succeeds only if empty
	if updateGolden {
		return writeGolden(sets[0])
	}
	if !aa {
		if err := writeResultFile(out, sets[0]); err != nil {
			return err
		}
		fmt.Println("result:", out)
		return failIfIncorrect(sets[0])
	}
	ext := filepath.Ext(out)
	pathA, pathB := strings.TrimSuffix(out, ext)+".A"+ext, strings.TrimSuffix(out, ext)+".B"+ext
	if err := writeResultFile(pathA, sets[0]); err != nil {
		return err
	}
	if err := writeResultFile(pathB, sets[1]); err != nil {
		return err
	}
	fmt.Println("results:", pathA, pathB)
	if compareSets(sets[0], sets[1], os.Stdout) {
		return fmt.Errorf("the two sets of the same build disagree")
	}
	return nil
}

func failIfIncorrect(rf *resultFile) error {
	for _, r := range rf.Runs {
		if !r.Correct {
			return fmt.Errorf("%s seed %d: outputs are not correct (%d of %d failed, golden %s)", r.Workload, r.Seed, r.Failed, r.Attempted, r.Golden)
		}
	}
	return nil
}

// writeGolden merges the set's digests into bench/golden.json. Run from the
// repository root.
func writeGolden(rf *resultFile) error {
	const path = "bench/golden.json"
	g, err := loadGolden()
	if err != nil {
		return err
	}
	for _, r := range rf.Runs {
		if r.Failed != 0 {
			return fmt.Errorf("%s seed %d: refusing to record a digest from a run with failures", r.Workload, r.Seed)
		}
		g[goldenKey(options{workload: r.Workload, seed: r.Seed, tiny: r.Size == "tiny"})] = r.Digest
	}
	var buf bytes.Buffer
	buf.WriteString("{\n")
	keys := make([]string, 0, len(g))
	for k := range g {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		kb, _ := json.Marshal(k)
		vb, _ := json.Marshal(g[k])
		sep := ","
		if i == len(g)-1 {
			sep = ""
		}
		fmt.Fprintf(&buf, " %s: %s%s\n", kb, vb, sep)
	}
	buf.WriteString("}\n")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Printf("golden: %s (%d digests)\n", path, len(g))
	return nil
}

func compareFiles(pathA, pathB string, w io.Writer) (bool, error) {
	a, err := readResultFile(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return false, err
	}
	return compareSets(a, b, w), nil
}

// side is one result file's sample of one workload × metric.
type side struct {
	values         []float64
	q1, med, q3    float64
	spread         float64 // (q3 − q1) ÷ median
	skippedInvalid int
}

func gather(rf *resultFile, workload, metric string) side {
	var s side
	for _, r := range rf.Runs {
		if r.Workload != workload || r.Trace {
			continue
		}
		if !r.Valid || !r.Correct {
			s.skippedInvalid++
			continue
		}
		s.values = append(s.values, r.Metrics[metric].Value)
	}
	s.q1, s.med, s.q3 = quartiles(s.values)
	if s.med != 0 {
		s.spread = (s.q3 - s.q1) / s.med
	}
	return s
}

// compareSets prints, per workload × end-to-end metric, each side's median
// and quartiles and the relative change of B against A in the metric's worse
// direction, and judges it against the metric's bound:
//
//	regression  B's median is worse than A's by more than the bound
//	unresolved  either side's quartile spread exceeds the bound, so the
//	            medians cannot tell a change of that size from noise
//	ok          otherwise
//
// Digests and exact per-layer counts of runs both files hold for the same
// workload, seed and length must agree to the digit. It reports whether
// anything regressed or disagreed.
func compareSets(a, b *resultFile, w io.Writer) bool {
	bad := false
	fmt.Fprintf(w, "A: %s on %s (%d cores)\nB: %s on %s (%d cores)\n", a.Env.Commit, a.Env.CPUModel, a.Env.NumCPU, b.Env.Commit, b.Env.CPUModel, b.Env.NumCPU)
	fmt.Fprintf(w, "%-11s %-18s %5s  %12s %-25s  %12s %-25s  %8s %6s  %s\n",
		"workload", "metric", "n", "A median", "[q1, q3] spread", "B median", "[q1, q3] spread", "worse by", "bound", "verdict")
	for _, wl := range workloadDefs {
		for _, d := range endToEnd {
			sa, sb := gather(a, wl.name, d.name), gather(b, wl.name, d.name)
			if len(sa.values) == 0 || len(sb.values) == 0 {
				continue
			}
			worse := 0.0
			if sa.med != 0 {
				worse = (sb.med - sa.med) / sa.med
				if d.better == "higher" {
					worse = -worse
				}
			}
			verdict := "ok"
			switch {
			case len(sa.values) > 1 && (sa.spread > d.bound || sb.spread > d.bound):
				verdict = "unresolved"
			case worse > d.bound:
				verdict = "REGRESSION"
				bad = true
			}
			if n := sa.skippedInvalid + sb.skippedInvalid; n > 0 {
				verdict += fmt.Sprintf(" (%d invalid or incorrect runs left out)", n)
			}
			fmt.Fprintf(w, "%-11s %-18s %2d/%-2d  %12.4f [%.4g, %.4g] %4.1f%%  %12.4f [%.4g, %.4g] %4.1f%%  %+7.1f%% %5.0f%%  %s\n",
				wl.name, d.name, len(sa.values), len(sb.values),
				sa.med, sa.q1, sa.q3, 100*sa.spread, sb.med, sb.q1, sb.q3, 100*sb.spread, 100*worse, 100*d.bound, verdict)
		}
	}

	// Exact agreement of digests and count-type metrics, run by run.
	type key struct {
		workload string
		seed     int64
		seconds  float64
		trace    bool
		size     string
	}
	byKey := map[key]*result{}
	for _, r := range a.Runs {
		byKey[key{r.Workload, r.Seed, r.Seconds, r.Trace, r.Size}] = r
	}
	matched := 0
	for _, rb := range b.Runs {
		ra := byKey[key{rb.Workload, rb.Seed, rb.Seconds, rb.Trace, rb.Size}]
		if ra == nil {
			continue
		}
		matched++
		if ra.Digest != rb.Digest {
			bad = true
			fmt.Fprintf(w, "%s seed %d: digests differ\n  A %s\n  B %s\n", rb.Workload, rb.Seed, ra.Digest, rb.Digest)
		}
		if !rb.Trace {
			continue
		}
		for _, d := range perLayer {
			if isExact(d, rb.Workload) && ra.Metrics[d.name].Value != rb.Metrics[d.name].Value {
				bad = true
				fmt.Fprintf(w, "%s seed %d: %s differs: A %v, B %v\n", rb.Workload, rb.Seed, d.name, ra.Metrics[d.name].Value, rb.Metrics[d.name].Value)
			}
		}
	}
	fmt.Fprintf(w, "%d runs with the same workload, seed and length in both files: digests and exact counts compared\n", matched)
	return bad
}
