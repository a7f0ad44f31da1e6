package experiments

import (
	"strings"
	"testing"
)

// The tests assert the *shapes* the paper reports, on scaled-down
// configurations so the suite stays fast; the full-size experiments run in
// `hiway paper` and the benchmarks.

func TestFig4Shape(t *testing.T) {
	res, err := Fig4(Fig4Options{Runs: 1, Containers: []int{72, 144, 576}})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Points
	if len(p) != 3 {
		t.Fatalf("points = %d", len(p))
	}
	// Runtime decreases with container count for both systems.
	if !(p[0].HiWayMin > p[1].HiWayMin && p[1].HiWayMin > p[2].HiWayMin) {
		t.Fatalf("Hi-WAY not scaling: %+v", p)
	}
	if !(p[0].TezMin > p[1].TezMin && p[1].TezMin > p[2].TezMin) {
		t.Fatalf("Tez not scaling: %+v", p)
	}
	// Comparable while network is sufficient (within 10% at 72).
	if ratio := p[0].TezMin / p[0].HiWayMin; ratio > 1.10 || ratio < 0.90 {
		t.Fatalf("at 72 containers the systems should be comparable, ratio %.2f", ratio)
	}
	// Hi-WAY scales favorably once the switch saturates (576 containers).
	if p[2].TezMin <= p[2].HiWayMin*1.05 {
		t.Fatalf("Hi-WAY should win at 576 containers: hiway=%.1f tez=%.1f", p[2].HiWayMin, p[2].TezMin)
	}
	// The mechanism: data-aware scheduling reads almost everything locally.
	if p[2].HiWayLocalFrac < 0.8 {
		t.Fatalf("local read fraction = %.2f", p[2].HiWayLocalFrac)
	}
	if !strings.Contains(res.Render(), "576") {
		t.Fatal("render incomplete")
	}
}

func TestTable2Shape(t *testing.T) {
	res, err := Table2(Table2Options{Runs: 2, Workers: []int{1, 4, 16}})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Near-linear weak scaling: doubling data and workers keeps the
	// runtime within a tight band (paper: 340–380 min).
	for _, r := range rows {
		if r.AvgMin < 300 || r.AvgMin > 400 {
			t.Fatalf("runtime at %d workers = %.1f min, want ~340-380", r.Workers, r.AvgMin)
		}
	}
	spread := rows[2].AvgMin/rows[0].AvgMin - 1
	if spread > 0.15 || spread < -0.15 {
		t.Fatalf("weak scaling broken: %+v", rows)
	}
	// Data volume doubles with workers.
	if rows[1].DataGB != 4*rows[0].DataGB {
		t.Fatalf("data volume: %+v", rows)
	}
	// Cost per GB falls with scale (paper: $0.31 → $0.10).
	if !(rows[0].CostPerGB > rows[1].CostPerGB && rows[1].CostPerGB > rows[2].CostPerGB) {
		t.Fatalf("cost per GB should fall: %+v", rows)
	}
	if rows[0].CostPerGB < 0.2 || rows[0].CostPerGB > 0.45 {
		t.Fatalf("cost/GB at 1 worker = %.2f, paper reports ~0.31", rows[0].CostPerGB)
	}
}

func TestFig6Shape(t *testing.T) {
	res, err := Table2(Table2Options{Runs: 1, Workers: []int{2, 8, 32}})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows
	// Master load grows with scale...
	if !(rows[0].Util.HadoopCPULoad < rows[1].Util.HadoopCPULoad &&
		rows[1].Util.HadoopCPULoad < rows[2].Util.HadoopCPULoad) {
		t.Fatalf("hadoop master load should grow: %+v", rows)
	}
	if !(rows[0].Util.AMCPULoad < rows[2].Util.AMCPULoad) {
		t.Fatalf("AM load should grow: %+v", rows)
	}
	// ...but stays far below saturation (paper: <5% even at 128 workers).
	for _, r := range rows {
		if r.Util.HadoopCPULoad > 0.1*2 || r.Util.AMCPULoad > 0.1*2 {
			t.Fatalf("master load too high: %+v", r.Util)
		}
	}
	// Workers are pinned near full CPU (paper: load ~2.0 on two cores).
	for _, r := range rows {
		if r.Util.WorkerCPULoad < 1.7 {
			t.Fatalf("worker CPU load = %.2f, want ~2.0", r.Util.WorkerCPULoad)
		}
	}
	// AM and Hadoop master are the same order of magnitude.
	last := rows[len(rows)-1].Util
	if last.AMCPULoad > last.HadoopCPULoad*10 || last.HadoopCPULoad > last.AMCPULoad*10 {
		t.Fatalf("master loads should be same order: %+v", last)
	}
	if !strings.Contains(res.RenderFig6(), "worker cpu") {
		t.Fatal("fig6 render incomplete")
	}
}

func TestFig8Shape(t *testing.T) {
	res, err := Fig8(Fig8Options{Runs: 1, Sizes: []int{1, 3, 6}})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows
	// Monotonic speedup with cluster size for both systems.
	if !(rows[0].HiWayMin > rows[1].HiWayMin && rows[1].HiWayMin > rows[2].HiWayMin) {
		t.Fatalf("Hi-WAY not scaling: %+v", rows)
	}
	if !(rows[0].CloudManMin > rows[1].CloudManMin && rows[1].CloudManMin > rows[2].CloudManMin) {
		t.Fatalf("CloudMan not scaling: %+v", rows)
	}
	// Hi-WAY at least 25% faster at every size (the paper's headline).
	for _, r := range rows {
		if r.SpeedupPct < 25 {
			t.Fatalf("Hi-WAY should be ≥25%% faster at %d nodes, got %.0f%%", r.Nodes, r.SpeedupPct)
		}
	}
	if !strings.Contains(res.Render(), "CloudMan") {
		t.Fatal("render incomplete")
	}
}

func TestFig9Shape(t *testing.T) {
	res, err := Fig9(Fig9Options{Reps: 6, ConsecutiveRuns: 14})
	if err != nil {
		t.Fatal(err)
	}
	pts := res.Points
	// Without provenance, static HEFT is worse than dynamic FCFS.
	if pts[0].MedianSec <= res.FCFSMedianSec {
		t.Fatalf("HEFT@0 (%.0fs) should be worse than FCFS (%.0fs)", pts[0].MedianSec, res.FCFSMedianSec)
	}
	// With one prior run HEFT already beats FCFS.
	if pts[1].MedianSec >= res.FCFSMedianSec {
		t.Fatalf("HEFT@1 (%.0fs) should beat FCFS (%.0fs)", pts[1].MedianSec, res.FCFSMedianSec)
	}
	// Once estimates are complete (11 workers seen), runtimes are low and
	// stable: a major reduction of the standard deviation.
	late := pts[len(pts)-1]
	if late.MedianSec >= res.FCFSMedianSec/2 {
		t.Fatalf("converged HEFT (%.0fs) should be far below FCFS (%.0fs)", late.MedianSec, res.FCFSMedianSec)
	}
	early := pts[2]
	if late.StdSec >= early.StdSec {
		t.Fatalf("std dev should collapse: early ±%.0f late ±%.0f", early.StdSec, late.StdSec)
	}
	if !strings.Contains(res.Render(), "FCFS") {
		t.Fatal("render incomplete")
	}
}

func TestTable1Overview(t *testing.T) {
	rows := Table1()
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	out := RenderTable1()
	for _, want := range []string{"SNV Calling", "Montage", "HEFT", "data-aware", "astronomy"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestStatsHelpers(t *testing.T) {
	if m, s := stats([]float64{2, 4, 6}); m != 4 || s <= 0 {
		t.Fatalf("stats = %g %g", m, s)
	}
	if m, _ := stats(nil); m != 0 {
		t.Fatal("empty stats")
	}
	if median([]float64{5, 1, 3}) != 3 {
		t.Fatal("odd median")
	}
	if median([]float64{1, 3, 5, 7}) != 4 {
		t.Fatal("even median")
	}
	if median(nil) != 0 {
		t.Fatal("empty median")
	}
	out := table([]string{"a", "bb"}, [][]string{{"1", "2"}})
	if !strings.Contains(out, "a") || !strings.Contains(out, "--") {
		t.Fatalf("table = %q", out)
	}
}
