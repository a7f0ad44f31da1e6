// Package hiway's top-level benchmarks regenerate each table and figure of
// the paper's evaluation (§4). One benchmark iteration executes the whole
// experiment at reduced repetition counts; run `hiway paper` for the
// full-size versions and the rendered tables.
package hiway_test

import (
	"os"
	"testing"

	"hiway/internal/experiments"
)

// BenchmarkTable1 renders the experiment overview (trivially cheap; kept so
// every table has a bench target).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.RenderTable1(); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig4 regenerates Fig. 4: SNV calling, Hi-WAY vs Tez, 72–576
// containers on the 24-node cluster.
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4(experiments.Fig4Options{Runs: 1})
		if err != nil {
			b.Fatal(err)
		}
		last := res.Points[len(res.Points)-1]
		b.ReportMetric(last.HiWayMin, "hiway-576c-min")
		b.ReportMetric(last.TezMin, "tez-576c-min")
	}
}

// BenchmarkTable2Fig5 regenerates Table 2 / Fig. 5: weak scaling from 1 to
// 128 workers with the data volume doubling alongside.
func BenchmarkTable2Fig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(experiments.Table2Options{Runs: 1})
		if err != nil {
			b.Fatal(err)
		}
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(last.AvgMin, "runtime-128w-min")
		b.ReportMetric(last.CostPerGB, "cost-per-GB-usd")
	}
}

// BenchmarkFig6 regenerates Fig. 6: master/worker resource utilization
// while scaling out.
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(experiments.Table2Options{Runs: 1, Workers: []int{1, 16, 128}})
		if err != nil {
			b.Fatal(err)
		}
		last := res.Rows[len(res.Rows)-1].Util
		b.ReportMetric(last.HadoopCPULoad, "hadoop-cpu-load")
		b.ReportMetric(last.WorkerCPULoad, "worker-cpu-load")
	}
}

// BenchmarkFig8 regenerates Fig. 8: TRAPLINE on Hi-WAY vs Galaxy CloudMan,
// clusters of 1–6 c3.2xlarge nodes.
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8(experiments.Fig8Options{Runs: 2})
		if err != nil {
			b.Fatal(err)
		}
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(last.HiWayMin, "hiway-6n-min")
		b.ReportMetric(last.CloudManMin, "cloudman-6n-min")
	}
}

// BenchmarkFig9 regenerates Fig. 9: Montage under HEFT with growing
// provenance vs the FCFS baseline on the heterogeneous cluster.
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9(experiments.Fig9Options{Reps: 6})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.FCFSMedianSec, "fcfs-median-s")
		b.ReportMetric(res.Points[0].MedianSec, "heft-0prior-s")
		b.ReportMetric(res.Points[len(res.Points)-1].MedianSec, "heft-converged-s")
	}
}

// BenchmarkScale runs the scale-out harness — synthetic layered workflows
// of up to ~10k tasks on clusters of up to 256 nodes (set HIWAY_SCALE_FULL=1
// for the full ladder) — and writes the measurements to BENCH_scale.json.
// It measures the simulator itself: events/sec and allocations are the
// kernel's own hot-path cost, not modeled hardware time.
func BenchmarkScale(b *testing.B) {
	full := os.Getenv("HIWAY_SCALE_FULL") != ""
	for i := 0; i < b.N; i++ {
		res, err := experiments.ScaleSweep(experiments.ScaleSweepConfigs(full))
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile("BENCH_scale.json", res.JSON(), 0o644); err != nil {
			b.Fatal(err)
		}
		last := res.Points[len(res.Points)-1]
		b.ReportMetric(last.EventsPerSec, "events/s")
		b.ReportMetric(last.WallSec, "wall-s")
	}
}

// BenchmarkServiceLoad runs the multi-tenant service tier up the arrival-rate
// ladder — light load through saturation into overload (set
// HIWAY_SCALE_FULL=1 for the overload rungs) — first memo-off, then the same
// rungs again with the cluster-wide memo table on, and writes the
// measurements to BENCH_service.json. The figures of merit are goodput
// (which must plateau, not collapse, at overload), p99 queue wait (which
// admission backpressure must keep bounded), and the goodput lift the memo
// rungs earn from splicing repeated pipelines.
func BenchmarkServiceLoad(b *testing.B) {
	full := os.Getenv("HIWAY_SCALE_FULL") != ""
	for i := 0; i < b.N; i++ {
		cfgs := experiments.ServiceSweepConfigs(full)
		for _, c := range experiments.ServiceSweepConfigs(full) {
			// The memo-on rungs differ from their memo-off pair only in the Memo bit.
			c.Memo = true
			cfgs = append(cfgs, c)
		}
		res, err := experiments.ServiceSweep(cfgs)
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile("BENCH_service.json", res.JSON(), 0o644); err != nil {
			b.Fatal(err)
		}
		last := res.Points[len(res.Points)-1]
		b.ReportMetric(last.GoodputPerHour, "goodput/h")
		b.ReportMetric(last.QueueWaitP99Sec, "p99-wait-s")
		b.ReportMetric(last.RejectionRate, "rej-rate")
	}
}

// BenchmarkElastic runs the elastic ladder — static over-provisioning vs.
// reactive and predictive autoscaling, each with and without 30% spot-reclaim
// chaos (set HIWAY_SCALE_FULL=1 for the full arrival window) — and writes the
// measurements to BENCH_elastic.json. The figures of merit are goodput
// retained under preemption chaos and cost units spent earning it: the
// elastic policies must hold goodput near their chaos-free baseline while
// billing well under the static fleet.
func BenchmarkElastic(b *testing.B) {
	full := os.Getenv("HIWAY_SCALE_FULL") != ""
	for i := 0; i < b.N; i++ {
		res, err := experiments.ElasticSweep(experiments.ElasticSweepConfigs(full))
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile("BENCH_elastic.json", res.JSON(), 0o644); err != nil {
			b.Fatal(err)
		}
		last := res.Points[len(res.Points)-1]
		b.ReportMetric(last.GoodputPerHour, "goodput/h")
		b.ReportMetric(last.CostUnits, "cost-units")
		b.ReportMetric(float64(last.Preempted), "preempted")
	}
}
