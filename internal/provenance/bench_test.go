package provenance

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hiway/internal/provdb"
)

// montageShaped is two runs of the paper's Montage workflow as the sim-paper
// benchmark records them into one store: per run a workflow-start, a
// task-start and a task-end for each of 3·tiles+6 tasks (mProject, mDiffFit
// and mBackground per tile around the one-off mConcatFit, mBgModel, mImgtbl,
// mAdd, mShrink, mJPEG), and a workflow-end. 481 tiles make 5,800 events.
func montageShaped(tiles int) []Event {
	var evs []Event
	for _, run := range []string{"montage-dax-cold", "montage-dax-warm"} {
		now, id := 0.0, int64(0)
		task := func(sig string, memMB int, inputs, outputs []FileEvent) {
			id++
			now += 0.2517647058823529
			node := fmt.Sprintf("node-%02d", 1+id%11)
			evs = append(evs, Event{
				Type: TaskStart, Timestamp: now,
				WorkflowID: run, WorkflowName: run, TaskID: id, Signature: sig, Command: sig, Node: node,
			})
			exec := 0.27 + 0.09*float64(id%13)
			in, out := 0.0058823529411711*float64(1+id%70), 0.0023529411764684*float64(1+id%170)
			now += in + exec + out
			evs = append(evs, Event{
				Type: TaskEnd, Timestamp: now,
				WorkflowID: run, WorkflowName: run, TaskID: id, Signature: sig, Command: sig, Node: node,
				DurationSec: in + exec + out, StageInSec: in, ExecSec: exec, StageOutSec: out,
				CPUSeconds: exec, Threads: 1, MemMB: memMB, Inputs: inputs, Outputs: outputs,
			})
		}
		file := func(format string, i int, sizeMB float64) FileEvent {
			return FileEvent{Path: fmt.Sprintf(format, i), SizeMB: sizeMB}
		}
		produced := func(f FileEvent) []FileEvent {
			f.Param = "out"
			return []FileEvent{f}
		}
		evs = append(evs, Event{Type: WorkflowStart, WorkflowID: run, WorkflowName: run})
		var fits, corrected []FileEvent
		for i := 0; i < tiles; i++ {
			task("mProject", 1024, []FileEvent{file("raw/tile%02d.fits", i, 18), {Path: "region.hdr", SizeMB: 0.1}},
				produced(file("proj/tile%02d.fits", i, 35)))
		}
		for i := 0; i < tiles; i++ {
			fit := file("diff/fit%02d.txt", i, 0.3)
			fits = append(fits, fit)
			task("mDiffFit", 512, []FileEvent{file("proj/tile%02d.fits", i, 35), file("proj/tile%02d.fits", (i+1)%tiles, 35)},
				produced(fit))
		}
		task("mConcatFit", 512, fits, produced(FileEvent{Path: "fits.tbl", SizeMB: 0.5}))
		task("mBgModel", 1024, []FileEvent{{Path: "fits.tbl", SizeMB: 0.5}}, produced(FileEvent{Path: "corrections.tbl", SizeMB: 0.2}))
		for i := 0; i < tiles; i++ {
			corr := file("corr/tile%02d.fits", i, 35)
			corrected = append(corrected, corr)
			task("mBackground", 1024, []FileEvent{file("proj/tile%02d.fits", i, 35), {Path: "corrections.tbl", SizeMB: 0.2}},
				produced(corr))
		}
		task("mImgtbl", 512, corrected, produced(FileEvent{Path: "images.tbl", SizeMB: 0.1}))
		task("mAdd", 2048, append([]FileEvent{{Path: "images.tbl", SizeMB: 0.1}}, corrected...),
			produced(FileEvent{Path: "mosaic.fits", SizeMB: 160}))
		task("mShrink", 1024, []FileEvent{{Path: "mosaic.fits", SizeMB: 160}}, produced(FileEvent{Path: "mosaic_small.fits", SizeMB: 12}))
		task("mJPEG", 512, []FileEvent{{Path: "mosaic_small.fits", SizeMB: 12}}, produced(FileEvent{Path: "mosaic.jpg", SizeMB: 2}))
		evs = append(evs, Event{Type: WorkflowEnd, Timestamp: now, WorkflowID: run, WorkflowName: run,
			DurationSec: now, Succeeded: true})
	}
	return evs
}

// BenchmarkDBStore times the four things the sim-paper benchmark does with
// its provdb-backed store of 5,800 events, per event: appending them in the
// Manager's batches of 128, decoding them all (Events), loading them into a
// new Manager's indexes, and answering the shallow lineage query.
func BenchmarkDBStore(b *testing.B) {
	evs := montageShaped(481)
	if len(evs) != 5800 {
		b.Fatalf("%d events", len(evs))
	}
	fill := func(b *testing.B, path string) *DBStore {
		db, err := provdb.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		st := NewDBStore(db)
		for at := 0; at < len(evs); at += flushEvery {
			if err := st.AppendBatch(evs[at:min(at+flushEvery, len(evs))]); err != nil {
				b.Fatal(err)
			}
		}
		return st
	}
	perEvent := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(evs)), "ns/event")
	}
	b.Run("append", func(b *testing.B) {
		path := filepath.Join(b.TempDir(), "montage.provdb")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st := fill(b, path)
			b.StopTimer()
			st.Close()
			if fi, err := os.Stat(path); err != nil {
				b.Fatal(err)
			} else if i == 0 {
				b.ReportMetric(float64(fi.Size())/float64(len(evs)), "B/event")
			}
			os.Remove(path)
			b.StartTimer()
		}
		perEvent(b)
	})
	st := fill(b, filepath.Join(b.TempDir(), "montage.provdb"))
	defer st.Close()
	b.Run("events", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got, err := st.Events(); err != nil || len(got) != len(evs) {
				b.Fatal(len(got), err)
			}
		}
		perEvent(b)
	})
	b.Run("load", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, err := NewManager(st)
			if tasks, _ := m.Counts(); err != nil || tasks != int64(len(evs)/2-2) {
				b.Fatal(tasks, err)
			}
		}
		perEvent(b)
	})
	b.Run("query", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, err := RunQuery(st, Query{Op: OpLineage, Path: "corrections.tbl"})
			if err != nil || !strings.Contains(out, " <- mBgModel task 964 @ montage-dax-warm") {
				b.Fatal(out, err)
			}
		}
		perEvent(b)
	})
}

// BenchmarkMemStore times the in-memory store on the same 5,800 events, per
// event: appending them in the Manager's batches of 128 (append), and one
// pass of scanEvents over them in place (scan), what every reader of a
// MemStore does.
func BenchmarkMemStore(b *testing.B) {
	evs := montageShaped(481)
	fill := func() *MemStore {
		st := NewMemStore()
		for at := 0; at < len(evs); at += flushEvery {
			if err := st.AppendBatch(evs[at:min(at+flushEvery, len(evs))]); err != nil {
				b.Fatal(err)
			}
		}
		return st
	}
	perEvent := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(evs)), "ns/event")
	}
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if st := fill(); st.Len() != len(evs) {
				b.Fatal(st.Len())
			}
		}
		perEvent(b)
	})
	st := fill()
	b.Run("scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			if err := scanEvents(st, func(ev *Event) { n++ }); err != nil || n != len(evs) {
				b.Fatal(n, err)
			}
		}
		perEvent(b)
	})
}
