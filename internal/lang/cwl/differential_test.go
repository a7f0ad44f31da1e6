package cwl_test

import (
	"fmt"
	"os"
	"testing"

	"hiway/internal/lang/cwl"
	"hiway/internal/verify"
	"hiway/internal/workloads"
)

// simPaperSNV is the SNV document of the benchmark's sim-paper CWL leg:
// 48 samples × 24 read files × 16 call regions, ~204 KB.
func simPaperSNV() string {
	src, _ := workloads.SNVCWL(workloads.SNVConfig{
		Samples: 48, FilesPerSample: 24, FileSizeMB: 340, CallSplitRegions: 16,
		AlignCPUSeconds: 600, SortCPUSeconds: 400, CallCPUSeconds: 800, AnnotateCPUSeconds: 600,
		RefLocal: true,
	})
	return src
}

// TestDecodeMatchesReference decodes every CWL document the repository
// runs or tests with both decoders (see cwl.CompareDecoders): the unit
// tests' samples, examples/snv.cwl, sim-paper's SNV document, the benchmark
// serve pool's CWL specs, and verify's portability renderings.
func TestDecodeMatchesReference(t *testing.T) {
	type doc struct {
		name, src string
		accept    bool // the document must build
	}
	var docs []doc
	for i, src := range cwl.Samples() {
		docs = append(docs, doc{fmt.Sprintf("sample %d", i), src, false})
	}
	example, err := os.ReadFile("../../../examples/snv.cwl")
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, doc{"examples/snv.cwl", string(example), true}, doc{"sim-paper", simPaperSNV(), true})
	for i := 0; i < 15; i++ {
		src, _ := workloads.SNVCWL(workloads.SNVConfig{
			Samples: 1 + i%3, FilesPerSample: 2, FileSizeMB: 48 + 8*float64(i/3), CallSplitRegions: 2, RefLocal: true,
			AlignCPUSeconds: 40, SortCPUSeconds: 40, CallCPUSeconds: 40, AnnotateCPUSeconds: 40,
		})
		docs = append(docs, doc{fmt.Sprintf("serve spec %d", i), src, true})
	}
	renderings := 0
	for seed := int64(1); seed <= 200; seed++ {
		if src, err := verify.RenderCWL(verify.Generate(seed)); err == nil {
			docs = append(docs, doc{fmt.Sprintf("portability seed %d", seed), src, true})
			renderings++
		}
	}
	if renderings < 100 {
		t.Fatalf("only %d of 200 seeds render as CWL", renderings)
	}
	for _, d := range docs {
		if err := cwl.CompareDecoders(d.name, d.src); err != nil {
			t.Errorf("%s: %v", d.name, err)
		}
		if _, _, _, err := cwl.Build(d.name, d.src, cwl.Options{}); d.accept && err != nil {
			t.Errorf("%s: %v", d.name, err)
		}
	}
}

// BenchmarkParseSNV decodes sim-paper's SNV document with the decoder
// ("new") and with its reference, up to the document both fill, and builds
// it whole ("build": decode plus compile).
func BenchmarkParseSNV(b *testing.B) {
	src := simPaperSNV()
	for _, r := range []struct {
		name string
		run  func(name, src string) error
	}{
		{"new", cwl.DecodeErr},
		{"reference", cwl.ReferenceDecode},
		{"build", func(name, src string) error { _, _, _, err := cwl.Build(name, src, cwl.Options{}); return err }},
	} {
		b.Run(r.name, func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := r.run("snv-cwl", src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
