package dax_test

import (
	"reflect"
	"testing"

	"hiway/internal/lang/dax"
	"hiway/internal/workloads"
)

// TestReaderMatchesReference reads the documents the repository runs with
// both the reader and the encoding/xml reference: the unit tests' sample
// and the generated Montage DAX at Fig. 9's 0.25° and at the benchmark's
// 3.0°.
func TestReaderMatchesReference(t *testing.T) {
	cases := []struct {
		name, src string
		jobs      int
	}{
		{"sample", dax.SampleDAX, 3},
		{"montage-0.25deg", workloads.MontageDAX(workloads.MontageConfig{Degree: 0.25}), 3*11 + 6},
		{"montage-3deg", workloads.MontageDAX(workloads.MontageConfig{Degree: 3, RuntimeScale: 0.09}), 3*481 + 6},
	}
	for _, c := range cases {
		got, err := dax.ReadDoc(c.src)
		if err != nil {
			t.Fatalf("%s: reader: %v", c.name, err)
		}
		want, err := dax.ReferenceDoc(c.src)
		if err != nil {
			t.Fatalf("%s: reference: %v", c.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the reader's document differs from the reference's\n got %+v\nwant %+v", c.name, got, want)
		}
		if len(got.Jobs) != c.jobs {
			t.Errorf("%s: %d jobs, want %d", c.name, len(got.Jobs), c.jobs)
		}
	}
}

// BenchmarkReadMontage reads sim-paper's Montage document (3.0°, ~425 KB)
// with the reader and with the encoding/xml reference.
func BenchmarkReadMontage(b *testing.B) {
	src := workloads.MontageDAX(workloads.MontageConfig{Degree: 3})
	for _, r := range []struct {
		name string
		read func(string) (*dax.Doc, error)
	}{{"reader", dax.ReadDoc}, {"reference", dax.ReferenceDoc}} {
		b.Run(r.name, func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := r.read(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
