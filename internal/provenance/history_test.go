package provenance

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

func TestHistoryBoundedWindowAndQuantiles(t *testing.T) {
	h := make(history)
	if _, ok := h.quantile("sig", 0.95); ok {
		t.Fatal("quantile on empty history")
	}
	for _, v := range []float64{10, 20, 30} {
		h.add("sig", v)
	}
	if got, _ := h.quantile("sig", 0.95); got != 30 {
		t.Fatalf("p95 of {10,20,30} = %v", got)
	}
	if got, _ := h.quantile("sig", 0.5); got != 20 {
		t.Fatalf("p50 of {10,20,30} = %v", got)
	}
	if _, ok := h.quantile("other", 0.5); ok {
		t.Fatal("one signature's samples answered for another")
	}
	// Overflow the window: the oldest samples fall out. After 40, 50, …
	// the window is the last historyWindow multiples of ten.
	const extra = 100
	for i := 0; i < historyWindow+extra-3; i++ {
		h.add("sig", float64(40+10*i))
	}
	if n := h["sig"].n; n != historyWindow {
		t.Fatalf("window holds %d samples, want %d", n, historyWindow)
	}
	last := float64(10 * (historyWindow + extra))
	if got, _ := h.quantile("sig", 1); got != last {
		t.Fatalf("max of sliding window = %v, want %v", got, last)
	}
	if got, _ := h.quantile("sig", 0); got != last-10*(historyWindow-1) {
		t.Fatalf("min of sliding window = %v, want %v", got, last-10*(historyWindow-1))
	}
	// Nearest rank: the 243rd of 256 ascending samples.
	p95 := last - 10*(historyWindow-243)
	if got, _ := h.quantile("sig", 0.95); got != p95 {
		t.Fatalf("p95 of sliding window = %v, want %v", got, p95)
	}
	// Cached sorted window survives repeated queries.
	if got, _ := h.quantile("sig", 0.95); got != p95 {
		t.Fatal("cached quantile diverged")
	}
}

// A server builds one Manager per run, and most of its signatures see a
// handful of samples: the ring must cost what it holds, not the window.
func TestDurationRingGrowsWithItsSamples(t *testing.T) {
	h := make(history)
	for _, v := range []float64{10, 20, 30} {
		h.add("sig", v)
	}
	if c := cap(h["sig"].buf); c > 4 {
		t.Fatalf("3 samples hold room for %d, want at most 4", c)
	}
	for i := 0; i < 3*historyWindow; i++ {
		h.add("sig", float64(i))
	}
	if n := len(h["sig"].buf); n != historyWindow {
		t.Fatalf("full ring holds %d samples, want %d", n, historyWindow)
	}
}

// The memo table sits above provenance (core splices what provenance
// recorded); provenance must not reach back up, directly or through
// anything it imports.
func TestProvenanceDoesNotDependOnMemo(t *testing.T) {
	const module = "hiway/"
	seen := make(map[string]bool)
	var walk func(pkg string)
	walk = func(pkg string) {
		if seen[pkg] || !strings.HasPrefix(pkg, module) {
			return
		}
		seen[pkg] = true
		dir := filepath.Join("..", "..", filepath.FromSlash(strings.TrimPrefix(pkg, module)))
		p, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range p.Imports {
			walk(imp)
		}
	}
	walk(module + "internal/provenance")
	if seen[module+"internal/memo"] {
		t.Fatal("hiway/internal/provenance depends on hiway/internal/memo again")
	}
	if !seen[module+"internal/provdb"] {
		t.Fatal("the import walk found no dependency on internal/provdb: it is not seeing this package's imports")
	}
}
