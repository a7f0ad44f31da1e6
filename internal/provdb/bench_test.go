package provdb

import (
	"path/filepath"
	"testing"
)

// fillBench writes n records of 228 bytes, a provenance event's size, in
// commits of 512.
func fillBench(b *testing.B, db *DB, n int) {
	b.Helper()
	data := make([]byte, 512*228)
	ends := make([]int, 512)
	for i := range ends {
		ends[i] = (i + 1) * 228
	}
	for ; n > 0; n -= len(ends) {
		if n < len(ends) {
			ends = ends[:n]
		}
		if err := db.Append(data, ends); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppend(b *testing.B) {
	db, err := Open(filepath.Join(b.TempDir(), "bench.db"))
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	b.ResetTimer()
	fillBench(b, db, b.N)
}

func BenchmarkScan(b *testing.B) {
	db, err := Open(filepath.Join(b.TempDir(), "bench.db"))
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	fillBench(b, db, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bytes := 0
		db.Scan(func(_ int, rec []byte) bool {
			bytes += len(rec)
			return true
		})
		if bytes != 5000*228 {
			b.Fatalf("scanned %d bytes", bytes)
		}
	}
}

func BenchmarkReplay(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.db")
	db, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	fillBench(b, db, 5000)
	db.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := Open(path)
		if err != nil {
			b.Fatal(err)
		}
		db.Close()
	}
}
