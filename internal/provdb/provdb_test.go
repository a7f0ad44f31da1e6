package provdb

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func openTemp(t *testing.T) (*DB, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prov.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return db, path
}

func TestPutGetDelete(t *testing.T) {
	db, _ := openTemp(t)
	defer db.Close()
	if _, ok := db.Get("k"); ok {
		t.Fatal("missing key should not be found")
	}
	if err := db.Put("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if v, ok := db.Get("k"); !ok || string(v) != "v1" {
		t.Fatalf("got %q %v", v, ok)
	}
	if err := db.Put("k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if v, _ := db.Get("k"); string(v) != "v2" {
		t.Fatalf("overwrite lost: %q", v)
	}
	if err := db.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.Get("k"); ok {
		t.Fatal("deleted key still present")
	}
	if err := db.Delete("k"); err != nil {
		t.Fatal("deleting a missing key must be a no-op")
	}
	if db.Len() != 0 {
		t.Fatalf("len = %d", db.Len())
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	db, _ := openTemp(t)
	defer db.Close()
	if err := db.Put("", []byte("x")); err == nil {
		t.Fatal("empty key accepted")
	}
}

func TestGetReturnsCopy(t *testing.T) {
	db, _ := openTemp(t)
	defer db.Close()
	db.Put("k", []byte("orig"))
	v, _ := db.Get("k")
	v[0] = 'X'
	v2, _ := db.Get("k")
	if string(v2) != "orig" {
		t.Fatal("Get must return a copy")
	}
	// Mutating the caller's slice after Put must not affect the store.
	val := []byte("abc")
	db.Put("m", val)
	val[0] = 'Z'
	got, _ := db.Get("m")
	if string(got) != "abc" {
		t.Fatal("Put must copy the value")
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	db, path := openTemp(t)
	for i := 0; i < 100; i++ {
		db.Put(fmt.Sprintf("key-%03d", i), []byte(fmt.Sprintf("val-%d", i)))
	}
	db.Delete("key-050")
	db.Put("key-051", []byte("overwritten"))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Len() != 99 {
		t.Fatalf("len after reopen = %d, want 99", db2.Len())
	}
	if _, ok := db2.Get("key-050"); ok {
		t.Fatal("delete not persisted")
	}
	if v, _ := db2.Get("key-051"); string(v) != "overwritten" {
		t.Fatalf("overwrite not persisted: %q", v)
	}
}

func TestTornTailRecovery(t *testing.T) {
	db, path := openTemp(t)
	db.Put("a", []byte("1"))
	db.Put("b", []byte("2"))
	db.Close()
	// Simulate a crash mid-write: append garbage that looks like a
	// partial record.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xFF, 0x01, 0x02}) // torn header
	f.Close()
	db2, err := Open(path)
	if err != nil {
		t.Fatalf("torn tail must be recoverable: %v", err)
	}
	defer db2.Close()
	if db2.Len() != 2 {
		t.Fatalf("len = %d, want 2", db2.Len())
	}
	// The torn bytes were truncated: further writes then reopen work.
	db2.Put("c", []byte("3"))
	db2.Close()
	db3, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if v, ok := db3.Get("c"); !ok || string(v) != "3" {
		t.Fatalf("write after recovery lost: %q %v", v, ok)
	}
}

func TestCorruptPayloadStopsReplay(t *testing.T) {
	db, path := openTemp(t)
	db.Put("a", []byte("1"))
	db.Put("b", []byte("2"))
	db.Close()
	// Flip a byte inside the second record's payload.
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xFF
	os.WriteFile(path, data, 0o644)
	db2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, ok := db2.Get("a"); !ok {
		t.Fatal("first record should survive")
	}
	if _, ok := db2.Get("b"); ok {
		t.Fatal("corrupt record should be dropped")
	}
}

// rangeAll collects what Range visits, copying the values it is only lent.
func rangeAll(db *DB) (keys, values []string) {
	db.Range(func(k string, v []byte) bool {
		keys = append(keys, k)
		values = append(values, string(v))
		return true
	})
	return keys, values
}

func TestKeysSortedAndRange(t *testing.T) {
	db, _ := openTemp(t)
	defer db.Close()
	for _, k := range []string{"zeta", "alpha", "mid"} {
		db.Put(k, []byte(k))
	}
	keys, values := rangeAll(db)
	if want := []string{"alpha", "mid", "zeta"}; fmt.Sprint(keys) != fmt.Sprint(want) || fmt.Sprint(values) != fmt.Sprint(want) {
		t.Fatalf("range visited %v = %v", keys, values)
	}
	var visited []string
	db.Range(func(k string, v []byte) bool {
		visited = append(visited, k)
		return k != "mid" // stop after mid
	})
	if len(visited) != 2 || visited[1] != "mid" {
		t.Fatalf("range visited %v", visited)
	}
}

// A log written in key order, which is how DBStore writes, keeps its key
// list sorted as it goes; anything else re-sorts at the next Range.
func TestRangeResortsOnlyWhenTheKeySetWentOutOfOrder(t *testing.T) {
	db, _ := openTemp(t)
	defer db.Close()
	db.PutBatch([]string{"a", "b"}, [][]byte{[]byte("1"), []byte("2")})
	db.Put("c", []byte("3"))
	db.Put("b", []byte("2'")) // an overwrite changes no key
	if db.keysStale {
		t.Fatal("in-order puts and an overwrite marked the key list stale")
	}
	db.Put("aa", nil)
	if !db.keysStale {
		t.Fatal("an out-of-order put left the key list trusted")
	}
	if keys, _ := rangeAll(db); fmt.Sprint(keys) != "[a aa b c]" || db.keysStale {
		t.Fatalf("range visited %v, stale %v", keys, db.keysStale)
	}
	db.Delete("b")
	if keys, values := rangeAll(db); fmt.Sprint(keys) != "[a aa c]" || fmt.Sprint(values) != "[1  3]" {
		t.Fatalf("after delete: %v = %v", keys, values)
	}
}

func TestPutBatchValidatesBeforeWriting(t *testing.T) {
	db, path := openTemp(t)
	defer db.Close()
	if err := db.PutBatch([]string{"a"}, nil); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	if err := db.PutBatch([]string{"a", ""}, [][]byte{nil, nil}); err == nil {
		t.Fatal("empty key accepted")
	}
	// A record replay would refuse must not get into the log.
	if err := db.Put("big", make([]byte, maxRecordLen)); err == nil {
		t.Fatal("oversized record accepted")
	}
	if fi, _ := os.Stat(path); fi.Size() != 0 || db.Len() != 0 {
		t.Fatalf("refused batches left %d bytes, %d keys", fi.Size(), db.Len())
	}
}

// A bad record with log behind it is damage, not a torn tail: Open reports
// it and leaves the file alone. The same damage in the last record is
// indistinguishable from a crash mid-write and is truncated.
func TestMidLogCorruptionIsReportedNotTruncated(t *testing.T) {
	db, path := openTemp(t)
	var ends []int64
	for i := 0; i < 5; i++ {
		db.Put(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("value-%d", i)))
		ends = append(ends, db.logBytes)
	}
	db.Close()
	clean, _ := os.ReadFile(path)

	damaged := append([]byte(nil), clean...)
	damaged[ends[0]+headerLen+7] ^= 0x01 // inside record 2's payload
	os.WriteFile(path, damaged, 0o644)
	_, err := Open(path)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open = %v, want ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("offset %d ", ends[0])) {
		t.Fatalf("error does not name offset %d: %v", ends[0], err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, damaged) {
		t.Fatalf("Open changed a corrupt log: %d → %d bytes", len(damaged), len(after))
	}

	damaged = append([]byte(nil), clean...)
	damaged[ends[3]+headerLen+7] ^= 0x01 // inside the last record's payload
	os.WriteFile(path, damaged, 0o644)
	db2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Len() != 4 {
		t.Fatalf("len = %d, want the 4 records before the torn one", db2.Len())
	}
	if fi, _ := os.Stat(path); fi.Size() != ends[3] {
		t.Fatalf("log is %d bytes, want it cut to %d", fi.Size(), ends[3])
	}
}

func TestRangeAgainstConcurrentBatchCommits(t *testing.T) {
	db, _ := openTemp(t)
	defer db.Close()
	const batches, per = 50, 16
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := 0; b < batches; b++ {
			keys := make([]string, per)
			vals := make([][]byte, per)
			for i := range keys {
				keys[i] = fmt.Sprintf("k%06d", b*per+i)
				vals[i] = []byte(keys[i])
			}
			if err := db.PutBatch(keys, vals); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Every walk sees whole batches, in order, each key with its own value.
	for seen := 0; seen < batches*per; {
		seen = 0
		last := ""
		db.Range(func(k string, v []byte) bool {
			if k <= last || string(v) != k {
				t.Errorf("after %q: key %q = %q", last, k, v)
			}
			last = k
			seen++
			return true
		})
		if seen%per != 0 {
			t.Fatalf("a walk saw %d keys: part of a batch", seen)
		}
	}
	wg.Wait()
}

func TestCompactShrinksLogAndPreservesData(t *testing.T) {
	db, path := openTemp(t)
	for i := 0; i < 50; i++ {
		for j := 0; j < 10; j++ {
			db.Put(fmt.Sprintf("k%02d", i), bytes.Repeat([]byte{'x'}, 100))
		}
	}
	for i := 25; i < 50; i++ {
		db.Delete(fmt.Sprintf("k%02d", i))
	}
	before, _ := os.Stat(path)
	if db.GarbageRatio() < 0.5 {
		t.Fatalf("garbage ratio = %g, expected substantial garbage", db.GarbageRatio())
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	after, _ := os.Stat(path)
	if after.Size() >= before.Size() {
		t.Fatalf("compaction did not shrink: %d -> %d", before.Size(), after.Size())
	}
	if db.Len() != 25 {
		t.Fatalf("len after compact = %d", db.Len())
	}
	// Writes after compaction persist.
	db.Put("post", []byte("compaction"))
	db.Close()
	db2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Len() != 26 {
		t.Fatalf("reopen after compact: len = %d", db2.Len())
	}
	if v, _ := db2.Get("k00"); len(v) != 100 {
		t.Fatalf("value lost: %d bytes", len(v))
	}
}

func TestClosedDBErrors(t *testing.T) {
	db, _ := openTemp(t)
	db.Close()
	if err := db.Put("k", nil); err == nil {
		t.Fatal("Put on closed DB must fail")
	}
	if err := db.Compact(); err == nil {
		t.Fatal("Compact on closed DB must fail")
	}
	if err := db.Sync(); err == nil {
		t.Fatal("Sync on closed DB must fail")
	}
	if err := db.Close(); err != nil {
		t.Fatal("double Close must be a no-op")
	}
}

// Property: the database agrees with a plain map under a random operation
// sequence — single puts in and out of key order, overwrites, deletes, batch
// commits, compaction — and Range walks it in the sorted model's order, both
// live and after a reopen.
func TestModelEquivalenceProperty(t *testing.T) {
	agrees := func(db *DB, model map[string]string) bool {
		want := make([]string, 0, len(model))
		for k := range model {
			want = append(want, k)
		}
		sort.Strings(want)
		keys, values := rangeAll(db)
		if db.Len() != len(model) || len(keys) != len(want) {
			return false
		}
		for i, k := range want {
			got, ok := db.Get(k)
			if keys[i] != k || values[i] != model[k] || !ok || string(got) != model[k] {
				return false
			}
		}
		return true
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dir, err := os.MkdirTemp("", "provdb")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		path := filepath.Join(dir, "db")
		db, err := Open(path)
		if err != nil {
			return false
		}
		model := map[string]string{}
		next := 0 // ascending keys, the way DBStore writes
		key := func() string {
			if rng.Intn(3) == 0 {
				next++
				return fmt.Sprintf("n%04d", next)
			}
			return string(rune('a' + rng.Intn(8)))
		}
		for i := 0; i < 200; i++ {
			switch rng.Intn(8) {
			case 0, 1, 2:
				k, v := key(), fmt.Sprintf("v%d", rng.Intn(1000))
				if db.Put(k, []byte(v)) != nil {
					return false
				}
				model[k] = v
			case 3, 4:
				var keys []string
				var vals [][]byte
				for j := rng.Intn(5); j >= 0; j-- {
					k, v := key(), fmt.Sprintf("b%d", rng.Intn(1000))
					keys, vals = append(keys, k), append(vals, []byte(v))
					model[k] = v // a key repeated within a batch: the later wins
				}
				if db.PutBatch(keys, vals) != nil {
					return false
				}
			case 5, 6:
				k := key()
				if db.Delete(k) != nil {
					return false
				}
				delete(model, k)
			case 7:
				if rng.Intn(4) == 0 && db.Compact() != nil {
					return false
				}
				if !agrees(db, model) {
					return false
				}
			}
		}
		if !agrees(db, model) {
			return false
		}
		db.Close()
		db2, err := Open(path)
		if err != nil {
			return false
		}
		defer db2.Close()
		return agrees(db2, model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	db, _ := openTemp(t)
	defer db.Close()
	const goroutines = 8
	const opsEach = 300
	done := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		go func() {
			for i := 0; i < opsEach; i++ {
				key := fmt.Sprintf("g%d-k%d", g, i%20)
				switch i % 4 {
				case 0, 1:
					if err := db.Put(key, []byte(fmt.Sprintf("v%d", i))); err != nil {
						done <- err
						return
					}
				case 2:
					db.Get(key)
				case 3:
					if err := db.Delete(key); err != nil {
						done <- err
						return
					}
				}
			}
			done <- nil
		}()
	}
	// Compact concurrently with the writers.
	go func() { done <- db.Compact() }()
	for i := 0; i < goroutines+1; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// The log replays cleanly afterwards.
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
}
