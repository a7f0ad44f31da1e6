package provdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func openTemp(t *testing.T) (*DB, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prov.db")
	return reopen(t, path), path
}

// pack lays records back to back, the way Append takes them.
func pack(recs [][]byte) (data []byte, ends []int) {
	for _, r := range recs {
		data = append(data, r...)
		ends = append(ends, len(data))
	}
	return data, ends
}

// appendStrings appends recs as one batch.
func appendStrings(db *DB, recs ...string) error {
	batch := make([][]byte, len(recs))
	for i, r := range recs {
		batch[i] = []byte(r)
	}
	return db.Append(pack(batch))
}

// scanAll collects what Scan visits, copying the records it is only lent, and
// checks the positions it is given.
func scanAll(t *testing.T, db *DB) [][]byte {
	t.Helper()
	var recs [][]byte
	db.Scan(func(i int, rec []byte) bool {
		if i != len(recs) {
			t.Fatalf("record %d came with position %d", len(recs), i)
		}
		recs = append(recs, append([]byte(nil), rec...))
		return true
	})
	return recs
}

// differs says how what db holds — by Len and by a full Scan — is not exactly
// want, in order; "" when it is.
func differs(t *testing.T, db *DB, want [][]byte) string {
	t.Helper()
	got := scanAll(t, db)
	if db.Len() != len(want) || len(got) != len(want) {
		return fmt.Sprintf("Len %d, scan of %d records; want %d", db.Len(), len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			return fmt.Sprintf("record %d is %q, want %q", i, got[i], want[i])
		}
	}
	return ""
}

// wantRecords fails unless db holds exactly want, in order.
func wantRecords(t *testing.T, db *DB, want ...string) {
	t.Helper()
	recs := make([][]byte, len(want))
	for i, r := range want {
		recs[i] = []byte(r)
	}
	if diff := differs(t, db, recs); diff != "" {
		t.Fatal(diff)
	}
}

func reopen(t *testing.T, path string) *DB {
	t.Helper()
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestPersistenceAcrossReopen(t *testing.T) {
	db, path := openTemp(t)
	var want []string
	for i := 0; i < 100; i++ {
		want = append(want, fmt.Sprintf("rec-%03d", i))
		if err := appendStrings(db, want[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Records repeat, are empty, and come in batches: the log keeps them all.
	more := []string{"rec-050", "", "x", ""}
	if err := appendStrings(db, more...); err != nil {
		t.Fatal(err)
	}
	want = append(want, more...)
	wantRecords(t, db, want...)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := reopen(t, path)
	defer db2.Close()
	wantRecords(t, db2, want...)
	// Scan stops when told to.
	visited := 0
	db2.Scan(func(i int, _ []byte) bool {
		visited++
		return i < 2
	})
	if visited != 3 {
		t.Fatalf("a scan told to stop at position 2 visited %d records", visited)
	}
}

func TestTornTailRecovery(t *testing.T) {
	db, path := openTemp(t)
	appendStrings(db, "1")
	appendStrings(db, "2")
	db.Close()
	// Simulate a crash mid-write: append garbage that looks like a
	// partial record.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xFF, 0x01, 0x02}) // torn frame
	f.Close()
	torn, _ := os.ReadFile(path)
	db2, err := Open(path)
	if err != nil {
		t.Fatalf("torn tail must be recoverable: %v", err)
	}
	wantRecords(t, db2, "1", "2")
	// Reading is not a reason to write: the torn bytes stay until an append.
	if after, _ := os.ReadFile(path); !bytes.Equal(after, torn) {
		t.Fatalf("Open changed the file: %d → %d bytes", len(torn), len(after))
	}
	if err := appendStrings(db2, "3"); err != nil {
		t.Fatal(err)
	}
	db2.Close()
	if fi, _ := os.Stat(path); fi.Size() != int64(len(header)+3*(frameLen+1)) {
		t.Fatalf("log is %d bytes after the append: the torn tail was not cut", fi.Size())
	}
	db3 := reopen(t, path)
	defer db3.Close()
	wantRecords(t, db3, "1", "2", "3")
}

func TestCorruptPayloadStopsReplay(t *testing.T) {
	db, path := openTemp(t)
	appendStrings(db, "first")
	appendStrings(db, "second")
	db.Close()
	// Flip a byte inside the second record.
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xFF
	os.WriteFile(path, data, 0o644)
	db2 := reopen(t, path)
	defer db2.Close()
	wantRecords(t, db2, "first")
}

func TestAppendValidatesBeforeWriting(t *testing.T) {
	db, path := openTemp(t)
	defer db.Close()
	// A record replay would refuse must not get into the log, nor may the
	// records around it. Sizes are checked before data is looked at, which
	// spares the test 64 MB.
	err := db.Append([]byte("ok"), []int{2, 2 + maxRecordLen + 1})
	if err == nil || !strings.Contains(err.Error(), "record 1 ") {
		t.Fatalf("oversized record: %v, want it refused by position", err)
	}
	if fi, _ := os.Stat(path); fi.Size() != 0 || db.Len() != 0 {
		t.Fatalf("a refused batch left %d bytes, %d records", fi.Size(), db.Len())
	}
	// An empty batch writes nothing, not even the header.
	if err := db.Append(nil, nil); err != nil {
		t.Fatal(err)
	}
	if fi, _ := os.Stat(path); fi.Size() != 0 {
		t.Fatalf("an empty batch wrote %d bytes", fi.Size())
	}
}

// A bad record with log behind it is damage, not a torn tail: Open reports
// it and leaves the file alone. The same damage in the last record is
// indistinguishable from a crash mid-write: the log ends before it, and the
// next append cuts it off.
func TestMidLogCorruptionIsReportedNotTruncated(t *testing.T) {
	db, path := openTemp(t)
	var ends []int64
	for i := 0; i < 5; i++ {
		appendStrings(db, fmt.Sprintf("value-%d", i))
		ends = append(ends, db.size)
	}
	db.Close()
	clean, _ := os.ReadFile(path)

	damaged := append([]byte(nil), clean...)
	damaged[ends[0]+frameLen+3] ^= 0x01 // inside record 1
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
	damaged[ends[3]+frameLen+3] ^= 0x01 // inside the last record
	os.WriteFile(path, damaged, 0o644)
	db2 := reopen(t, path)
	defer db2.Close()
	wantRecords(t, db2, "value-0", "value-1", "value-2", "value-3")
	if after, _ := os.ReadFile(path); !bytes.Equal(after, damaged) {
		t.Fatalf("Open changed a log with a torn tail: %d → %d bytes", len(damaged), len(after))
	}
	if err := appendStrings(db2, "after"); err != nil {
		t.Fatal(err)
	}
	if fi, _ := os.Stat(path); fi.Size() != ends[3]+frameLen+int64(len("after")) {
		t.Fatalf("log is %d bytes, want the append to start at %d", fi.Size(), ends[3])
	}
}

// logOf is the file a log of recs is, built by hand.
func logOf(recs ...string) []byte {
	log := []byte(header)
	for _, r := range recs {
		log = binary.LittleEndian.AppendUint32(log, uint32(len(r)))
		log = binary.LittleEndian.AppendUint32(log, crc32.ChecksumIEEE([]byte(r)))
		log = append(log, r...)
	}
	return log
}

// keyedLog is a log in the format provdb had while it was a key-value store:
// no header, and in each frame an op byte, a key length and a key before the
// value.
func keyedLog(kv ...string) []byte {
	var log []byte
	for i := 0; i < len(kv); i += 2 {
		payload := []byte{1}
		payload = binary.LittleEndian.AppendUint32(payload, uint32(len(kv[i])))
		payload = append(append(payload, kv[i]...), kv[i+1]...)
		log = binary.LittleEndian.AppendUint32(log, uint32(len(payload)))
		log = binary.LittleEndian.AppendUint32(log, crc32.ChecksumIEEE(payload))
		log = append(log, payload...)
	}
	return log
}

// Open decides what a file is before anything may write to it. What is not a
// log is refused by name and left byte for byte as it was; what a crashed
// first commit can leave — nothing, or the start of a header — is an empty
// log, and still untouched until something is appended.
func TestOpenRefusesWhatIsNotALog(t *testing.T) {
	blob := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(blob)
	refused := map[string][]byte{
		"jsonl":        []byte(`{"id":"e1","type":"workflow-start","workflow_id":"w"}` + "\n"),
		"blob":         blob,
		"keyed":        keyedLog("ev00000000000000000001", "one", "ev00000000000000000002", "two"),
		"other magic":  []byte("provdc\x00\x01"),
		"next version": []byte("provdb\x00\x02"),
		"short":        []byte("pro!"),
	}
	for name, content := range refused {
		path := filepath.Join(t.TempDir(), "file")
		os.WriteFile(path, content, 0o644)
		_, err := Open(path)
		if !errors.Is(err, ErrNotLog) || !strings.Contains(err.Error(), path+" is not a provdb log") {
			t.Errorf("%s: Open = %v, want ErrNotLog naming the file", name, err)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, content) {
			t.Errorf("%s: Open changed a file it refused: %d → %d bytes", name, len(content), len(after))
		}
	}
	for _, content := range []string{"", header[:1], header[:3], header[:len(header)-1], header} {
		path := filepath.Join(t.TempDir(), "file")
		os.WriteFile(path, []byte(content), 0o644)
		db := reopen(t, path)
		wantRecords(t, db)
		if after, _ := os.ReadFile(path); string(after) != content {
			t.Errorf("Open changed a %d-byte file to %d bytes", len(content), len(after))
		}
		if err := appendStrings(db, "first"); err != nil {
			t.Fatal(err)
		}
		db.Close()
		if after, _ := os.ReadFile(path); string(after[:len(header)]) != header || len(after) != len(header)+frameLen+5 {
			t.Errorf("after the first append to a %d-byte file the log is %q", len(content), after)
		}
		db = reopen(t, path)
		wantRecords(t, db, "first")
		db.Close()
	}
}

func TestScanAgainstConcurrentCommits(t *testing.T) {
	db, _ := openTemp(t)
	defer db.Close()
	const batches, per = 50, 16
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := 0; b < batches; b++ {
			recs := make([]string, per)
			for i := range recs {
				recs[i] = fmt.Sprintf("r%06d", b*per+i)
			}
			if err := appendStrings(db, recs...); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Every walk sees whole batches, each record where it was appended.
	for seen := 0; seen < batches*per; {
		seen = 0
		db.Scan(func(i int, rec []byte) bool {
			if i != seen || string(rec) != fmt.Sprintf("r%06d", i) {
				t.Errorf("the walk's record %d came as position %d, %q", seen, i, rec)
			}
			seen++
			return true
		})
		if seen%per != 0 {
			t.Fatalf("a walk saw %d records: part of a batch", seen)
		}
	}
	wg.Wait()
}

func TestClosedDBErrors(t *testing.T) {
	db, _ := openTemp(t)
	appendStrings(db, "kept")
	db.Close()
	if err := appendStrings(db, "late"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append on a closed log = %v, want ErrClosed", err)
	}
	if err := db.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Sync on a closed log = %v, want ErrClosed", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal("double Close must be a no-op")
	}
	wantRecords(t, db, "kept")
}

// A commit whose write fails changes nothing in memory, and the commit after
// it first clears whatever the failed one may have left in the file.
func TestFailedCommitChangesNothing(t *testing.T) {
	db, path := openTemp(t)
	appendStrings(db, "kept")
	db.f.Close() // the next write fails
	if err := appendStrings(db, "lost"); err == nil {
		t.Fatal("an append to a closed file succeeded")
	}
	wantRecords(t, db, "kept")
	// Part of the failed commit reached the file, say; then the file works again.
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(logOf("lost", "and more of that commit")[len(header):])
	f.Close()
	if db.f, err = os.OpenFile(path, os.O_RDWR, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := appendStrings(db, "next"); err != nil {
		t.Fatal(err)
	}
	wantRecords(t, db, "kept", "next")
	db.Close()
	db2 := reopen(t, path)
	defer db2.Close()
	wantRecords(t, db2, "kept", "next")
}

// Property: the log agrees with a plain list of records — in Len and in a full
// Scan — after every step of a random program of batch appends (empty batches,
// empty and one-byte records, batches of hundreds), syncs, reopens, crashes
// that cut the file inside its last commit, and single-byte damage. A cut
// recovers exactly the whole records and the next append lands behind them;
// damage with log behind it is ErrCorrupt and changes nothing; damage in the
// last record is a torn tail.
func TestModelEquivalenceProperty(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		path := filepath.Join(t.TempDir(), "log")
		db := reopen(t, path)
		var model [][]byte
		lastCommit := 0 // where the file's last commit starts

		// end is the file offset just behind record i.
		end := func(i int) int {
			off := len(header)
			for _, r := range model[:i+1] {
				off += frameLen + len(r)
			}
			return off
		}
		fileLen := func() int {
			if len(model) == 0 {
				return 0
			}
			return end(len(model) - 1)
		}
		check := func(step int, what string) {
			t.Helper()
			if diff := differs(t, db, model); diff != "" {
				t.Fatalf("seed %d step %d (%s): %s", seed, step, what, diff)
			}
		}
		appendBatch := func(n int) {
			t.Helper()
			batch := make([][]byte, n)
			for i := range batch {
				size := rng.Intn(3) // empty, one byte, two
				if rng.Intn(3) == 0 {
					size = rng.Intn(300)
				}
				batch[i] = make([]byte, size)
				rng.Read(batch[i])
			}
			if n > 0 {
				lastCommit = fileLen()
			}
			data, ends := pack(batch)
			if err := db.Append(data, ends); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			for i := range data {
				data[i] ^= 0xFF // the caller's buffer is theirs again
			}
			model = append(model, batch...)
		}
		// damage closes the log, changes its file with fn and returns the
		// bytes it left.
		damage := func(fn func(data []byte) []byte) []byte {
			t.Helper()
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			data, _ := os.ReadFile(path)
			if len(data) != fileLen() {
				t.Fatalf("seed %d: the file is %d bytes, the model's records frame to %d", seed, len(data), fileLen())
			}
			data = fn(data)
			os.WriteFile(path, data, 0o644)
			return data
		}
		// recordByte picks a byte of record i's checksum or content: a change
		// there cannot make the record look longer or shorter.
		recordByte := func(i int) int {
			start := end(i) - len(model[i]) - 4
			return start + rng.Intn(end(i)-start)
		}

		for step := 0; step < 60; step++ {
			switch op := rng.Intn(10); {
			case op < 4:
				n := rng.Intn(6)
				if rng.Intn(5) == 0 {
					n = rng.Intn(601)
				}
				appendBatch(n)
				check(step, "append")
			case op == 4:
				if err := db.Sync(); err != nil {
					t.Fatal(err)
				}
				check(step, "sync")
			case op == 5:
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				db = reopen(t, path)
				check(step, "reopen")
			case op < 8 && len(model) > 0:
				// A crash during the last commit, or damage to the last
				// record: the file ends in something that is not a record.
				whole := len(model) - 1
				if op == 6 {
					cut := lastCommit + rng.Intn(fileLen()-lastCommit)
					damage(func(data []byte) []byte { return data[:cut] })
					for whole = 0; whole < len(model) && end(whole) <= cut; whole++ {
					}
				} else {
					at := recordByte(whole)
					damage(func(data []byte) []byte { data[at] ^= 1 << rng.Intn(8); return data })
				}
				model = model[:whole]
				db = reopen(t, path)
				check(step, "torn tail")
				appendBatch(1 + rng.Intn(3))
				check(step, "append behind a torn tail")
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				if fi, _ := os.Stat(path); int(fi.Size()) != fileLen() {
					t.Fatalf("seed %d step %d: the file is %d bytes, its records frame to %d: the torn tail is still there",
						seed, step, fi.Size(), fileLen())
				}
				db = reopen(t, path)
				check(step, "reopen behind a torn tail")
			case op >= 8 && len(model) > 1:
				victim := rng.Intn(len(model) - 1)
				at := recordByte(victim)
				bit := byte(1) << rng.Intn(8)
				damaged := damage(func(data []byte) []byte { data[at] ^= bit; return data })
				_, err := Open(path)
				offset := fmt.Sprintf("offset %d ", end(victim)-len(model[victim])-frameLen)
				if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), offset) {
					t.Fatalf("seed %d step %d: Open = %v, want ErrCorrupt at %s", seed, step, err, offset)
				}
				if after, _ := os.ReadFile(path); !bytes.Equal(after, damaged) {
					t.Fatalf("seed %d step %d: Open changed a corrupt log", seed, step)
				}
				damaged[at] ^= bit
				os.WriteFile(path, damaged, 0o644)
				db = reopen(t, path)
				check(step, "repaired")
			}
		}
		db.Close()
	}
}

func TestConcurrentAccess(t *testing.T) {
	db, path := openTemp(t)
	const goroutines = 8
	const opsEach = 300
	done := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		go func() {
			for i := 0; i < opsEach; i++ {
				switch i % 4 {
				case 0, 1:
					if err := appendStrings(db, fmt.Sprintf("g%d-%d", g, i), fmt.Sprintf("g%d-%d'", g, i)); err != nil {
						done <- err
						return
					}
				case 2:
					db.Scan(func(i int, rec []byte) bool { return len(rec) > 0 && i < 10 })
				case 3:
					if db.Len()%2 != 0 {
						done <- errors.New("Len saw half a batch")
						return
					}
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < goroutines; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	db.Close()
	// The log replays cleanly afterwards, and every goroutine's records are
	// in it in the order that goroutine appended them.
	db2 := reopen(t, path)
	defer db2.Close()
	if want := goroutines * (opsEach / 2) * 2; db2.Len() != want {
		t.Fatalf("%d records after replay, want %d", db2.Len(), want)
	}
	next := make([]int, goroutines)
	for _, rec := range scanAll(t, db2) {
		var g, i int
		if _, err := fmt.Sscanf(strings.TrimSuffix(string(rec), "'"), "g%d-%d", &g, &i); err != nil {
			t.Fatalf("record %q: %v", rec, err)
		}
		if i < next[g] {
			t.Fatalf("goroutine %d's record %d follows its record %d", g, i, next[g])
		}
		next[g] = i
	}
}
