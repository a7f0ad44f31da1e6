package provdb

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReplay feeds arbitrary bytes to Open: it must never panic, loop or
// change the file, and what it accepts must take an append and reopen to the
// same records with that one behind them.
func FuzzReplay(f *testing.F) {
	one, two := logOf("one"), logOf("one", "")
	f.Add([]byte{})
	f.Add([]byte(header))
	f.Add(one)
	f.Add(one[:len(one)-2]) // torn record
	f.Add(two)
	badCRC := append([]byte(nil), two...)
	badCRC[len(header)+5] ^= 0xA5
	f.Add(badCRC)
	f.Add(keyedLog("ev00000000000000000001", "one"))
	f.Add([]byte(`{"id":"e1","type":"workflow-start"}` + "\n"))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		p := filepath.Join(t.TempDir(), "fuzz.db")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := Open(p)
		if after, _ := os.ReadFile(p); !bytes.Equal(after, data) {
			t.Fatalf("Open (%v) changed the file: %d → %d bytes", err, len(data), len(after))
		}
		if err != nil {
			return // not a log, or a damaged one
		}
		// What was recovered must be usable.
		before := scanAll(t, db)
		if err := appendStrings(db, "probe"); err != nil {
			t.Fatalf("Append after recovery: %v", err)
		}
		db.Close()
		db2, err := Open(p)
		if err != nil {
			t.Fatalf("reopen after recovery: %v", err)
		}
		defer db2.Close()
		after := scanAll(t, db2)
		if len(after) != len(before)+1 || string(after[len(before)]) != "probe" {
			t.Fatalf("%d records, then an append, reopened to %d", len(before), len(after))
		}
		for i := range before {
			if !bytes.Equal(before[i], after[i]) {
				t.Fatalf("record %d changed across the reopen", i)
			}
		}
	})
}
