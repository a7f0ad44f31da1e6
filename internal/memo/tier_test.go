package memo

import (
	"fmt"
	"testing"
)

// keyN builds a distinct valid key per index.
func keyN(i int) string {
	return Key{
		Sig:     "sig",
		Profile: Profile{VCores: 1, MemMB: 1024},
		Inputs:  []string{StagedIdentity(fmt.Sprintf("/data/in-%d.dat", i), 64)},
		Outputs: []OutputID{{Path: fmt.Sprintf("/wf/t%03d.dat", i), SizeMB: 8}},
	}.Encode()
}

// TestTierBoundaries is the table-driven sweep over the table's capacity
// bound: which entry a full table drops, what protects an entry from being
// the next one dropped, and bounded memory under a soak of commits far
// beyond capacity.
func TestTierBoundaries(t *testing.T) {
	commit := func(t *testing.T, tab *Table, i int) {
		t.Helper()
		if err := tab.Commit(keyN(i), Entry{SourceWF: fmt.Sprintf("wf-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"eviction-without-cold-drops", func(t *testing.T) {
			tab := New(2)
			for i := 0; i < 3; i++ {
				commit(t, tab, i)
			}
			if _, ok := tab.Lookup(keyN(0)); ok {
				t.Fatal("the least recently used entry survived a commit into a full table")
			}
			for i := 1; i < 3; i++ {
				if _, ok := tab.Lookup(keyN(i)); !ok {
					t.Fatalf("recent entry %d evicted too early", i)
				}
			}
			st := tab.Stats()
			if st.Evictions != 1 || st.HotEntries != 2 {
				t.Fatalf("stats: %+v", st)
			}
		}},
		{"lookup-protects-from-next-eviction", func(t *testing.T) {
			tab := New(2)
			commit(t, tab, 0)
			commit(t, tab, 1)
			if _, ok := tab.Lookup(keyN(0)); !ok {
				t.Fatal("resident entry missed")
			}
			commit(t, tab, 2) // must drop 1, the entry not touched since
			if _, ok := tab.Lookup(keyN(0)); !ok {
				t.Fatal("the entry just looked up was the one evicted")
			}
			if _, ok := tab.Lookup(keyN(1)); ok {
				t.Fatal("the least recently used entry survived")
			}
		}},
		{"recommit-refreshes-without-evicting", func(t *testing.T) {
			tab := New(2)
			commit(t, tab, 0)
			commit(t, tab, 1)
			if err := tab.Commit(keyN(0), Entry{SourceWF: "again"}); err != nil {
				t.Fatal(err)
			}
			if st := tab.Stats(); st.Evictions != 0 || st.HotEntries != 2 || st.Commits != 3 {
				t.Fatalf("re-committing a resident key: %+v", st)
			}
			commit(t, tab, 2) // must drop 1: the re-commit made 0 the more recent
			if _, ok := tab.Lookup(keyN(1)); ok {
				t.Fatal("the re-commit did not refresh its entry's recency")
			}
			if e, ok := tab.Lookup(keyN(0)); !ok || e.SourceWF != "again" {
				t.Fatalf("re-committed entry: %+v ok=%v", e, ok)
			}
		}},
		{"bounded-memory-under-soak", func(t *testing.T) {
			tab := New(64)
			const n = 5000
			for i := 0; i < n; i++ {
				commit(t, tab, i)
				if got := tab.Stats().HotEntries; got > 64 {
					t.Fatalf("table exceeded its bound after %d commits: %d entries", i+1, got)
				}
			}
			st := tab.Stats()
			if st.HotEntries != 64 || st.Evictions != n-64 {
				t.Fatalf("after the soak: %+v", st)
			}
			if _, ok := tab.Lookup(keyN(n - 1)); !ok {
				t.Fatal("the newest entry is not resident")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}
