package provdb_test

import (
	"fmt"
	"os"
	"path/filepath"

	"hiway/internal/provdb"
)

// Example demonstrates the crash-safe lifecycle: append, reopen, scan.
func Example() {
	dir, err := os.MkdirTemp("", "provdb-example")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "prov.db")

	db, err := provdb.Open(path)
	if err != nil {
		panic(err)
	}
	// A batch is its records back to back and where each ends.
	var batch []byte
	var ends []int
	for _, rec := range []string{"workflow-start w1", "task-end w1 align", "workflow-end w1"} {
		batch = append(batch, rec...)
		ends = append(ends, len(batch))
	}
	if err := db.Append(batch, ends); err != nil {
		panic(err)
	}
	db.Close()

	// Reopening replays the log.
	db2, err := provdb.Open(path)
	if err != nil {
		panic(err)
	}
	defer db2.Close()
	db2.Scan(func(i int, rec []byte) bool {
		fmt.Println(i, string(rec))
		return true
	})
	// Output:
	// 0 workflow-start w1
	// 1 task-end w1 align
	// 2 workflow-end w1
}
