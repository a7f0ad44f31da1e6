// Quickstart: define a two-step Cuneiform workflow and execute it with
// real processes on the local machine. This is the fastest way to see the
// engine drive actual tools: the tasks below shell out to tr and wc.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	"hiway/internal/lang/cuneiform"
	"hiway/internal/localexec"
	"hiway/internal/provenance"
)

const workflow = `
%% A minimal text pipeline: uppercase a file, then count its lines.
deftask upper( out : inp ) in bash *{ tr a-z A-Z < $inp > $out }*
deftask count( out : inp ) in bash *{ wc -l < $inp > $out }*

count( inp: upper( inp: "input/words.txt" ) );
`

func main() {
	workdir, err := os.MkdirTemp("", "hiway-quickstart")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(workdir)

	// Stage the workflow's input data — the local analogue of putting
	// files into HDFS.
	if err := localexec.Stage(workdir, "input/words.txt", []byte("alpha\nbeta\ngamma\n")); err != nil {
		log.Fatal(err)
	}

	// Provenance events (workflow, task, file level) are buffered in memory
	// and exported as a JSONL trace once the run is over.
	store := provenance.NewMemStore()
	prov, err := provenance.NewManager(store)
	if err != nil {
		log.Fatal(err)
	}

	driver := cuneiform.NewDriver("quickstart", workflow)
	rep, err := localexec.Run(driver, localexec.Config{WorkDir: workdir, Workers: 2, Prov: prov})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("workflow %s: %d tasks in %.3fs\n", rep.WorkflowName, len(rep.Results), rep.MakespanSec)
	for _, r := range rep.Results {
		fmt.Printf("  task %-6s on %s: exec %.3fs\n", r.Task.Name, r.Node, r.ExecSec)
	}
	for _, out := range rep.Outputs {
		data, err := os.ReadFile(out)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("result file %s: %s", out, data)
	}
	if err := prov.Flush(); err != nil {
		log.Fatal(err)
	}
	events, err := store.Events()
	if err != nil {
		log.Fatal(err)
	}
	trace, err := os.Create(workdir + "/trace.jsonl")
	if err != nil {
		log.Fatal(err)
	}
	if err := provenance.WriteTrace(trace, events); err != nil {
		log.Fatal(err)
	}
	if err := trace.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("provenance trace: %d events in %s/trace.jsonl\n", len(events), workdir)
}
