// Package lang is the single registry of Hi-WAY's workflow frontends. The
// CLI (`hiway sim`, `inspect`), the HTTP service (`serve`), and batch
// loading all resolve a language name to a driver here, and sniff unknown
// sources with one shared detector — a new frontend registers in exactly
// one place.
package lang

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"

	"hiway/internal/lang/cuneiform"
	"hiway/internal/lang/cwl"
	"hiway/internal/lang/dax"
	"hiway/internal/lang/galaxy"
	"hiway/internal/lang/trace"
	"hiway/internal/wf"
)

// Frontend language names, as accepted by -lang flags and the service API.
const (
	Cuneiform = "cuneiform"
	DAX       = "dax"
	Galaxy    = "galaxy"
	Trace     = "trace"
	CWL       = "cwl"
)

// Known returns the registered language names, sorted.
func Known() []string {
	names := []string{Cuneiform, DAX, Galaxy, Trace, CWL}
	sort.Strings(names)
	return names
}

// IsKnown reports whether name is a registered language.
func IsKnown(name string) bool {
	switch name {
	case Cuneiform, DAX, Galaxy, Trace, CWL:
		return true
	}
	return false
}

// Detect sniffs the frontend language of a workflow source. The file
// extension decides when recognized (.cf/.cuneiform, .dax/.xml, .ga,
// .cwl, .jsonl/.trace); otherwise the content is inspected: CWL documents
// carry cwlVersion, a DAX document's first element is <adag> (after a
// byte-order mark, the XML declaration, comments, processing instructions
// or a DOCTYPE), Galaxy exports are JSON objects with a_galaxy_workflow,
// traces are JSON lines with a task field. Everything else parses as
// Cuneiform, the native language.
func Detect(path, src string) string {
	switch strings.ToLower(filepath.Ext(path)) {
	case ".cf", ".cuneiform":
		return Cuneiform
	case ".dax", ".xml":
		return DAX
	case ".ga":
		return Galaxy
	case ".cwl":
		return CWL
	case ".jsonl", ".trace":
		return Trace
	}
	t := strings.TrimSpace(src)
	switch {
	case strings.Contains(t, `"cwlVersion"`) || strings.Contains(t, "cwlVersion:"):
		return CWL
	case dax.Sniff(src):
		return DAX
	case strings.HasPrefix(t, "{") && strings.Contains(t, `"a_galaxy_workflow"`):
		return Galaxy
	case strings.HasPrefix(t, "{") && strings.Contains(t, `"task"`):
		return Trace
	}
	return Cuneiform
}

// NewDriver resolves a language name to its frontend driver for the given
// workflow name and source text. binds maps workflow inputs to staged
// paths for the frontends with named inputs (Galaxy, CWL); the others
// ignore it.
func NewDriver(language, name, src string, binds map[string]string) (wf.Driver, error) {
	switch language {
	case Cuneiform:
		return cuneiform.NewDriver(name, src), nil
	case DAX:
		return dax.NewDriver(name, src), nil
	case Galaxy:
		return galaxy.NewDriver(name, src, galaxy.Options{Inputs: binds}), nil
	case Trace:
		return trace.NewDriver(name, src), nil
	case CWL:
		return cwl.NewDriver(name, src, cwl.Options{Inputs: binds}), nil
	}
	return nil, fmt.Errorf("lang: unknown language %q (want %s)", language, strings.Join(Known(), ", "))
}
