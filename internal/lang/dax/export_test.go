package dax

// Doc is the document both readers fill.
type Doc = xmlADAG

// ReadDoc and ReferenceDoc expose the reader and its encoding/xml reference
// to the external test package, which (unlike this one) may import
// internal/workloads for the generated Montage documents.
var (
	ReadDoc      = readDoc
	ReferenceDoc = decodeReference
)

// SampleDAX is the diamond workflow the unit tests parse.
const SampleDAX = sampleDAX
