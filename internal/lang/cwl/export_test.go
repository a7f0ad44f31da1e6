package cwl

import "cmp"

// CompareDecoders, Build and the decoders are exposed to the external test
// package, which (unlike this one) may import internal/verify for the
// portability renderings.
var (
	Build = build
	// DecodeErr and ReferenceDecode run the decoder and its reference up to
	// the document.
	DecodeErr       = func(name, src string) error { _, err := decode(name, src); return err }
	ReferenceDecode = func(name, src string) error { _, err := referenceDecode(name, src); return err }
)

// CompareDecoders checks decode against its reference on src, and every
// default src holds or is against the reference's reading of it.
func CompareDecoders(name, src string) error {
	return cmp.Or(compareDecoders(name, src), compareDefaults(src))
}

// Samples returns the unit tests' documents: the sample workflow, the
// decoder's every-form samples and the documents build must refuse.
func Samples() []string {
	out := append([]string{}, decodeSamples...)
	for _, c := range parseErrorCases {
		out = append(out, c.src)
	}
	return out
}
