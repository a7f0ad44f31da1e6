package memo

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// FuzzMemoKey fuzzes both directions of the canonical key serialization:
// a key built from arbitrary components must round-trip exactly through
// Encode/ParseKey, and ParseKey must never panic on arbitrary input (the
// raw component doubles as a hostile serialized key).
func FuzzMemoKey(f *testing.F) {
	f.Add("align", 2, 4096, "s:/data/in.dat:64", "/wf/t000.dat", 8.0, "m1|sig|1x2||")
	f.Add("we|ird,sig", 1, 1024, "p:m1|x|1x1||#out#0", "/o|u,t", 1.5, "m1|sig|1x2|a,b|c:1,d:2")
	f.Add("", 0, 0, "", "", 0.0, "%zz|||||")
	f.Add("sig\nwith\nnewlines", 16, 65536, "s:p%25ath:1", "out:colon", 1e-9, "m1|s|1x1|%")
	f.Fuzz(func(t *testing.T, sig string, vcores, memMB int, input, outPath string, outSize float64, raw string) {
		// Direction 1: hostile input never panics the parser.
		if k, err := ParseKey(raw); err == nil {
			// A successfully parsed key re-encodes to something that parses
			// back equal once normalized (Encode canonicalizes ordering).
			k2, err := ParseKey(k.Encode())
			if err != nil {
				t.Fatalf("re-encoded key does not parse: %v", err)
			}
			k.Normalize()
			if !keysEquivalent(k, k2) {
				t.Fatalf("parse/encode/parse diverged:\n%+v\n%+v", k, k2)
			}
		}

		// Direction 2: constructed keys round-trip exactly.
		if math.IsNaN(outSize) || math.IsInf(outSize, 0) {
			return // sizes of real files are finite
		}
		k := Key{
			Sig:     sig,
			Profile: Profile{VCores: vcores, MemMB: memMB},
			Inputs:  []string{input},
			Outputs: []OutputID{{Path: outPath, SizeMB: outSize}},
		}
		got, err := ParseKey(k.Encode())
		if err != nil {
			t.Fatalf("constructed key does not parse: %v\nkey: %q", err, k.Encode())
		}
		k.Normalize()
		if !keysEquivalent(k, got) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, k)
		}
	})
}

// keysEquivalent compares keys treating nil and empty sets as equal and
// sizes bit-exactly (including negative zero collapsing, which FormatFloat
// preserves).
func keysEquivalent(a, b Key) bool {
	if a.Sig != b.Sig || a.Profile != b.Profile {
		return false
	}
	if strings.Join(a.Inputs, "\x00") != strings.Join(b.Inputs, "\x00") {
		return false
	}
	if len(a.Outputs) != len(b.Outputs) {
		return false
	}
	for i := range a.Outputs {
		if a.Outputs[i].Path != b.Outputs[i].Path {
			return false
		}
		if math.Float64bits(a.Outputs[i].SizeMB) != math.Float64bits(b.Outputs[i].SizeMB) {
			return false
		}
	}
	return true
}

// fmtSize is encodeReference's size form.
func fmtSize(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// keyEscaper is encodeReference's escaping: percent comes first so
// unescaping is unambiguous.
var keyEscaper = strings.NewReplacer(
	"%", "%25", "|", "%7C", ",", "%2C", ":", "%3A", "\n", "%0A",
)

// encodeReference is the Replacer-based Encode the one-buffer Encode
// replaced: FuzzEncodeMatchesReference holds Encode to its bytes.
func encodeReference(k Key) string {
	k.Inputs = append([]string(nil), k.Inputs...)
	k.Outputs = append([]OutputID(nil), k.Outputs...)
	k.Normalize()
	ins := make([]string, len(k.Inputs))
	for i, in := range k.Inputs {
		ins[i] = keyEscaper.Replace(in)
	}
	outs := make([]string, len(k.Outputs))
	for i, o := range k.Outputs {
		outs[i] = keyEscaper.Replace(o.Path) + ":" + fmtSize(o.SizeMB)
	}
	return keyVersion + "|" + keyEscaper.Replace(k.Sig) +
		"|" + strconv.Itoa(k.Profile.VCores) + "x" + strconv.Itoa(k.Profile.MemMB) +
		"|" + strings.Join(ins, ",") +
		"|" + strings.Join(outs, ",")
}

// FuzzEncodeMatchesReference holds Encode to encodeReference byte for byte
// on keys of zero to three inputs and outputs, in any order, with any bytes
// in their strings and any sizes (NaN, ±Inf and -0 included), and checks
// that Encode leaves the caller's sets as they were. StagedIdentity, which
// writes sizes the same way, is held to its concatenation.
func FuzzEncodeMatchesReference(f *testing.F) {
	f.Add("align", 2, 4096, "s:/data/b.dat:64", "s:/data/a.dat:32", "/wf/t001.dat", 16.0, "/wf/t000.dat", 8.0, uint8(0x3f))
	f.Add("we|ird,sig:%\n", -1, 0, "p:0123#out#0", "p:0123#out#0", "/o|u,t", 1.5, "/o|u,t", math.Copysign(0, -1), uint8(0xff))
	f.Add("", 0, -7, "", "%", "", math.NaN(), "", math.Inf(-1), uint8(0x2d))
	f.Add("héllo", 1<<40, 64, "s:/ü/\x00:1e+21", "x", ":", 1e-9, ",", 1e300, uint8(0x17))
	for _, v := range []float64{999999, 1e6, 1e6 - 0.5, -1, 0, 1 << 63, -(1 << 63), 123456.5, 1e21} {
		f.Add("s", 1, 1, "a", "b", "/o", v, "/p", -v, uint8(0x0a))
	}
	f.Fuzz(func(t *testing.T, sig string, vcores, memMB int, in1, in2, out1 string, size1 float64, out2 string, size2 float64, shape uint8) {
		ins := []string{in1, in2, in1 + in2}[:shape&3]
		outs := []OutputID{{out1, size1}, {out2, size2}, {out1, size2}}[:shape>>2&3]
		if shape&0x10 != 0 {
			ins = append(ins, in2)
		}
		k := Key{Sig: sig, Profile: Profile{VCores: vcores, MemMB: memMB}, Inputs: ins, Outputs: outs}
		insBefore := append([]string(nil), ins...)
		outsBefore := append([]OutputID(nil), outs...)
		if got, want := StagedIdentity(out1, size1), "s:"+out1+":"+fmtSize(size1); got != want {
			t.Fatalf("StagedIdentity = %q, want %q", got, want)
		}
		got, want := k.Encode(), encodeReference(k)
		if got != want {
			t.Fatalf("Encode differs from the reference:\n got %q\nwant %q", got, want)
		}
		if !slices.Equal(ins, insBefore) || len(outs) != len(outsBefore) {
			t.Fatalf("Encode changed the caller's inputs: %q, was %q", ins, insBefore)
		}
		for i := range outs {
			if outs[i].Path != outsBefore[i].Path || math.Float64bits(outs[i].SizeMB) != math.Float64bits(outsBefore[i].SizeMB) {
				t.Fatalf("Encode changed the caller's outputs: %v, was %v", outs, outsBefore)
			}
		}
	})
}
