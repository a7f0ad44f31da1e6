package memo

import (
	"fmt"
	"math"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"hiway/internal/obs"
)

func sampleKey() Key {
	return Key{
		Sig:     "align",
		Profile: Profile{VCores: 2, MemMB: 4096},
		Inputs:  []string{"s:/data/in-1.dat:64", "s:/data/in-0.dat:32"},
		Outputs: []OutputID{{Path: "/wf/t001.dat", SizeMB: 16}, {Path: "/wf/t000.dat", SizeMB: 8}},
	}
}

func TestKeyEncodeParseRoundTrip(t *testing.T) {
	k := sampleKey()
	enc := k.Encode()
	got, err := ParseKey(enc)
	if err != nil {
		t.Fatalf("ParseKey(%q): %v", enc, err)
	}
	want := sampleKey()
	want.Normalize()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	// Encoding is order-insensitive: permuting the sets yields the same key.
	perm := sampleKey()
	perm.Inputs[0], perm.Inputs[1] = perm.Inputs[1], perm.Inputs[0]
	perm.Outputs[0], perm.Outputs[1] = perm.Outputs[1], perm.Outputs[0]
	if perm.Encode() != enc {
		t.Fatalf("permuted key encodes differently:\n%s\n%s", perm.Encode(), enc)
	}
}

func TestKeyEncodeEscapesStructuralBytes(t *testing.T) {
	k := Key{
		Sig:     "we|ird,sig:with%bytes\nnewline",
		Profile: Profile{VCores: 1, MemMB: 1024},
		Inputs:  []string{"s:/p|a,t:h%0:1"},
		Outputs: []OutputID{{Path: "/o|u,t:put%", SizeMB: 1.5}},
	}
	got, err := ParseKey(k.Encode())
	if err != nil {
		t.Fatalf("ParseKey: %v", err)
	}
	k.Normalize()
	if !reflect.DeepEqual(got, k) {
		t.Fatalf("escaped round trip mismatch:\n got %+v\nwant %+v", got, k)
	}
}

func TestParseKeyRejectsMalformed(t *testing.T) {
	for _, s := range []string{
		"", "m1", "m1|a|b", "m0|sig|1x2||", "m1|sig|12||", "m1|sig|ax2||",
		"m1|sig|1xb||", "m1|sig|1x2||out", "m1|sig|1x2||out:zzz",
		"m1|si%2|1x2||", "m1|si%zz|1x2||",
	} {
		if _, err := ParseKey(s); err == nil {
			t.Errorf("ParseKey(%q): want error, got nil", s)
		}
	}
}

func TestIdentityHelpers(t *testing.T) {
	if got := StagedIdentity("/data/in.dat", 64); got != "s:/data/in.dat:64" {
		t.Fatalf("StagedIdentity = %q", got)
	}
	key := sampleKey().Encode()
	same := sampleKey()
	same.Inputs[0], same.Inputs[1] = same.Inputs[1], same.Inputs[0]
	other := sampleKey()
	other.Profile.VCores++
	a := ProducedIdentity(ProducerOf(key), "out", 0)
	if !regexp.MustCompile(`^p:[0-9a-f]{32}#out#0$`).MatchString(a) {
		t.Fatalf("ProducedIdentity = %q, want p:<32 hex digits>#out#0", a)
	}
	// Equal keys give equal identities, different keys different ones.
	if b := ProducedIdentity(ProducerOf(same.Encode()), "out", 0); b != a {
		t.Fatalf("equal keys, different identities: %q vs %q", a, b)
	}
	for _, b := range []string{
		ProducedIdentity(ProducerOf(other.Encode()), "out", 0),
		ProducedIdentity(ProducerOf(key+" "), "out", 0),
		ProducedIdentity(ProducerOf(key), "out", 1),
		ProducedIdentity(ProducerOf(key), "log", 0),
	} {
		if b == a {
			t.Fatalf("different producers or outputs share the identity %q", a)
		}
	}
	// The identity names the producer by digest alone: none of the key's
	// bytes, and no more bytes for a long key than for a short one.
	long := strings.Repeat("QRSTUVWXYZ|%,\n;", 400)
	id := ProducedIdentity(ProducerOf(long), "out", 0)
	if i := strings.IndexAny(id, long); i >= 0 {
		t.Fatalf("identity %q holds byte %q of the producer key", id, id[i])
	}
	if len(id) != len(a) {
		t.Fatalf("identity of a %d-byte key is %d bytes, of a %d-byte key %d", len(long), len(id), len(key), len(a))
	}
}

func TestTableLookupCommitAndStats(t *testing.T) {
	tab := New(8)
	o := obs.New(func() float64 { return 0 })
	tab.SetObs(o)
	key := sampleKey().Encode()
	if _, ok := tab.Lookup(key); ok {
		t.Fatal("lookup on empty table hit")
	}
	if err := tab.Commit(key, Entry{SourceWF: "wf-a", CPUSeconds: 40, DurationSec: 20}); err != nil {
		t.Fatal(err)
	}
	e, ok := tab.Lookup(key)
	if !ok || e.SourceWF != "wf-a" || e.CPUSeconds != 40 {
		t.Fatalf("lookup after commit: %+v ok=%v", e, ok)
	}
	st := tab.Stats()
	if st.Lookups != 2 || st.Hits != 1 || st.Commits != 1 || st.CPUSavedSec != 40 || st.HotEntries != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if got := tab.HitProbability("align"); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("HitProbability = %v, want 0.5", got)
	}
	if got := tab.HitProbability("never-seen"); got != 0 {
		t.Fatalf("HitProbability(unseen) = %v, want 0", got)
	}
}

func TestTableOptOut(t *testing.T) {
	tab := New(8)
	if tab.OptedOut("genomics") {
		t.Fatal("fresh table has opt-outs")
	}
	tab.SetOptOut("genomics")
	if !tab.OptedOut("genomics") || tab.OptedOut("rnaseq") {
		t.Fatal("opt-out registry wrong")
	}
}

// ParseKey decodes a serialized key. The table never decodes a key; this
// inverse exists so the tests can pin that Encode is injective: it inverts
// Encode on every key Encode can produce, and returns an error (never
// panics) on anything else — the FuzzMemoKey target pins both properties.
func ParseKey(s string) (Key, error) {
	parts := strings.Split(s, "|")
	if len(parts) != 5 {
		return Key{}, fmt.Errorf("memo: key has %d fields, want 5", len(parts))
	}
	if parts[0] != keyVersion {
		return Key{}, fmt.Errorf("memo: unknown key version %q", parts[0])
	}
	var k Key
	var err error
	if k.Sig, err = unescapeField(parts[1]); err != nil {
		return Key{}, err
	}
	cores, mem, ok := strings.Cut(parts[2], "x")
	if !ok {
		return Key{}, fmt.Errorf("memo: malformed profile %q", parts[2])
	}
	if k.Profile.VCores, err = strconv.Atoi(cores); err != nil {
		return Key{}, fmt.Errorf("memo: bad vcores: %v", err)
	}
	if k.Profile.MemMB, err = strconv.Atoi(mem); err != nil {
		return Key{}, fmt.Errorf("memo: bad memMB: %v", err)
	}
	if parts[3] != "" {
		for _, f := range strings.Split(parts[3], ",") {
			in, err := unescapeField(f)
			if err != nil {
				return Key{}, err
			}
			k.Inputs = append(k.Inputs, in)
		}
	}
	if parts[4] != "" {
		for _, f := range strings.Split(parts[4], ",") {
			pathF, sizeF, ok := strings.Cut(f, ":")
			if !ok {
				return Key{}, fmt.Errorf("memo: malformed output %q", f)
			}
			p, err := unescapeField(pathF)
			if err != nil {
				return Key{}, err
			}
			sz, err := strconv.ParseFloat(sizeF, 64)
			if err != nil {
				return Key{}, fmt.Errorf("memo: bad output size %q: %v", sizeF, err)
			}
			k.Outputs = append(k.Outputs, OutputID{Path: p, SizeMB: sz})
		}
	}
	return k, nil
}
