package memo

import (
	"math"
	"reflect"
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
	a := ProducedIdentity("m1|sig|1x2||", "out", 0)
	b := ProducedIdentity("m1|sig|1x2||", "out", 1)
	if a == b {
		t.Fatal("ProducedIdentity must separate output indices")
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
