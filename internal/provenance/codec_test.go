package provenance

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// fillValue sets v, and everything under it, from rng. With nonZero no field
// is left at its zero value, so a field the codec drops cannot hide; with
// jsonSafe the value stays inside what encoding/json round-trips exactly
// (valid UTF-8, finite floats, and nothing omitempty takes for empty without
// its being the zero value: −0, an empty non-nil slice).
// A kind it does not know fails the test: a new field needs a case here and
// support in the codec.
func fillValue(t testing.TB, rng *rand.Rand, v reflect.Value, nonZero, jsonSafe bool) {
	t.Helper()
	pick := func(n int) int {
		if nonZero {
			return 1 + rng.Intn(n-1)
		}
		return rng.Intn(n)
	}
	switch v.Kind() {
	case reflect.String:
		pool := []string{"", "task-end", "montage-0001/mProject", "naïve/路径/🧬", "nul\x00inside", "{\"json\":1}",
			strings.Repeat("x", 130), "bad\xff\xfeutf8"}
		if jsonSafe {
			pool = pool[:len(pool)-1]
		}
		v.SetString(pool[pick(len(pool))])
	case reflect.Int, reflect.Int64:
		pool := []int64{0, 1, -1, 63, 64, -65, 1 << 20, math.MaxInt32, math.MinInt32}
		if v.Kind() == reflect.Int64 {
			pool = append(pool, math.MaxInt64, math.MinInt64)
		}
		v.SetInt(pool[pick(len(pool))])
	case reflect.Float64:
		pool := []float64{0, 1.5, 5e-324, -2.2e-308, 1.7976931348623157e308, 12632.383644,
			math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
		if jsonSafe {
			pool = pool[:len(pool)-4]
		}
		v.SetFloat(pool[pick(len(pool))])
	case reflect.Bool:
		v.SetBool(nonZero || rng.Intn(2) == 0)
	case reflect.Slice:
		n := pick(5) - 1 // -1: nil
		if n == 0 && jsonSafe {
			n = 1
		}
		if n < 0 {
			v.SetZero()
			return
		}
		v.Set(reflect.MakeSlice(v.Type(), n, n))
		for i := 0; i < n; i++ {
			fillValue(t, rng, v.Index(i), nonZero, jsonSafe)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillValue(t, rng, v.Field(i), nonZero, jsonSafe)
		}
	default:
		t.Fatalf("no generator for a %s field: teach fillValue and the codec about it", v.Kind())
	}
}

// sameBits is reflect.DeepEqual with floats compared by bit pattern, so that
// −0 ≠ +0 and NaN = NaN.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	return reflect.DeepEqual(a.Interface(), b.Interface())
}

func sameEvent(a, b *Event) bool {
	return sameBits(reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem())
}

func TestEventCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	types := []EventType{WorkflowStart, WorkflowEnd, TaskStart, TaskEnd, WorkflowResumed, "task-paused", ""}
	var buf []byte
	for i := 0; i < 600; i++ {
		nonZero, jsonSafe := i < 20, i%2 == 0
		var ev Event
		fillValue(t, rng, reflect.ValueOf(&ev).Elem(), nonZero, jsonSafe)
		if i%3 != 0 {
			ev.Type = types[rng.Intn(len(types))]
		}
		// Into a reused buffer and out into a dirty value, as DBStore does it.
		buf = appendEvent(buf[:0], &ev)
		got := Event{Signature: "stale", Inputs: []FileEvent{{Path: "stale"}}, Succeeded: true, Recovered: 9}
		if err := decodeEvent(buf, &got); err != nil {
			t.Fatalf("event %d: %v\n%+v", i, err, ev)
		}
		if !sameEvent(&got, &ev) {
			t.Fatalf("event %d changed in the codec:\n in  %+v\n out %+v", i, ev, got)
		}
		if !jsonSafe {
			continue
		}
		js, err := json.Marshal(ev)
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		var viaJSON Event
		if err := json.Unmarshal(js, &viaJSON); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if !sameEvent(&viaJSON, &ev) {
			t.Fatalf("event %d is not JSON-safe, fix fillValue:\n in  %+v\n out %+v", i, ev, viaJSON)
		}
		if !sameEvent(&got, &viaJSON) {
			t.Fatalf("event %d: the codecs disagree:\n binary %+v\n json   %+v", i, got, viaJSON)
		}
	}
}

func TestDecodeEventRejectsWhatItCannotTrust(t *testing.T) {
	good := appendEvent(nil, &Event{Type: TaskEnd, Inputs: []FileEvent{{Path: "/in"}}, MemoSource: "src"})
	var ev Event
	if err := decodeEvent(good, &ev); err != nil {
		t.Fatal(err)
	}
	js, _ := json.Marshal(Event{Type: TaskEnd})
	// A record that stops right after claiming a 2^62-byte type string.
	huge := []byte{eventVersion, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x3f}
	for name, tc := range map[string]struct {
		rec  []byte
		want string
	}{
		"empty":          {nil, "too short"},
		"json":           {js, "unknown record version 0x7b"},
		"future version": {append([]byte{eventVersion + 1}, good[1:]...), "unknown record version 0x03"},
		"type code":      {append([]byte{eventVersion, 99}, good[2:]...), "unknown event type code 99"},
		"trailing":       {append(append([]byte(nil), good...), 0), "trailing bytes"},
		"flag bits":      {append(append([]byte(nil), good[:len(good)-6]...), 0x84, 0, 0), "unknown flag bits"},
		"huge string":    {huge, "string length exceeds the record"},
		"overlong":       {append([]byte{eventVersion, 0}, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01), "bad varint"},
	} {
		err := decodeEvent(tc.rec, &ev)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error about %q", name, err, tc.want)
		}
	}
	// Every proper prefix of a good record is refused too.
	for n := 0; n < len(good); n++ {
		if err := decodeEvent(good[:n], &ev); err == nil {
			t.Fatalf("a %d-byte prefix of a %d-byte record decoded", n, len(good))
		}
	}
	// A file count is held to the bytes that could carry that many files.
	files := appendEvent(nil, &Event{})
	at := len(files) - 5 // Inputs' count: Outputs, flags, Recovered, MemoSource follow
	lying := append(append(append([]byte(nil), files[:at]...), 0xff, 0xff, 0x03), files[at+1:]...)
	if err := decodeEvent(lying, &ev); err == nil || !strings.Contains(err.Error(), "file count exceeds the record") {
		t.Fatalf("got %v, want a file-count error", err)
	}
}

// FuzzEventCodec: a provdb file is outside input to `hiway prov -db`, so
// arbitrary bytes must not panic the decoder or make it allocate beyond a
// small multiple of what it was given, and whatever decodes is a fixed point
// of encode → decode.
func FuzzEventCodec(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 8; i++ {
		var ev Event
		fillValue(f, rng, reflect.ValueOf(&ev).Elem(), i == 0, false)
		rec := appendEvent(nil, &ev)
		f.Add(rec)
		f.Add(rec[:len(rec)/2])
	}
	f.Add([]byte(`{"id":"e","type":"task-end"}`))
	f.Add([]byte{eventVersion, 0, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		// TotalAlloc also counts other goroutines' allocations, which can
		// only add to a delta: the least of three decodes bounds what one
		// decode allocates.
		var ev Event
		var err error
		var before, after runtime.MemStats
		got := uint64(math.MaxUint64)
		for range 3 {
			ev = Event{}
			runtime.ReadMemStats(&before)
			err = decodeEvent(data, &ev)
			runtime.ReadMemStats(&after)
			got = min(got, after.TotalAlloc-before.TotalAlloc)
		}
		// A FileEvent takes 48 bytes of memory for at least 18 of input, a
		// string its length; the slack covers an error value.
		if limit := uint64(4*len(data) + 4096); got > limit {
			t.Fatalf("decoding %d bytes allocated %d, over %d", len(data), got, limit)
		}
		if err != nil {
			return
		}
		var again Event
		if err := decodeEvent(appendEvent(nil, &ev), &again); err != nil {
			t.Fatalf("re-encoded record does not decode: %v\n%+v", err, ev)
		}
		if !sameEvent(&again, &ev) {
			t.Fatalf("not a fixed point:\n first  %+v\n second %+v", ev, again)
		}
	})
}
