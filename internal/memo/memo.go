// Package memo implements the cluster-wide, tenant-agnostic task memo
// table: executions are keyed on (task signature, canonical input set,
// canonical declared output set, container profile), so an AM that is about
// to run a task another workflow — possibly another tenant's — already ran
// can skip the attempt entirely and splice the recorded outcome into its own
// provenance. The premise is the one the verifier's recovery keys already
// proved (b468fe5): a task execution in this system is fully determined by
// its signature, its inputs, and the resources it runs in.
//
// Keys are canonical: paths are taken relative to a per-workflow prefix
// (the service tier rebases every run under /svc/<tenant>/<name>, so two
// tenants running the same reference pipeline produce identical canonical
// keys), input files are identified by lineage (a produced file's identity
// is a digest of its producer's memo key, so a key's size depends on the
// task's own inputs and outputs, not on their ancestry; a staged file's is
// its canonical path and size), and declared outputs carry their sizes —
// which is what separates two same-signature tasks with different output
// arities or shapes, the b468fe5 class of collision.
//
// The table itself is a bounded in-memory LRU map: lookups and commits are
// O(1), and once it holds its capacity (4,096 entries by default) a commit
// of a new key drops the least recently used entry — that execution simply
// runs again the next time it is asked for. Memory stays bounded under soak
// no matter how many distinct executions the cluster has seen. Nothing is
// persisted: a restarted process starts with an empty table.
package memo

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"hiway/internal/obs"
)

// Profile is the container resource profile a task executes in. Identical
// work in a different profile is a different execution — a 1-core and an
// 8-core run of the same command are not interchangeable results.
type Profile struct {
	// VCores is the container's virtual core count.
	VCores int
	// MemMB is the container's memory grant.
	MemMB int
}

// OutputID identifies one canonical declared output: prefix-stripped path
// plus declared size. Declared outputs are part of the key so that
// same-signature tasks with different output arities or shapes never
// collide.
type OutputID struct {
	// Path is the canonical (prefix-stripped) output path.
	Path string
	// SizeMB is the declared output size.
	SizeMB float64
}

// Key is the canonical identity of one task execution.
type Key struct {
	// Sig is the task signature (its name — one signature per tool).
	Sig string
	// Profile is the container resource profile.
	Profile Profile
	// Inputs are the canonical input identities, sorted. A produced input
	// is identified by a digest of its producer's key ("p:" identities,
	// ProducedIdentity), a staged one by canonical path and size ("s:"
	// identities, StagedIdentity).
	Inputs []string
	// Outputs are the canonical declared outputs, sorted by path then size.
	Outputs []OutputID
}

// Normalize sorts the key's input and output sets into canonical order.
func (k *Key) Normalize() {
	slices.Sort(k.Inputs)
	if !outputsSorted(k.Outputs) {
		sort.Slice(k.Outputs, func(i, j int) bool { return outputLess(k.Outputs[i], k.Outputs[j]) })
	}
}

// outputLess orders declared outputs by path, then size.
func outputLess(a, b OutputID) bool {
	if a.Path != b.Path {
		return a.Path < b.Path
	}
	return a.SizeMB < b.SizeMB
}

// outputsSorted reports whether outs is in the order Normalize leaves it.
func outputsSorted(outs []OutputID) bool {
	for i := 1; i < len(outs); i++ {
		if outputLess(outs[i], outs[i-1]) {
			return false
		}
	}
	return true
}

func unescapeField(s string) (string, error) {
	if !strings.Contains(s, "%") {
		return s, nil
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] != '%' {
			b.WriteByte(s[i])
			continue
		}
		if i+2 >= len(s) {
			return "", fmt.Errorf("memo: truncated escape in %q", s)
		}
		v, err := strconv.ParseUint(s[i+1:i+3], 16, 8)
		if err != nil {
			return "", fmt.Errorf("memo: bad escape in %q: %v", s, err)
		}
		b.WriteByte(byte(v))
		i += 2
	}
	return b.String(), nil
}

// keyVersion tags the encoding so a future format change cannot silently
// alias old entries.
const keyVersion = "m1"

// Encode renders the key in its canonical serialized form — the string the
// table indexes on. Encoding normalizes the key first, so two keys built
// from the same sets in different orders encode identically; a key whose
// sets are already in order (Normalize) is encoded without copying them.
//
// The form is "m1|sig|<vcores>x<memMB>|in,in,...|path:size,...", with '%',
// '|', ',', ':' and newline inside the signature, inputs and output paths
// written as %XX. It is written in one pass into a buffer on the stack
// (grown on the heap only past 256 bytes) and copied once into the key.
func (k Key) Encode() string {
	if !slices.IsSorted(k.Inputs) || !outputsSorted(k.Outputs) {
		k.Inputs, k.Outputs = slices.Clone(k.Inputs), slices.Clone(k.Outputs)
		k.Normalize()
	}
	var buf [256]byte
	b := append(buf[:0], keyVersion...)
	b = append(b, '|')
	b = appendEscaped(b, k.Sig)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(k.Profile.VCores), 10)
	b = append(b, 'x')
	b = strconv.AppendInt(b, int64(k.Profile.MemMB), 10)
	b = append(b, '|')
	for i, in := range k.Inputs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendEscaped(b, in)
	}
	b = append(b, '|')
	for i, o := range k.Outputs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendEscaped(b, o.Path)
		b = append(b, ':')
		b = strconv.AppendFloat(b, o.SizeMB, 'g', -1, 64)
	}
	return string(b)
}

// escaped marks the bytes Encode writes as %XX: the encoding's structural
// bytes, and percent itself so that unescaping is unambiguous.
var escaped = [256]bool{'%': true, '|': true, ',': true, ':': true, '\n': true}

// appendEscaped appends s with each structural byte as %XX (upper-case hex).
func appendEscaped(b []byte, s string) []byte {
	const hexDigits = "0123456789ABCDEF"
	start := 0
	for i := 0; i < len(s); i++ {
		if c := s[i]; escaped[c] {
			b = append(b, s[start:i]...)
			b = append(b, '%', hexDigits[c>>4], hexDigits[c&0xF])
			start = i + 1
		}
	}
	return append(b, s[start:]...)
}

// StagedIdentity is the canonical identity of an input file no completed
// task produced: "s:" + its canonical path + ":" + its size.
func StagedIdentity(canonPath string, sizeMB float64) string {
	var num [32]byte
	return "s:" + canonPath + ":" + string(strconv.AppendFloat(num[:0], sizeMB, 'g', -1, 64))
}

// Producer names a memoized task by a digest of its serialized key: the
// first 128 bits of the key's SHA-256. Two producers are equal exactly when
// their keys are (up to a SHA-256 collision), and a producer is 16 bytes
// however deep the key's own ancestry runs.
type Producer [16]byte

// ProducerOf digests a serialized key. A key of up to 256 bytes is copied
// for the hash onto the stack, not the heap.
func ProducerOf(key string) Producer {
	var buf [256]byte
	sum := sha256.Sum256(append(buf[:0], key...))
	return Producer(sum[:16])
}

// ProducedIdentity is the canonical identity of a file a memoized task
// produced: "p:" + the producer's digest in hex + "#" + the output
// parameter + "#" + the output's index, so consumers of equal files build
// equal keys across runs and tenants without comparing bytes, and a
// consumer's key grows with its own inputs, not with their ancestry.
func ProducedIdentity(p Producer, param string, index int) string {
	var digest [2 * len(p)]byte
	hex.Encode(digest[:], p[:])
	return "p:" + string(digest[:]) + "#" + param + "#" + strconv.Itoa(index)
}

// Entry is what a committed execution leaves in the table: enough to
// attribute a later hit and account the work it saved. The outputs
// themselves are not stored — key equality already guarantees the hitting
// task's own declared outputs (paths and sizes) match the recorded ones, so
// the splice materializes them from the hitting task's declaration.
type Entry struct {
	// SourceWF is the workflow that committed the entry.
	SourceWF string `json:"sourceWF"`
	// SourceTenant is the tenant whose run committed the entry.
	SourceTenant string `json:"sourceTenant,omitempty"`
	// CPUSeconds is the compute the original execution spent — the work a
	// hit saves.
	CPUSeconds float64 `json:"cpuSeconds"`
	// DurationSec is the original execution's wall duration.
	DurationSec float64 `json:"durationSec"`
}

// TableStats snapshots the table's lifetime counters.
type TableStats struct {
	// Lookups counts Lookup calls.
	Lookups int64 `json:"lookups"`
	// Hits counts lookups that found an entry.
	Hits int64 `json:"hits"`
	// Commits counts entries written.
	Commits int64 `json:"commits"`
	// Evictions counts least-recently-used entries dropped to admit a new
	// key into a full table.
	Evictions int64 `json:"evictions"`
	// CPUSavedSec totals the CPU-seconds hits avoided re-spending.
	CPUSavedSec float64 `json:"cpuSavedSec"`
	// HotEntries is the table's current population.
	HotEntries int `json:"hotEntries"`
}

// Table is the shared memo table. It is safe for concurrent use: the serve
// front-end shares one table across goroutine-per-AM runs, while the
// single-threaded simulation engines use it without contention.
type Table struct {
	mu      sync.Mutex
	entries *lru
	optOut  map[string]bool
	lookups int64
	hits    int64
	commits int64
	saved   float64

	sigLookups map[string]int64
	sigHits    map[string]int64

	lookupsC *obs.Counter
	hitsC    *obs.Counter
	commitsC *obs.Counter
	evictC   *obs.Counter
	hotG     *obs.Gauge
	savedG   *obs.Gauge
}

// New builds a table holding at most capacity entries (capacity <= 0
// selects the default, 4096); a full table drops its least recently used
// entry to admit a new key.
func New(capacity int) *Table {
	return &Table{
		entries:    newLRU(capacity),
		optOut:     make(map[string]bool),
		sigLookups: make(map[string]int64),
		sigHits:    make(map[string]int64),
	}
}

// SetObs registers the hiway_memo_* metric family on o.
func (t *Table) SetObs(o *obs.Obs) {
	if o == nil {
		return
	}
	m := o.M()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lookupsC = m.Counter("hiway_memo_lookups_total", "memo table lookups")
	t.hitsC = m.Counter("hiway_memo_hits_total", "memo table hits (executions skipped)")
	t.commitsC = m.Counter("hiway_memo_commits_total", "memo entries committed")
	t.evictC = m.Counter("hiway_memo_evictions_total", "least-recently-used entries dropped from a full table")
	t.hotG = m.Gauge("hiway_memo_hot_entries", "current hot-tier population")
	t.savedG = m.Gauge("hiway_memo_cpu_seconds_saved", "CPU-seconds memo hits avoided re-spending")
}

// SetOptOut excludes a tenant from memoization: its runs neither consume
// nor contribute entries.
func (t *Table) SetOptOut(tenant string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.optOut[tenant] = true
}

// OptedOut reports whether the tenant is excluded from memoization.
func (t *Table) OptedOut(tenant string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.optOut[tenant]
}

// Lookup consults the table for a prior execution of key. A hit records the
// saved work against the entry and counts toward the signature's hit rate.
func (t *Table) Lookup(key string) (Entry, bool) {
	sig := sigOf(key)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lookups++
	t.sigLookups[sig]++
	if t.lookupsC != nil {
		t.lookupsC.Inc()
	}
	e, ok := t.entries.get(key)
	if !ok {
		return Entry{}, false
	}
	t.hits++
	t.sigHits[sig]++
	t.saved += e.CPUSeconds
	if t.hitsC != nil {
		t.hitsC.Inc()
	}
	if t.savedG != nil {
		t.savedG.Set(t.saved)
	}
	return e, true
}

// Commit records a finished execution under key. Committing an existing key
// refreshes the entry. The error is always nil: an in-memory table has
// nothing that can fail, and the signature is what callers compile against.
func (t *Table) Commit(key string, e Entry) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.commits++
	if t.commitsC != nil {
		t.commitsC.Inc()
	}
	if t.entries.put(key, e) && t.evictC != nil {
		t.evictC.Inc()
	}
	if t.hotG != nil {
		t.hotG.Set(float64(t.entries.len()))
	}
	return nil
}

// sigOf extracts the signature field of a serialized key without a full
// parse — Lookup is on the submit path of every task.
func sigOf(key string) string {
	rest := key[strings.IndexByte(key, '|')+1:]
	if i := strings.IndexByte(rest, '|'); i >= 0 {
		rest = rest[:i]
	}
	s, err := unescapeField(rest)
	if err != nil {
		return rest
	}
	return s
}

// HitProbability implements the scheduler's admission-time hit predictor:
// the observed hit rate of the signature's lookups so far, 0 with no
// history. The adaptive policy uses it to stop spending decline budget on
// placing work that is likely to be memoized away.
func (t *Table) HitProbability(sig string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.sigLookups[sig]
	if n == 0 {
		return 0
	}
	return float64(t.sigHits[sig]) / float64(n)
}

// Stats snapshots the table's counters.
func (t *Table) Stats() TableStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return TableStats{
		Lookups:     t.lookups,
		Hits:        t.hits,
		Commits:     t.commits,
		Evictions:   t.entries.evictions,
		CPUSavedSec: t.saved,
		HotEntries:  t.entries.len(),
	}
}
