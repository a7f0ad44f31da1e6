package service

import (
	"sync"

	"hiway/internal/obs"
	"hiway/internal/provenance"
)

// provIndex is the server's long-lived provenance index: what
// GET /v1/provenance answers from. Nothing on the submit/run/finish path
// touches it — a query catches it up by folding in whatever each admitted
// run's buffer gained since the last query, so every event is folded exactly
// once over the server's lifetime and a server nobody queries pays nothing.
// Runs are keyed by admission index, the same key FlushProvenance merges by,
// which is why the index agrees with the flushed trace whatever order the
// folds happened in (see provenance.Index).
type provIndex struct {
	mu sync.Mutex // serializes catch-up and answering; never held by a run
	ix *provenance.Index
	// folded[i] is how many events of the i-th admitted run are in ix.
	folded []int
	// Runs before settled were terminal when last looked at and are fully
	// folded: their buffers are final, so catch-up starts behind them.
	settled int

	queryH   *obs.Histogram
	indexedG *obs.Gauge
	foldedC  *obs.Counter
}

func newProvIndex(m *obs.Registry) *provIndex {
	return &provIndex{
		ix: provenance.NewIndex(),
		queryH: m.Histogram("hiway_serve_provenance_query_seconds",
			"wall seconds to answer GET /v1/provenance, index catch-up included",
			[]float64{0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5}),
		indexedG: m.Gauge("hiway_serve_provenance_indexed_events", "provenance events held in the query index"),
		foldedC:  m.Counter("hiway_serve_provenance_folded_total", "provenance events folded into the query index by catch-up"),
	}
}

// withProvIndex catches the index up with every admitted run and calls fn on
// it, all under the index lock.
func (s *Server) withProvIndex(fn func(ix *provenance.Index)) {
	admitted := s.admittedRuns()
	p := s.prov
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.folded) < len(admitted) {
		p.folded = append(p.folded, 0)
	}
	n := 0
	for i := p.settled; i < len(admitted); i++ {
		r := admitted[i]
		// Terminal is read before the buffer: a run closes done only after
		// its last event is in the buffer.
		terminal := false
		select {
		case <-r.done:
			terminal = true
		default:
		}
		p.folded[i] = r.prov.Scan(p.folded[i], func(pos int, evs []provenance.Event) {
			p.ix.Fold(i, pos, evs)
			n += len(evs)
		})
		if terminal && i == p.settled {
			p.settled++
		}
	}
	if n > 0 {
		p.foldedC.Add(int64(n))
		events, _ := p.ix.Counts()
		p.indexedG.Set(float64(events))
	}
	fn(p.ix)
}

// queryProvenance answers one parsed provenance query. Lineage and memo-hits
// come from the index; diff scans the two named runs' own buffers (a run's
// events all carry its ID, so no other buffer can contribute).
func (s *Server) queryProvenance(q provenance.Query) (out string, err error) {
	if q.Op != provenance.OpDiff {
		s.withProvIndex(func(ix *provenance.Index) { out, err = ix.Answer(q) })
		return out, err
	}
	ids := []string{q.RunA, q.RunB}
	if q.RunA == q.RunB {
		ids = ids[:1] // one buffer, scanned once
	}
	var stores []provenance.Store
	for _, id := range ids {
		if r := s.runs.Load(id); r != nil {
			stores = append(stores, r.prov)
		}
	}
	d, err := provenance.DiffRuns(q.RunA, q.RunB, stores...)
	if err != nil {
		return "", err
	}
	return provenance.RenderRunDiff(d), nil
}
