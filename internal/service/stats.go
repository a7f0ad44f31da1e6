package service

import (
	"math"
	"sort"
)

// TenantStats aggregates one tenant's service-level outcomes.
type TenantStats struct {
	Submitted  int // workflows first-submitted
	Admitted   int
	Succeeded  int
	Failed     int // terminated in failure, admitted or not
	Rejections int // rejected submission attempts
	Dropped    int // never ran: rejections exhausted the retry budget

	QueueWaitP50Sec float64
	QueueWaitP99Sec float64
	E2EP99Sec       float64
}

// Stats summarizes a drained service run: the per-workflow accounts rolled
// up into the ladder's figures of merit (goodput, tail queue wait,
// rejection rate).
type Stats struct {
	WindowSec float64 // last workflow end (≥ the arrival window)

	// The admission settings the run was measured under, defaults resolved.
	MaxConcurrent int
	MaxQueue      int
	Policy        string

	Submitted  int // workflows first-submitted (excl. retry attempts)
	Attempts   int // submission attempts incl. post-rejection retries
	Admitted   int
	Succeeded  int
	Failed     int
	Rejections int
	Dropped    int

	// GoodputPerHour is successfully completed workflows per simulated
	// hour of the window — the quantity that must plateau (not collapse)
	// at overload.
	GoodputPerHour float64
	// RejectionRate is rejections over submission attempts.
	RejectionRate float64

	QueueWaitP50Sec float64
	QueueWaitP99Sec float64
	QueueWaitMaxSec float64
	E2EP50Sec       float64
	E2EP99Sec       float64

	// Cost accounting from the RM: node-seconds bill alive node lifetime by
	// class, CostUnits prices them (yarn.CostReport.CostUnits: on-demand
	// 1.0, spot 0.3), and the per-tenant core-seconds in Tenants attribute
	// the busy share.
	OnDemandNodeSec float64
	SpotNodeSec     float64
	CostUnits       float64

	// Memoization outcomes when a memo table was configured: tasks spliced
	// across all tenants, the table's lookup/hit counters, and the
	// cpu-seconds the splices avoided executing.
	MemoizedTasks   int
	MemoLookups     int64
	MemoHits        int64
	MemoCPUSavedSec float64

	Tenants map[string]*TenantStats
}

// Stats rolls up the accounts. Call after the engine has drained.
func (s *Service) Stats() *Stats {
	st := &Stats{
		MaxConcurrent: s.cfg.MaxConcurrent,
		MaxQueue:      s.cfg.MaxQueue,
		Policy:        s.cfg.Policy,
		Tenants:       make(map[string]*TenantStats, len(s.profiles)),
	}
	for _, p := range s.profiles {
		st.Tenants[p.Name] = &TenantStats{}
	}
	var waits, e2es []float64
	perWait := make(map[string][]float64)
	perE2E := make(map[string][]float64)
	window := s.cfg.DurationSec
	for _, a := range s.Accounts() {
		ts := st.Tenants[a.Tenant]
		st.Submitted++
		ts.Submitted++
		st.Rejections += a.Rejections
		ts.Rejections += a.Rejections
		window = max(window, a.EndAt)
		if a.Dropped {
			st.Dropped++
			ts.Dropped++
			continue
		}
		st.MemoizedTasks += a.Memoized
		if a.Admitted {
			st.Admitted++
			ts.Admitted++
			waits = append(waits, a.QueueWaitSec)
			perWait[a.Tenant] = append(perWait[a.Tenant], a.QueueWaitSec)
		}
		if a.EndAt == 0 && !a.Admitted {
			continue // still queued (engine not drained); no latency sample
		}
		e2es = append(e2es, a.E2ESec)
		perE2E[a.Tenant] = append(perE2E[a.Tenant], a.E2ESec)
		if a.Succeeded {
			st.Succeeded++
			ts.Succeeded++
		} else {
			st.Failed++
			ts.Failed++
		}
	}
	st.Attempts = st.Submitted + st.Rejections
	st.WindowSec = window
	if window > 0 {
		st.GoodputPerHour = float64(st.Succeeded) * 3600 / window
	}
	if st.Attempts > 0 {
		st.RejectionRate = float64(st.Rejections) / float64(st.Attempts)
	}
	st.QueueWaitP50Sec = quantile(waits, 0.50)
	st.QueueWaitP99Sec = quantile(waits, 0.99)
	st.QueueWaitMaxSec = quantile(waits, 1)
	st.E2EP50Sec = quantile(e2es, 0.50)
	st.E2EP99Sec = quantile(e2es, 0.99)
	for name, ts := range st.Tenants {
		ts.QueueWaitP50Sec = quantile(perWait[name], 0.50)
		ts.QueueWaitP99Sec = quantile(perWait[name], 0.99)
		ts.E2EP99Sec = quantile(perE2E[name], 0.99)
	}
	if s.cfg.Memo != nil {
		ms := s.cfg.Memo.Stats()
		st.MemoLookups = ms.Lookups
		st.MemoHits = ms.Hits
		st.MemoCPUSavedSec = ms.CPUSavedSec
	}
	cost := s.env.RM.CostReport()
	st.OnDemandNodeSec = cost.OnDemandNodeSec
	st.SpotNodeSec = cost.SpotNodeSec
	st.CostUnits = cost.CostUnits()
	return st
}

// quantile returns the nearest-rank q-quantile of xs (q in [0,1]); 0 for an
// empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[min(max(int(math.Ceil(q*float64(len(s))))-1, 0), len(s)-1)]
}
