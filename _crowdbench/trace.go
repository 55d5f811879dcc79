package main

import (
	"sort"
	"sync"
	"time"

	"github.com/crowdlearn/crowdlearn/internal/core"
	"github.com/crowdlearn/crowdlearn/internal/crowd"
	"github.com/crowdlearn/crowdlearn/internal/simclock"
)

// span is one interval of a request's span tree. Every span of one
// request carries the request's id; Parent is the ID of the enclosing
// span, -1 for the request root. Times are offsets from the run's epoch.
type span struct {
	Req    int           `json:"req"`
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"startNs"`
	End    time.Duration `json:"endNs"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// selfTimes returns each span's self time, aligned with spans: its
// duration minus the part of its interval covered by its direct
// children. Child intervals are clipped to the parent and overlapping
// children are counted once, so a child that escapes its parent or
// overlaps a sibling shows up as self times summing to more than the
// root's duration.
func selfTimes(spans []span) []time.Duration {
	byID := make(map[int]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	children := make(map[int][]span)
	for _, s := range spans {
		if _, ok := byID[s.Parent]; ok {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals
// clipped to parent.
func covered(parent span, children []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			total += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// layerCall is one call into a layer, timed by a wrapper.
type layerCall struct {
	// cycle is the cycle index the service worker was serving when the
	// call happened (-1 outside any cycle, e.g. during recovery).
	cycle int
	// degraded marks an AssessDegraded call; firstImage is the first
	// image ID of its batch, used to join it to its response.
	degraded   bool
	firstImage int
	// n counts the items the call handled (crowd queries).
	n          int
	start, end time.Duration
}

func (c layerCall) dur() time.Duration { return c.end - c.start }

// recorder collects the wrappers' layer calls. The service worker
// writes it; the harness reads it once a phase's requests have all
// returned.
type recorder struct {
	epoch time.Time

	mu       sync.Mutex
	current  int
	cycles   []layerCall
	platform []layerCall
	commits  []layerCall
}

func newRecorder(epoch time.Time) *recorder { return &recorder{epoch: epoch, current: -1} }

func (r *recorder) now() time.Duration { return time.Since(r.epoch) }

func (r *recorder) enter(cycle int) {
	r.mu.Lock()
	r.current = cycle
	r.mu.Unlock()
}

func (r *recorder) leave(c layerCall) {
	r.mu.Lock()
	r.current = -1
	r.cycles = append(r.cycles, c)
	r.mu.Unlock()
}

func (r *recorder) add(list *[]layerCall, c layerCall) {
	r.mu.Lock()
	c.cycle = r.current
	*list = append(*list, c)
	r.mu.Unlock()
}

// snapshot copies the recorded calls.
func (r *recorder) snapshot() (cycles, platform, commits []layerCall) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]layerCall(nil), r.cycles...),
		append([]layerCall(nil), r.platform...),
		append([]layerCall(nil), r.commits...)
}

// timedScheme wraps the system the service drives, timing every full
// sensing cycle (core.cycle) and every degraded-tier answer
// (core.degraded). It forwards the telemetry surface the service reads
// for /stats, so the served responses are unchanged.
type timedScheme struct {
	inner *core.CrowdLearn
	rec   *recorder
}

var (
	_ core.Scheme           = (*timedScheme)(nil)
	_ core.DegradedAssessor = (*timedScheme)(nil)
)

func (s *timedScheme) Name() string { return s.inner.Name() }

func (s *timedScheme) RunCycle(in core.CycleInput) (core.CycleOutput, error) {
	s.rec.enter(in.Index)
	start := s.rec.now()
	out, err := s.inner.RunCycle(in)
	s.rec.leave(layerCall{cycle: in.Index, start: start, end: s.rec.now()})
	return out, err
}

func (s *timedScheme) AssessDegraded(in core.CycleInput) (core.CycleOutput, error) {
	start := s.rec.now()
	out, err := s.inner.AssessDegraded(in)
	first := -1
	if len(in.Images) > 0 {
		first = in.Images[0].ID
	}
	s.rec.leave(layerCall{cycle: in.Index, degraded: true, firstImage: first, start: start, end: s.rec.now()})
	return out, err
}

func (s *timedScheme) ExpertWeights() map[string]float64 { return s.inner.ExpertWeights() }

func (s *timedScheme) RemainingBudget() float64 { return s.inner.RemainingBudget() }

// timedPlatform wraps the simulated crowd platform, timing every
// submission and counting its queries.
type timedPlatform struct {
	inner core.CrowdPlatform
	rec   *recorder
}

var _ core.CrowdPlatform = (*timedPlatform)(nil)

func (p *timedPlatform) Submit(clk *simclock.Clock, ctx crowd.TemporalContext, queries []crowd.Query) ([]crowd.QueryResult, error) {
	start := p.rec.now()
	res, err := p.inner.Submit(clk, ctx, queries)
	p.rec.add(&p.rec.platform, layerCall{n: len(queries), start: start, end: p.rec.now()})
	return res, err
}

func (p *timedPlatform) Spent() float64 { return p.inner.Spent() }

// timedJournal wraps the store journal, timing each cycle's commit (WAL
// append and fsync, plus the checkpoint on every eighth cycle).
type timedJournal struct {
	inner core.CycleJournal
	rec   *recorder
}

var _ core.CycleJournal = (*timedJournal)(nil)

func (j *timedJournal) CycleCommitted(rec core.JournalCycle) error {
	start := j.rec.now()
	err := j.inner.CycleCommitted(rec)
	j.rec.add(&j.rec.commits, layerCall{start: start, end: j.rec.now()})
	return err
}
