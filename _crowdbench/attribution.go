package main

import (
	"time"

	"github.com/crowdlearn/crowdlearn/internal/core"
	"github.com/crowdlearn/crowdlearn/internal/obs"
)

// stageLayer names the per-layer metric each cycle stage span of the
// system's tracer feeds.
var stageLayer = map[string]string{
	core.SpanCommitteeVote: "qss.vote",
	core.SpanQSSSelect:     "qss.select",
	core.SpanIPDPrice:      "bandit.price",
	core.SpanCrowdSubmit:   "crowd.submit",
	core.SpanCQCAggregate:  "cqc.aggregate",
	core.SpanMICWeights:    "mic.weights",
	core.SpanMICRetrain:    "mic.retrain",
}

// Harness span names. The request span covers the handler call; its
// self time is the HTTP layer's own work (decode, image lookup,
// admission, response encoding and the worker handoffs).
const (
	spanRequest   = "request"
	spanQueueWait = "service.queue_wait"
	spanCycle     = "core.cycle"
	spanDegraded  = "core.degraded"
	spanPlatform  = "crowd.platform"
	spanCommit    = "store.commit"
)

// attribution is the span trees of one traced phase and their
// per-layer roll-up.
type attribution struct {
	spans []span
	// self and dur hold each span's self time and duration in
	// milliseconds, by span name.
	self, dur map[string][]float64
	// requestTotal sums the request spans' durations, selfTotal every
	// span's self time; cycleTotal and cycleSelf do the same for
	// core.cycle spans alone.
	requestTotal, selfTotal, cycleTotal, cycleSelf time.Duration
	// unjoined counts answers whose worker-side spans were not found.
	unjoined int
}

func (a *attribution) add(s span) int {
	s.ID = len(a.spans)
	a.spans = append(a.spans, s)
	return s.ID
}

// attribute builds one span tree per answered request of a traced
// phase. Worker-side spans join their request by the cycle index in
// the response: the scheme wrapper's call, the tracer's stage spans
// of that cycle, and the platform and journal wrappers' calls made
// while the worker served it. A shed answer joins the degraded-tier
// call with the same cycle index and first image, oldest first.
func attribute(p phase, rec *recorder, traces map[int]*obs.CycleTrace, epoch time.Time) *attribution {
	cycles, platform, commits := rec.snapshot()
	full := make(map[int]layerCall)
	shed := make(map[[2]int][]layerCall)
	for _, c := range cycles {
		if c.degraded {
			k := [2]int{c.cycle, c.firstImage}
			shed[k] = append(shed[k], c)
		} else {
			full[c.cycle] = c
		}
	}
	byCycle := func(calls []layerCall) map[int][]layerCall {
		m := make(map[int][]layerCall)
		for _, c := range calls {
			m[c.cycle] = append(m[c.cycle], c)
		}
		return m
	}
	platformBy, commitsBy := byCycle(platform), byCycle(commits)

	a := &attribution{self: make(map[string][]float64), dur: make(map[string][]float64)}
	for i, r := range p.results {
		req := r.req.seq
		root := a.add(span{Req: req, Parent: -1, Name: spanRequest, Start: r.sent, End: r.done})
		resp := p.resps[i]
		if resp == nil {
			continue // refused or failed inside the HTTP layer
		}
		var c layerCall
		var ok bool
		name := spanCycle
		if resp.Shed {
			name = spanDegraded
			k := [2]int{resp.CycleIndex, r.req.images[0].ID}
			if q := shed[k]; len(q) > 0 {
				c, ok, shed[k] = q[0], true, q[1:]
			}
		} else {
			c, ok = full[resp.CycleIndex]
		}
		if !ok {
			a.unjoined++
			continue
		}
		a.add(span{Req: req, Parent: root, Name: spanQueueWait, Start: r.bodyRead, End: c.start})
		cyc := a.add(span{Req: req, Parent: root, Name: name, Start: c.start, End: c.end})
		if resp.Shed {
			continue
		}
		tr := traces[resp.CycleIndex]
		if tr == nil {
			a.unjoined++
			continue
		}
		var walk func(sp *obs.Span, parent int)
		walk = func(sp *obs.Span, parent int) {
			start := sp.Start.Sub(epoch)
			name := sp.Name
			if l, ok := stageLayer[name]; ok {
				name = l
			}
			id := a.add(span{Req: req, Parent: parent, Name: name, Start: start, End: start + sp.Wall})
			var calls []layerCall
			var callName string
			switch sp.Name {
			case core.SpanCrowdSubmit:
				calls, callName = platformBy[resp.CycleIndex], spanPlatform
			case core.SpanJournalAppend:
				calls, callName = commitsBy[resp.CycleIndex], spanCommit
			}
			for _, pc := range calls {
				a.add(span{Req: req, Parent: id, Name: callName, Start: pc.start, End: pc.end})
			}
			for _, ch := range sp.Children {
				walk(ch, id)
			}
		}
		for _, st := range tr.Root.Children {
			walk(st, cyc)
		}
	}

	self := selfTimes(a.spans)
	for i, s := range a.spans {
		a.self[s.Name] = append(a.self[s.Name], ms(self[i]))
		a.dur[s.Name] = append(a.dur[s.Name], ms(s.dur()))
		a.selfTotal += self[i]
		switch s.Name {
		case spanRequest:
			a.requestTotal += s.dur()
		case spanCycle:
			a.cycleTotal += s.dur()
			a.cycleSelf += self[i]
		}
	}
	return a
}
