package core

import (
	"errors"
	"fmt"

	"github.com/crowdlearn/crowdlearn/internal/crowd"
	"github.com/crowdlearn/crowdlearn/internal/imagery"
	"github.com/crowdlearn/crowdlearn/internal/simclock"
)

// CycleJournal receives one durable record per committed sensing cycle.
// Config.Journal is the hook the persistence layer (internal/store)
// plugs into: a cycle's commit calls CycleCommitted after the cycle's
// state mutations have been applied, and treats an append error as a
// cycle failure so callers never acknowledge work that is not durable.
// A journal that implements only CycleJournal cannot detach: its commit
// runs on the cycle's goroutine before the next cycle begins.
type CycleJournal interface {
	CycleCommitted(rec JournalCycle) error
}

// DetachedCycleJournal is the optional two-phase extension of
// CycleJournal that RunCampaign overlaps with the next cycle's compute.
// When the journal implements it, every commit — RunCycle's included —
// goes through CycleCommittedDetached, which splits the commit of one
// cycle into:
//
//  1. a synchronous capture phase (CycleCommittedDetached itself),
//     which must copy everything the durable record needs from live
//     system state — including any checkpoint snapshot that is due —
//     before returning, and
//  2. a detachable durable phase (the returned closure), which
//     performs only encoding, appends, fsyncs and checkpoint writes
//     against the captured data and is therefore safe to run on
//     another goroutine while the next cycle mutates live state.
//
// The closure must be called exactly once; the cycle is durable only
// when it returns nil. Journals that cannot make this split implement
// only CycleJournal.
type DetachedCycleJournal interface {
	CycleJournal
	CycleCommittedDetached(rec JournalCycle) (func() error, error)
}

// JournalCycle is everything needed to re-execute one committed cycle
// deterministically: the cycle's inputs (image IDs resolved against the
// image registry at replay time) and the outcome of every crowd
// interaction the cycle performed. All other per-cycle randomness is
// derived from the system's seeded streams, so replaying the recorded
// crowd outcomes through RunCycle reproduces the cycle's state
// transitions byte for byte.
type JournalCycle struct {
	Index   int
	Context crowd.TemporalContext
	// ImageIDs are the IDs of the cycle's input images, in input order.
	ImageIDs []int
	// Submissions holds one entry per platform Submit call the cycle
	// made (requery waves and outage probes included), in call order.
	Submissions []JournalSubmission
}

// JournalSubmission records one crowd platform interaction.
type JournalSubmission struct {
	// ImageIDs and Incentives describe the submitted queries, aligned
	// by index.
	ImageIDs   []int
	Incentives []crowd.Cents
	// Unavailable marks a submission the platform rejected with
	// crowd.ErrUnavailable (an outage observed and handled by the
	// cycle's recovery logic).
	Unavailable bool
	// Results are the platform's responses with Query.Image detached
	// (the ID in Query.Image is redundant with ImageIDs; the pointer is
	// rebound from the registry at replay time).
	Results []crowd.QueryResult
}

func imageIDs(images []*imagery.Image) []int {
	ids := make([]int, len(images))
	for i, im := range images {
		ids[i] = im.ID
	}
	return ids
}

// recordingPlatform wraps the live platform during a journaled cycle and
// captures every Submit interaction for the cycle's durable record.
type recordingPlatform struct {
	inner CrowdPlatform
	subs  []JournalSubmission
}

func (p *recordingPlatform) Submit(clk *simclock.Clock, ctx crowd.TemporalContext, queries []crowd.Query) ([]crowd.QueryResult, error) {
	results, err := p.inner.Submit(clk, ctx, queries)
	sub := JournalSubmission{
		ImageIDs:   make([]int, len(queries)),
		Incentives: make([]crowd.Cents, len(queries)),
	}
	for i, q := range queries {
		sub.ImageIDs[i] = q.Image.ID
		sub.Incentives[i] = q.Incentive
	}
	switch {
	case errors.Is(err, crowd.ErrUnavailable):
		sub.Unavailable = true
	case err != nil:
		// A hard platform error fails the cycle; the cycle is never
		// committed, so there is nothing to record.
		return results, err
	default:
		sub.Results = detachResults(results)
	}
	p.subs = append(p.subs, sub)
	return results, err
}

func (p *recordingPlatform) Spent() float64 { return p.inner.Spent() }

// detachResults deep-copies query results and drops the image pointers
// so the record can be serialised without embedding image payloads.
func detachResults(results []crowd.QueryResult) []crowd.QueryResult {
	out := make([]crowd.QueryResult, len(results))
	for i, qr := range results {
		qr.Query.Image = nil
		qr.Responses = append([]crowd.Response(nil), qr.Responses...)
		out[i] = qr
	}
	return out
}

// replayPlatform feeds a journaled cycle's recorded crowd outcomes back
// to RunCycle in place of live crowd work. It verifies that the
// replaying cycle derives exactly the interactions the original cycle
// performed — any divergence means the checkpoint, journal and live
// configuration do not belong together, and is reported rather than
// silently absorbed.
//
// With resync set, every interaction is additionally submitted to the
// live platform (results discarded) so that the simulated crowd's
// random stream advances exactly as it did in the original process;
// cycles run after recovery then draw the same workers and labels the
// uninterrupted process would have drawn.
type replayPlatform struct {
	subs   []JournalSubmission
	next   int
	resync CrowdPlatform
}

func (p *replayPlatform) Submit(clk *simclock.Clock, ctx crowd.TemporalContext, queries []crowd.Query) ([]crowd.QueryResult, error) {
	if p.next >= len(p.subs) {
		return nil, fmt.Errorf("core: replay diverged: cycle performed more crowd interactions (%d) than the journal records", p.next+1)
	}
	sub := p.subs[p.next]
	p.next++
	if len(sub.Incentives) != len(sub.ImageIDs) {
		return nil, fmt.Errorf("core: replay: interaction %d record is malformed (%d image IDs, %d incentives)",
			p.next-1, len(sub.ImageIDs), len(sub.Incentives))
	}
	if len(queries) != len(sub.ImageIDs) {
		return nil, fmt.Errorf("core: replay diverged: interaction %d submitted %d queries, journal records %d",
			p.next-1, len(queries), len(sub.ImageIDs))
	}
	for i, q := range queries {
		if q.Image.ID != sub.ImageIDs[i] || q.Incentive != sub.Incentives[i] {
			return nil, fmt.Errorf("core: replay diverged: interaction %d query %d is image %d at %v, journal records image %d at %v",
				p.next-1, i, q.Image.ID, q.Incentive, sub.ImageIDs[i], sub.Incentives[i])
		}
	}
	if p.resync != nil {
		_, err := p.resync.Submit(clk, ctx, queries)
		if outage := errors.Is(err, crowd.ErrUnavailable); outage != sub.Unavailable {
			return nil, fmt.Errorf("core: replay resync diverged: interaction %d live outage=%v, journal records outage=%v",
				p.next-1, outage, sub.Unavailable)
		} else if err != nil && !outage {
			return nil, fmt.Errorf("core: replay resync: %w", err)
		}
	}
	if sub.Unavailable {
		return nil, crowd.ErrUnavailable
	}
	if len(sub.Results) != len(queries) {
		return nil, fmt.Errorf("core: replay: interaction %d records %d results for %d queries",
			p.next-1, len(sub.Results), len(queries))
	}
	// Platform results align 1:1 with the submitted queries, so image
	// pointers rebind by position.
	results := make([]crowd.QueryResult, len(sub.Results))
	for i, qr := range sub.Results {
		qr.Responses = append([]crowd.Response(nil), qr.Responses...)
		if i < len(queries) {
			qr.Query.Image = queries[i].Image
		}
		results[i] = qr
	}
	return results, nil
}

func (p *replayPlatform) Spent() float64 {
	if p.resync != nil {
		return p.resync.Spent()
	}
	return 0
}

// ReplayCycle re-executes one journaled cycle against the recorded crowd
// outcomes, driving the exact same state transitions (weight updates,
// bandit accounting, CQC aggregation, retraining) the original cycle
// performed. registry maps image IDs to the live image objects. With
// resync set the live platform is advanced through the recorded
// interactions as a side effect (see replayPlatform). A pending
// bootstrap runs before the replayed cycle.
func (cl *CrowdLearn) ReplayCycle(rec JournalCycle, registry map[int]*imagery.Image, resync bool) error {
	images := make([]*imagery.Image, len(rec.ImageIDs))
	for i, id := range rec.ImageIDs {
		im, ok := registry[id]
		if !ok {
			return fmt.Errorf("core: replay cycle %d references image %d absent from the registry", rec.Index, id)
		}
		images[i] = im
	}
	live := cl.platform
	rp := &replayPlatform{subs: rec.Submissions}
	if resync {
		rp.resync = live
	}
	cl.platform = rp
	cl.replaying = true
	defer func() {
		cl.platform = live
		cl.replaying = false
	}()
	if _, err := cl.RunCycle(CycleInput{Index: rec.Index, Context: rec.Context, Images: images}); err != nil {
		return fmt.Errorf("core: replay cycle %d: %w", rec.Index, err)
	}
	if rp.next != len(rec.Submissions) {
		return fmt.Errorf("core: replay cycle %d consumed %d of %d journaled crowd interactions",
			rec.Index, rp.next, len(rec.Submissions))
	}
	return nil
}

// ResyncCycle advances the live crowd platform through a journaled
// cycle's interactions without touching any learned state — the path for
// cycles already covered by a checkpoint, where only the simulated
// platform's random stream still needs to catch up to where the
// original process left it.
func (cl *CrowdLearn) ResyncCycle(rec JournalCycle, registry map[int]*imagery.Image) error {
	for si, sub := range rec.Submissions {
		if len(sub.Incentives) != len(sub.ImageIDs) {
			return fmt.Errorf("core: resync cycle %d interaction %d record is malformed (%d image IDs, %d incentives)",
				rec.Index, si, len(sub.ImageIDs), len(sub.Incentives))
		}
		queries := make([]crowd.Query, len(sub.ImageIDs))
		for i, id := range sub.ImageIDs {
			im, ok := registry[id]
			if !ok {
				return fmt.Errorf("core: resync cycle %d references image %d absent from the registry", rec.Index, id)
			}
			queries[i] = crowd.Query{Image: im, Incentive: sub.Incentives[i]}
		}
		_, err := cl.platform.Submit(simclock.New(), rec.Context, queries)
		if outage := errors.Is(err, crowd.ErrUnavailable); outage != sub.Unavailable {
			return fmt.Errorf("core: resync cycle %d interaction %d: live outage=%v, journal records outage=%v",
				rec.Index, si, outage, sub.Unavailable)
		} else if err != nil && !outage {
			return fmt.Errorf("core: resync cycle %d interaction %d: %w", rec.Index, si, err)
		}
	}
	return nil
}
