package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"

	"github.com/crowdlearn/crowdlearn/internal/imagery"
	"github.com/crowdlearn/crowdlearn/internal/service"
)

// maxProblems caps the check failures kept for the report.
const maxProblems = 20

// counts tallies request outcomes and returned labels.
type counts struct {
	attempted, full, shed, refused, failed int
	// labels counts returned labels, correct those equal to the
	// ground truth.
	labels, correct int
}

func (c counts) plus(o counts) counts {
	return counts{c.attempted + o.attempted, c.full + o.full, c.shed + o.shed, c.refused + o.refused,
		c.failed + o.failed, c.labels + o.labels, c.correct + o.correct}
}

func (c counts) minus(o counts) counts {
	return counts{c.attempted - o.attempted, c.full - o.full, c.shed - o.shed, c.refused - o.refused,
		c.failed - o.failed, c.labels - o.labels, c.correct - o.correct}
}

// tally checks answered requests and counts their outcomes.
type tally struct {
	// refusable allows 429 answers (the admission workload); anywhere
	// else a refusal is a failure.
	refusable bool

	counts
	fullIndexes []int
	problems    []string
}

func (t *tally) problem(format string, args ...any) {
	if len(t.problems) < maxProblems {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// add checks one answered request and returns its decoded response
// (nil unless it was answered 200 and passed every check).
func (t *tally) add(r result) *service.Response {
	t.attempted++
	switch {
	case r.status == http.StatusTooManyRequests && t.refusable:
		t.refused++
		return nil
	case r.status != http.StatusOK:
		t.failed++
		t.problem("request %d: HTTP %d: %s", r.req.seq, r.status, bytes.TrimSpace(r.body))
		return nil
	}
	var resp service.Response
	if err := json.Unmarshal(r.body, &resp); err != nil {
		t.failed++
		t.problem("request %d: undecodable response: %v", r.req.seq, err)
		return nil
	}
	if err := checkResponse(r.req, &resp); err != nil {
		t.failed++
		t.problem("request %d (cycle %d): %v", r.req.seq, resp.CycleIndex, err)
		return nil
	}
	if resp.Shed {
		t.shed++
	} else {
		t.full++
		t.fullIndexes = append(t.fullIndexes, resp.CycleIndex)
	}
	for i, a := range resp.Assessments {
		t.labels++
		if a.Label == r.req.images[i].TrueLabel {
			t.correct++
		}
	}
	return &resp
}

// checkResponse verifies one 200 answer against its request: one
// verdict per image in request order, well-formed labels and
// confidences, sources consistent with the queried set; a full cycle
// must have queried the crowd (an AI-only full cycle means the IPD
// budget ran out), and a shed answer must be AI-only throughout.
func checkResponse(req request, resp *service.Response) error {
	if len(resp.Assessments) != len(req.images) {
		return fmt.Errorf("%d assessments for %d images", len(resp.Assessments), len(req.images))
	}
	inBatch := make(map[int]bool, len(req.images))
	for _, im := range req.images {
		inBatch[im.ID] = true
	}
	queried := make(map[int]bool, len(resp.QueriedImageIDs))
	for _, id := range resp.QueriedImageIDs {
		if !inBatch[id] || queried[id] {
			return fmt.Errorf("queried image %d is not a distinct image of the batch", id)
		}
		queried[id] = true
	}
	for i, a := range resp.Assessments {
		switch {
		case a.ImageID != req.images[i].ID:
			return fmt.Errorf("assessment %d is for image %d, want %d", i, a.ImageID, req.images[i].ID)
		case a.Label < 0 || a.Label >= imagery.NumLabels || a.LabelName != a.Label.String():
			return fmt.Errorf("image %d: bad label %d %q", a.ImageID, a.Label, a.LabelName)
		case !(a.Confidence > 0 && a.Confidence <= 1) || math.IsNaN(a.Confidence):
			return fmt.Errorf("image %d: confidence %v outside (0, 1]", a.ImageID, a.Confidence)
		case queried[a.ImageID] != (a.Source == "crowd") || (a.Source != "crowd" && a.Source != "ai"):
			return fmt.Errorf("image %d: source %q disagrees with the queried set", a.ImageID, a.Source)
		}
	}
	if resp.Shed {
		if len(queried) > 0 || len(resp.DegradedImageIDs) != len(req.images) {
			return fmt.Errorf("shed answer queried the crowd or did not degrade every image")
		}
		return nil
	}
	if len(queried) == 0 {
		return fmt.Errorf("full cycle returned AI-only labels without querying the crowd (IPD budget exhausted?)")
	}
	return nil
}

// checkConsecutive reports an error unless the full cycles' indexes are
// the distinct consecutive integers from first.
func checkConsecutive(indexes []int, first int) error {
	s := append([]int(nil), indexes...)
	sort.Ints(s)
	for i, idx := range s {
		if idx != first+i {
			return fmt.Errorf("full cycle indexes are not consecutive from %d: position %d holds %d", first, i, idx)
		}
	}
	return nil
}

// samePrefix reports the first request at which two response sequences
// differ byte for byte, comparing their common prefix (-1 if none).
func samePrefix(a, b []result) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i].status != b[i].status || !bytes.Equal(a[i].body, b[i].body) {
			return i
		}
	}
	return -1
}
