package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"github.com/crowdlearn/crowdlearn/internal/crowd"
	"github.com/crowdlearn/crowdlearn/internal/imagery"
	"github.com/crowdlearn/crowdlearn/internal/service"
)

// batchSize is the paper's sensing-cycle size.
const batchSize = 10

// request is one generated POST /assess call.
type request struct {
	seq     int
	context crowd.TemporalContext
	images  []*imagery.Image
	body    []byte
}

// stream generates a workload's request sequence from its seed: every
// pass over the test split is a fresh seeded shuffle cut into 10-image
// batches, contexts rotate round-robin, and campaign tags (when the
// workload has them) rotate round-robin too. The same seed gives the
// same sequence.
type stream struct {
	rng       *rand.Rand
	test      []*imagery.Image
	campaigns int
	order     []int
	next      int
}

// streamAt returns the sequence for seed advanced past its first skip
// requests.
func streamAt(seed int64, test []*imagery.Image, campaigns, skip int) *stream {
	s := &stream{rng: rand.New(rand.NewSource(seed)), test: test, campaigns: campaigns}
	for i := 0; i < skip; i++ {
		s.take()
	}
	return s
}

// take returns the next request of the sequence.
func (s *stream) take() request {
	per := len(s.test) / batchSize
	pos := s.next % per
	if pos == 0 {
		s.order = s.rng.Perm(len(s.test))
	}
	images := make([]*imagery.Image, batchSize)
	ids := make([]int, batchSize)
	for i := range images {
		images[i] = s.test[s.order[pos*batchSize+i]]
		ids[i] = images[i].ID
	}
	ctx := crowd.Contexts()[s.next%crowd.NumContexts]
	body := service.AssessRequest{
		Context:  ctx.String(),
		ImageIDs: ids,
	}
	if s.campaigns > 0 {
		body.Campaign = fmt.Sprintf("campaign-%d", s.next%s.campaigns)
	}
	raw, err := json.Marshal(body)
	if err != nil {
		panic(err) // a fixed struct of strings and ints always marshals
	}
	r := request{seq: s.next, context: ctx, images: images, body: raw}
	s.next++
	return r
}

// result is one answered request, with times as offsets from the
// run's epoch.
type result struct {
	req request
	// due is when the request was scheduled; sent when the harness
	// called the handler; bodyRead when the handler finished reading
	// the request body; done when the handler returned.
	due, sent, bodyRead, done time.Duration
	status                    int
	body                      []byte
}

// latency is the request's latency measured from its due time.
func (r result) latency() time.Duration { return r.done - r.due }

// timedBody is a request body that notes when the handler last read it.
type timedBody struct {
	r     *bytes.Reader
	epoch time.Time
	last  time.Duration
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	b.last = time.Since(b.epoch)
	return n, err
}

func (b *timedBody) Close() error { return nil }

// responseBuffer is a minimal in-process http.ResponseWriter.
type responseBuffer struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *responseBuffer) Header() http.Header { return w.header }

func (w *responseBuffer) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *responseBuffer) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.body.Write(p)
}

// call sends one request through the stack's HTTP handler in process:
// the handler decodes, admits, queues and answers it exactly as it would
// a request off the wire, without a socket in between.
func call(h http.Handler, epoch time.Time, r request, due time.Duration) result {
	body := &timedBody{r: bytes.NewReader(r.body), epoch: epoch}
	hr, err := http.NewRequestWithContext(context.Background(), http.MethodPost, "/assess", body)
	if err != nil {
		panic(err) // constant method and URL
	}
	hr.Header.Set("Content-Type", "application/json")
	w := &responseBuffer{header: make(http.Header)}
	sent := time.Since(epoch)
	h.ServeHTTP(w, hr)
	done := time.Since(epoch)
	if due < 0 {
		due = sent
	}
	return result{req: r, due: due, sent: sent, bodyRead: body.last, done: done, status: w.status, body: w.body.Bytes()}
}

// closedLoop has one client send requests back to back until the
// deadline (an offset from epoch) or until n requests when n > 0.
func closedLoop(h http.Handler, epoch time.Time, s *stream, until time.Duration, n int) []result {
	var out []result
	for (n > 0 && len(out) < n) || (n <= 0 && time.Since(epoch) < until) {
		out = append(out, call(h, epoch, s.take(), -1))
	}
	return out
}

// maxInFlight bounds the open-loop generator's concurrent requests; a
// generator that hits it falls behind its schedule, which its lateness
// then shows.
const maxInFlight = 1024

// openLoop sends requests at a fixed rate from start (an offset from
// epoch) for dur, independent of how fast they are answered, then
// waits for every answer. lateness holds each request's send time
// minus its due time.
func openLoop(h http.Handler, epoch time.Time, s *stream, rate float64, start, dur time.Duration) (out []result, lateness []time.Duration) {
	interval := time.Duration(float64(time.Second) / rate)
	n := int(dur / interval)
	out = make([]result, n)
	lateness = make([]time.Duration, n)
	sem := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		due := start + time.Duration(i)*interval
		if wait := due - time.Since(epoch); wait > 0 {
			time.Sleep(wait)
		}
		sem <- struct{}{}
		lateness[i] = time.Since(epoch) - due
		r := s.take()
		wg.Add(1)
		go func(i int, r request, due time.Duration) {
			defer wg.Done()
			out[i] = call(h, epoch, r, due)
			<-sem
		}(i, r, due)
	}
	wg.Wait()
	return out, lateness
}
