package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"sort"
	"sync"
	"time"

	"coplot/pkg/coplotclient"
)

// sample is one timed request of a run.
type sample struct {
	i      int           // plan index
	dur    time.Duration // closed loop: from send; open loop: from the due time
	lag    time.Duration // open loop: how late the generator sent; -1 when the stream's previous append was still running
	status int
	err    error
	hit    bool
	sum    [sha256.Size]byte
	body   []byte // kept for the first keep plan indices only
}

// phase is the timed part of a run: its samples in plan order.
type phase struct {
	samples []sample
	wall    time.Duration
	tally   tally
}

// finish sorts the samples into plan order and counts outcomes.
func (p *phase) finish() {
	sort.Slice(p.samples, func(a, b int) bool { return p.samples[a].i < p.samples[b].i })
	for _, s := range p.samples {
		p.tally.add(s.status, s.err)
	}
}

// sendTimed sends r and records it as plan index i, timing from since.
func sendTimed(ctx context.Context, c *coplotclient.Client, r request, i, keep int, since time.Time) sample {
	body, status, hit, _, err := send(ctx, c, r)
	s := sample{i: i, dur: time.Since(since), status: status, err: err, hit: hit, sum: sha256.Sum256(body)}
	if i < keep {
		s.body = body
	}
	return s
}

// closedLoop runs the plan as one client: it sends each request when
// the previous one has answered, until dur has passed (or limit
// requests have been sent, when limit > 0). With one request in flight
// the server's -jobs fan-outs have the host's CPUs to themselves; a
// second client would put more compute goroutines than CPUs on the
// server and measure the scheduler. Requests are built before their
// clock starts.
func closedLoop(ctx context.Context, c *coplotclient.Client, next func(int) (request, error), dur time.Duration, limit, keep int) (*phase, error) {
	var p phase
	start := time.Now()
	deadline := start.Add(dur)
	for i := 0; ctx.Err() == nil && time.Now().Before(deadline) && (limit == 0 || i < limit); i++ {
		r, err := next(i)
		if err != nil {
			return nil, fmt.Errorf("building request %d: %w", i, err)
		}
		p.samples = append(p.samples, sendTimed(ctx, c, r, i, keep, time.Now()))
	}
	p.wall = time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p.finish()
	return &p, nil
}

// openLoop sends n requests on a fixed schedule of rate per second,
// request k due at k/rate after the start, whether or not the server
// has answered earlier ones. Request k belongs to stream k % feedStreams,
// and each stream sends its requests in order, so at most feedStreams
// requests are in flight. Latency runs from the due time, which charges
// a stall to every request it delays.
func openLoop(ctx context.Context, c *coplotclient.Client, next func(int) (request, error), rate float64, n, keep int) (*phase, error) {
	var (
		mu       sync.Mutex
		p        phase
		firstErr error
		wg       sync.WaitGroup
	)
	start := time.Now()
	for st := 0; st < feedStreams; st++ {
		wg.Add(1)
		go func(st int) {
			defer wg.Done()
			for k := st; k < n && ctx.Err() == nil; k += feedStreams {
				r, err := next(k)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("building request %d: %w", k, err)
					}
					mu.Unlock()
					return
				}
				due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
				lag := time.Duration(-1)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
					lag = time.Since(due)
				}
				s := sendTimed(ctx, c, r, k, keep, due)
				s.lag = lag
				mu.Lock()
				p.samples = append(p.samples, s)
				mu.Unlock()
			}
		}(st)
	}
	wg.Wait()
	p.wall = time.Since(start)
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p.finish()
	return &p, nil
}
