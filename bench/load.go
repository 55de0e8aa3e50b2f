package main

import (
	"math"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// actor is one kind of client in a phase. With rate 0 it is a closed loop:
// each worker sends its next request when the previous answer arrives, the
// way the smart client and the replica fan-out behave. With rate > 0 it is an
// open loop: request i is due at start + i/rate whatever the server is
// doing, and its latency counts from that due time, so a stall is charged to
// every request it delayed and not only to the one that hit it.
type actor struct {
	name    string
	workers int
	rate    float64 // requests per second over all workers; 0 = closed loop
	// do sends one request on worker w's own connection and returns the
	// events it got acknowledged. An error is a failed request.
	do func(w int) (events int, err error)
}

type sample struct {
	at     time.Duration // offset into the phase: due time if paced, completion if closed
	lat    time.Duration
	late   time.Duration // how long after its due time a paced request was sent
	events int
	ok     bool
}

// totals counts every request an actor made in a phase, including the ones
// that finished after the last slice boundary and so belong to no slice.
type totals struct {
	requests, failed int
	events           int64
}

type phaseResult struct {
	elapsed  time.Duration // start to the last worker's return
	slices   map[string][]slice
	lats     map[string][][]float64 // per actor and slice: latencies in ms, ascending, failures +Inf
	totals   map[string]totals
	firstErr error
}

// sleepUntil blocks the calling thread in nanosleep(2) until t. time.Sleep
// will not do for a pacer: an idle Go runtime parks in epoll_wait, whose
// timeout counts whole milliseconds, so every request left 0.5 to 1 ms after
// it was due and the paced latency, which counts from the due time, measured
// that and little else.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // a signal ends it early; the loop sleeps the rest
	}
}

// runPhase drives the actors side by side for want slices of sliceLen. A
// slice during which the hypervisor stole more than maxStealPct of the CPU
// is followed by a replacement, for as long as *extra lasts; the noisy slice
// stays in the record (overSlices leaves it out of the medians).
func runPhase(actors []actor, sliceLen time.Duration, want int, extra *int) phaseResult {
	var (
		stop    atomic.Bool
		wg      sync.WaitGroup
		errOnce sync.Once
		end     atomic.Int64 // the phase's length, set just before stop
		res     = phaseResult{slices: make(map[string][]slice), lats: make(map[string][][]float64), totals: make(map[string]totals)}
		perW    = make([][][]sample, len(actors))
		start   = time.Now()
	)
	for ai, a := range actors {
		perW[ai] = make([][]sample, a.workers)
		var seq atomic.Int64
		for w := 0; w < a.workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var out []sample
				defer func() { perW[ai][w] = out }()
				for !stop.Load() {
					s := sample{}
					t0 := time.Now()
					if a.rate > 0 {
						due := time.Duration(float64(seq.Add(1)-1) / a.rate * float64(time.Second))
						if due > t0.Sub(start) {
							sleepUntil(start.Add(due))
							t0 = time.Now()
						}
						s.at, s.late = due, t0.Sub(start)-due
						// A request due inside the phase is sent even if the
						// phase has ended meanwhile: dropping it would hide
						// the backlog exactly when there is one.
						if stop.Load() && due >= time.Duration(end.Load()) {
							return
						}
					}
					ev, err := a.do(w)
					done := time.Now()
					if a.rate > 0 {
						s.lat = done.Sub(start) - s.at
					} else {
						s.at, s.lat = done.Sub(start), done.Sub(t0)
					}
					s.events, s.ok = ev, err == nil
					if err != nil {
						errOnce.Do(func() { res.firstErr = err })
					}
					out = append(out, s)
				}
			}()
		}
	}

	var steal []float64
	before := readCPUTimes()
	for quiet := 0; ; {
		time.Sleep(time.Until(start.Add(time.Duration(len(steal)+1) * sliceLen)))
		now := readCPUTimes()
		steal = append(steal, stealPct(before, now))
		before = now
		if steal[len(steal)-1] <= maxStealPct {
			quiet++
		}
		if quiet >= want || len(steal) >= want+*extra {
			break
		}
	}
	end.Store(int64(time.Duration(len(steal)) * sliceLen))
	stop.Store(true)
	wg.Wait()
	res.elapsed = time.Since(start)
	*extra -= len(steal) - want

	for ai, a := range actors {
		var all []sample
		for _, s := range perW[ai] {
			all = append(all, s...)
		}
		var t totals
		for _, s := range all {
			t.requests++
			if s.ok {
				t.events += int64(s.events)
			} else {
				t.failed++
			}
		}
		res.totals[a.name] = t
		res.slices[a.name], res.lats[a.name] = cutSlices(all, sliceLen, steal)
	}
	return res
}

// cutSlices sorts samples into slices by their at offset and reduces each.
// Samples at or past the last boundary belong to no slice: a closed-loop
// request that finished after the end, or a paced one due after it.
func cutSlices(all []sample, sliceLen time.Duration, steal []float64) ([]slice, [][]float64) {
	lats := make([][]float64, len(steal))
	out := make([]slice, len(steal))
	for _, s := range all {
		i := int(s.at / sliceLen)
		if i < 0 || i >= len(out) {
			continue
		}
		out[i].Requests++
		ms := math.Inf(1)
		if s.ok {
			ms = float64(s.lat) / float64(time.Millisecond)
			out[i].EventsPS += float64(s.events)
		} else {
			out[i].Failed++
		}
		lats[i] = append(lats[i], ms)
		out[i].LateMaxMS = math.Max(out[i].LateMaxMS, float64(s.late)/float64(time.Millisecond))
	}
	for i := range out {
		out[i].EventsPS /= sliceLen.Seconds()
		out[i].P50 = percentile(lats[i], 0.50)
		out[i].P99 = percentile(lats[i], 0.99)
		out[i].P999 = percentile(lats[i], 0.999)
		out[i].StealPct = steal[i]
	}
	return out, lats
}

// pooled is a percentile over every request of an actor in the phase's
// quiet slices together (all slices if fewer than want were quiet). The read
// loop uses it: a slice of it holds a few hundred requests, too few for its
// own 99th percentile to keep ten samples beyond it.
func (p phaseResult) pooled(actor string, want int, q float64) (v float64, noisy bool) {
	var quiet, every []float64
	nQuiet := 0
	for i, s := range p.slices[actor] {
		every = append(every, p.lats[actor][i]...)
		if s.StealPct <= maxStealPct {
			quiet = append(quiet, p.lats[actor][i]...)
			nQuiet++
		}
	}
	if nQuiet < want {
		return percentile(every, q), true
	}
	return percentile(quiet, q), false
}
