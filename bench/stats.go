package main

import (
	"encoding/json"
	"math"
	"sort"
)

// tailSamples is how many samples must lie beyond a reported percentile: a
// p99 read off fewer is one outlier's value, not a rank.
const tailSamples = 10

// pickRank returns the index into n ascending samples that answers
// quantile q, lowered until at least tailSamples samples lie beyond it (never
// below the median), and the quantile that index really is.
func pickRank(n int, q float64) (idx int, effective float64) {
	if n == 0 {
		return -1, 0
	}
	idx = int(math.Ceil(q*float64(n))) - 1
	if limit := n - 1 - tailSamples; idx > limit {
		idx = limit
	}
	if mid := (n - 1) / 2; idx < mid {
		idx = mid
	}
	return idx, float64(idx+1) / float64(n)
}

// percentile sorts lat in place (failed requests are +Inf and sort last, so
// they push every rank up) and returns the pickRank value for q.
func percentile(lat []float64, q float64) float64 {
	if len(lat) == 0 {
		return math.Inf(1)
	}
	sort.Float64s(lat)
	idx, _ := pickRank(len(lat), q)
	return lat[idx]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// slice is one fixed-length stretch of a phase: what one actor achieved in
// it and how much of the host the hypervisor took away meanwhile.
type slice struct {
	Requests  int
	Failed    int
	EventsPS  float64
	P50, P99  float64 // ms; +Inf when that rank is a failed request
	P999      float64
	LateMaxMS float64 // paced only: the latest any request left after its due time
	StealPct  float64
}

func (s slice) MarshalJSON() ([]byte, error) {
	return json.Marshal(map[string]any{
		"requests": s.Requests, "failed": s.Failed, "events_per_s": s.EventsPS,
		"p50_ms": finite(s.P50), "p99_ms": finite(s.P99), "p999_ms": finite(s.P999),
		"late_max_ms": s.LateMaxMS, "steal_pct": s.StealPct,
	})
}

func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// overSlices is a phase's reported number: reduce (the median for a
// latency, the mean for a rate) of one field over its slices. Slices whose
// steal exceeded the limit are left out while at least want quiet ones remain;
// otherwise every slice counts and the phase is flagged noisy. The slices
// themselves are printed beside it.
func overSlices(all []slice, want int, reduce func([]float64) float64, field func(slice) float64) (v float64, noisy bool) {
	quiet := make([]float64, 0, len(all))
	every := make([]float64, 0, len(all))
	for _, s := range all {
		every = append(every, field(s))
		if s.StealPct <= maxStealPct {
			quiet = append(quiet, field(s))
		}
	}
	if len(quiet) < want {
		return reduce(every), true
	}
	return reduce(quiet), false
}

// pacedTrend is what the overload rule looks at: the median latency at the
// start and at the end of a paced phase (the median over the first and the
// last fifth of the slices judged) and how late the generator ever ran. Only
// slices the hypervisor left alone are judged, and not the one right after a
// noisy one, which starts with the backlog it left: a queue that grew while
// the host took the CPU away says nothing about the program.
func pacedTrend(slices []slice) (first, last, lateMaxMS float64, judged int) {
	var p50 []float64
	for i, s := range slices {
		if s.StealPct <= maxStealPct && (i == 0 || slices[i-1].StealPct <= maxStealPct) {
			p50 = append(p50, s.P50)
			lateMaxMS = math.Max(lateMaxMS, s.LateMaxMS)
		}
	}
	if len(p50) == 0 {
		return math.NaN(), math.NaN(), 0, 0
	}
	k := max(1, len(p50)/5)
	return median(p50[:k]), median(p50[len(p50)-k:]), lateMaxMS, len(p50)
}

// overloaded is the open-loop sanity rule: a paced phase whose queue grew
// (the median latency at the end is over three times that at the start) or
// whose generator fell more than a second behind its schedule did not measure
// latency at the stated rate; the run says so beside its numbers. The
// hypervisor's doing is never called overload: with fewer than two slices to
// judge there is no verdict, and overSlices flags the run noisy instead.
func overloaded(slices []slice) bool {
	if len(slices) == 0 {
		return true
	}
	first, last, late, judged := pacedTrend(slices)
	return judged >= 2 && (last > 3*first || late > 1000)
}
