package approxcount

// Integration tests: flows that cross module boundaries — serialize on one
// "machine" and merge on another, run counters inside applications over
// generated workloads, and validate simulated laws against the exact DP.

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/bank"
	"repro/internal/dist"
	"repro/internal/shardbank"
	"repro/internal/snapcodec"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/xrand"
)

// TestShipMergeShipPipeline models the distributed-analytics flow: shards
// count independently, serialize their state, a coordinator deserializes
// and merges, and the merged counter keeps counting.
func TestShipMergeShipPipeline(t *testing.T) {
	family := NewFamily(100)
	const shards = 5
	const perShard = 40000

	// Shards serialize their counters.
	payloads := make([][]byte, shards)
	bitLens := make([]int, shards)
	for i := 0; i < shards; i++ {
		c, err := family.NelsonYu(0.1, 1e-5)
		if err != nil {
			t.Fatal(err)
		}
		c.IncrementBy(perShard)
		payloads[i], bitLens[i], err = MarshalState(c)
		if err != nil {
			t.Fatal(err)
		}
	}

	// The coordinator restores and merges them all.
	total, err := family.NelsonYu(0.1, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	if err := UnmarshalState(total, payloads[0], bitLens[0]); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < shards; i++ {
		c, err := family.NelsonYu(0.1, 1e-5)
		if err != nil {
			t.Fatal(err)
		}
		if err := UnmarshalState(c, payloads[i], bitLens[i]); err != nil {
			t.Fatal(err)
		}
		if err := Merge(total, c); err != nil {
			t.Fatal(err)
		}
	}
	// And keeps counting afterwards.
	total.IncrementBy(100000)
	truth := float64(shards*perShard + 100000)
	if re := stats.RelativeError(total.EstimateInterpolated(), truth); re > 0.15 {
		t.Fatalf("pipeline estimate off by %v (est %v, truth %v)",
			re, total.EstimateInterpolated(), truth)
	}
}

// TestBankOverZipfWorkloadAgainstTruth drives the packed counter bank with
// a generated workload and checks aggregate error against exact truth.
func TestBankOverZipfWorkloadAgainstTruth(t *testing.T) {
	rng := xrand.NewSeeded(101)
	const pages = 5000
	const views = 500000
	src := stream.NewZipf(pages, 1.1, rng)
	b := shardbank.New(pages, bank.NewMorrisAlg(0.01, 14), 16, 101)
	truth := make([]uint64, pages)
	for i := 0; i < views; i++ {
		p := src.Next()
		b.Increment(int(p))
		truth[p]++
	}
	var errs stats.Summary
	for p := 0; p < pages; p++ {
		if truth[p] < 100 {
			continue
		}
		errs.Add(stats.SignedRelativeError(b.Estimate(p), float64(truth[p])))
	}
	if errs.N() == 0 {
		t.Fatal("no hot pages in workload")
	}
	if math.Abs(errs.Mean()) > 0.05 {
		t.Fatalf("bank biased on workload: mean rel err %v over %d pages", errs.Mean(), errs.N())
	}
	// Snapshot → restore → identical estimates.
	v := b.Freeze()
	snap := &snapcodec.Snapshot{N: pages, Shards: b.Shards(), Seed: b.Seed(), Source: v}
	if err := snap.SetAlg(b.Algorithm()); err != nil {
		t.Fatal(err)
	}
	blob, err := snapcodec.Encode(snap)
	v.Release()
	if err != nil {
		t.Fatal(err)
	}
	var r *shardbank.Restorer
	if _, err := snapcodec.DecodeInto(bytes.NewReader(blob), func(h *snapcodec.Snapshot) (snapcodec.RegisterSink, error) {
		r = shardbank.NewRestorer(h.N, bank.NewMorrisAlg(0.01, 14), 1, 102)
		return r, nil
	}); err != nil {
		t.Fatal(err)
	}
	b2, err := r.Finish(nil)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < pages; p += 97 {
		if b2.Estimate(p) != b.Estimate(p) {
			t.Fatalf("page %d estimate changed across snapshot", p)
		}
	}
}

// TestFacadeCountersMatchExactLaw validates the facade-constructed Morris
// counter against the exact DP law — the strongest end-to-end correctness
// statement available.
func TestFacadeCountersMatchExactLaw(t *testing.T) {
	const a = 0.4
	const n = 500
	const maxX = 80
	const trials = 60000
	family := NewFamily(102)
	counts := make([]uint64, maxX+1)
	for i := 0; i < trials; i++ {
		c := family.Morris(a)
		c.IncrementBy(n)
		x := c.X()
		if x > maxX {
			x = maxX
		}
		counts[x]++
	}
	exact := dist.Morris(a, n, maxX)
	tv := stats.TotalVariation(stats.NormalizeCounts(counts), exact)
	if tv > 0.02 {
		t.Fatalf("facade Morris law deviates from exact DP: TV = %v", tv)
	}
}

// TestCorruptStateRejectedEverywhere fuzzes decode paths with garbage: the
// counters must either reject with an error or land in a consistent state —
// never panic.
func TestCorruptStateRejectedEverywhere(t *testing.T) {
	family := NewFamily(103)
	rng := xrand.NewSeeded(104)
	build := func() []Counter {
		ny, err := family.NelsonYu(0.2, 1e-4)
		if err != nil {
			t.Fatal(err)
		}
		return []Counter{ny, family.Morris(0.1), family.MorrisPlus(0.2, 1e-4), family.Csuros(17, 12), family.Exact()}
	}
	for trial := 0; trial < 300; trial++ {
		garbage := make([]byte, rng.Intn(20))
		for i := range garbage {
			garbage[i] = byte(rng.Uint64())
		}
		for _, c := range build() {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s panicked on garbage decode: %v", c.Name(), r)
					}
				}()
				err := UnmarshalState(c, garbage, len(garbage)*8)
				if err != nil {
					return // rejected: fine
				}
				// Accepted: the counter must remain usable.
				c.IncrementBy(10)
				_ = c.Estimate()
				_ = c.StateBits()
			}()
		}
	}
}

// TestHeterogeneousMergeRejected ensures Merge across counter families and
// parameters fails loudly rather than corrupting state.
func TestHeterogeneousMergeRejected(t *testing.T) {
	family := NewFamily(105)
	ny1, err := family.NelsonYu(0.2, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	ny2, err := family.NelsonYu(0.25, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		dst, src Counter
	}{
		{ny1, ny2},                               // parameter mismatch
		{ny1, family.Morris(0.1)},                // family mismatch
		{family.Morris(0.1), family.Morris(0.2)}, // base mismatch
		{family.Morris(0.1), family.Exact()},     // family mismatch
		{family.MorrisPlus(0.2, 1e-4), ny1},      // family mismatch
	}
	for i, c := range cases {
		if err := Merge(c.dst, c.src); err == nil {
			t.Fatalf("case %d: heterogeneous merge accepted", i)
		}
	}
}
