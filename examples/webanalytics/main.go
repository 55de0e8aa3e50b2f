// Webanalytics: the paper's motivating scenario (Section 1) — an analytics
// system maintaining one counter per page — served the way a real system
// would: a sharded bank of packed Morris registers (internal/shardbank)
// absorbing a concurrent Zipf-distributed view stream from several ingest
// goroutines, with batched increments amortizing each shard lock across
// thousands of events. With 100k pages, cutting each counter from a 64-bit
// word to a ~14-bit packed register is a 4–5× memory reduction at a few
// percent counting error — and the sharded bank sustains several times the
// single-mutex throughput while doing it.
//
// Next to the per-page bank, the same stream feeds the heavy-hitters
// engine (internal/engine.TopKEngine): SpaceSaving summaries over Morris
// slot registers, the paper's [BDW19] application. Where the bank pays
// ~14 bits per page — all 100k of them — the top-k engine answers "what
// are the most viewed pages?" from a few hundred slots, and the example
// asserts it recovers the exact true top 10.
//
// Run with: go run ./examples/webanalytics
package main

import (
	"fmt"
	"os"
	"sort"
	"sync"

	"repro/internal/bank"
	"repro/internal/engine"
	"repro/internal/shardbank"
	"repro/internal/stream"
	"repro/internal/xrand"
)

func main() {
	const (
		pages     = 100_000
		views     = 5_000_000
		ingesters = 4
		batch     = 2048
	)

	// A sharded bank of packed Morris registers: 14 bits per page, 64 lock
	// stripes, covering counts far beyond anything an exact 14-bit register
	// could hold.
	approx := shardbank.New(pages, bank.NewMorrisAlg(0.005, 14), 64, 7)
	// The exact baseline: a sharded bank of 32-bit registers (a
	// map[string]uint64 would be worse still).
	exactB := shardbank.New(pages, bank.NewExactAlg(32), 64, 7)
	// The heavy-hitters engine: 16 partition summaries × 64 Morris-register
	// slots — ~1k slots standing in for 100k per-page counters when the
	// question is only "what's hot?".
	topk, err := engine.NewTopK(pages, bank.NewMorrisAlg(0.005, 14), 16, 64, 7)
	if err != nil {
		panic(err)
	}

	// Page popularity is Zipf-distributed, as real page-view workloads are.
	// Each ingester samples its own stream slice and counts it into both
	// banks (and the top-k engine) through the batched path.
	var wg sync.WaitGroup
	for g := 0; g < ingesters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := stream.NewZipf(pages, 1.05, xrand.NewSeeded(uint64(100+g)))
			buf := make([]int, batch)
			for done := 0; done < views/ingesters; {
				keys := buf
				if rest := views/ingesters - done; rest < len(keys) {
					keys = keys[:rest]
				}
				for i := range keys {
					keys[i] = int(src.Next())
				}
				approx.IncrementBatch(keys)
				exactB.IncrementBatch(keys)
				topk.ApplyBatch(keys)
				done += len(keys)
			}
		}(g)
	}
	wg.Wait()

	// The exact bank *is* the truth (32-bit registers never saturate here),
	// so accuracy falls out of comparing the two estimate vectors.
	est := approx.EstimateAll()
	truth := exactB.EstimateAll()

	fmt.Println("page      true views   approx views   error")
	shown := 0
	for p := 0; p < pages && shown < 10; p++ {
		if truth[p] < 1000 {
			continue
		}
		fmt.Printf("page-%-4d %10.0f   %12.0f   %+.2f%%\n",
			p, truth[p], est[p], 100*(est[p]-truth[p])/truth[p])
		shown++
	}

	var sumAbsErr, count float64
	for p := 0; p < pages; p++ {
		if truth[p] == 0 {
			continue
		}
		d := est[p] - truth[p]
		if d < 0 {
			d = -d
		}
		sumAbsErr += d / truth[p]
		count++
	}
	fmt.Printf("\nmean |relative error| across %0.f touched pages: %.2f%%\n",
		count, 100*sumAbsErr/count)
	fmt.Printf("approximate bank: %8d bytes (%d bits/counter, %d shards)\n",
		approx.SizeBytes(), approx.BitsPerCounter(), approx.Shards())
	fmt.Printf("exact bank:       %8d bytes (%d bits/counter)\n",
		exactB.SizeBytes(), exactB.BitsPerCounter())
	fmt.Printf("memory saved:     %.1f×\n",
		float64(exactB.SizeBytes())/float64(approx.SizeBytes()))

	// "What's hot?" answered two ways: the exact bank ranked (the truth),
	// and the top-k engine's summary report. The engine must recover the
	// true top 10 exactly — with Zipf page views the leaders are far enough
	// apart that SpaceSaving-over-Morris nails them.
	const k = 10
	order := make([]int, pages)
	for p := range order {
		order[p] = p
	}
	sort.Slice(order, func(i, j int) bool {
		if truth[order[i]] != truth[order[j]] {
			return truth[order[i]] > truth[order[j]]
		}
		return order[i] < order[j]
	})
	report, err := topk.TopK(k, 0, pages)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\ntop-%d pages — true ranking vs heavy-hitters engine (%d bytes of slots):\n",
		k, topk.SizeBytes())
	fmt.Println("rank  true page  true views   topk page  topk estimate")
	reported := make(map[int]bool, k)
	for _, e := range report {
		reported[e.Key] = true
	}
	for i := 0; i < k; i++ {
		fmt.Printf("%-4d  page-%-5d %10.0f   page-%-5d %12.0f\n",
			i+1, order[i], truth[order[i]], report[i].Key, report[i].Estimate)
	}
	for i := 0; i < k; i++ {
		if !reported[order[i]] {
			fmt.Fprintf(os.Stderr, "FAIL: true rank-%d page-%d (%.0f views) missing from the top-%d report\n",
				i+1, order[i], truth[order[i]], k)
			os.Exit(1)
		}
	}
	fmt.Printf("recall of the true top-%d: %d/%d ✓\n", k, k, k)
}
