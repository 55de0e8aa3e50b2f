// The windowed subcommand: a Zipf-with-drift driver for a running counterd
// cluster (or single daemon) serving the window engine. It pushes several
// phases of a skewed stream whose hot set SHIFTS between phases — each
// phase separated by at least one bucket rotation — then asks the cluster
// two questions: the all-window top-k (dominated by the oldest, largest
// phase) and the trailing-window top-k (which must have forgotten the old
// hot set and rank the most recent phase's keys). The exact per-phase truth is
// tallied locally, so the report shows, per query, how faithfully the
// windowed registers tracked the drift.
//
// The durability demo mirrors `countertool topk`: load the phases, kill -9
// a node, restart it, rerun with -events 0 — the recovered ring reports
// the same windowed top-k, because bucket rotation replays from WAL tick
// records rather than the wall clock (see docs/ENGINES.md).
//
//	counterd -cluster -engine window -bucket 2s -window 20s ... (×3) &
//	countertool windowed -nodes http://localhost:8347 -events 300000 -phases 3
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/xrand"
)

func windowedMain(args []string) {
	fs := flag.NewFlagSet("windowed", flag.ExitOnError)
	var (
		nodes     = fs.String("nodes", "http://localhost:8347", "comma-separated seed node base URLs")
		events    = fs.Int("events", 300_000, "total events across all phases (0 = query only)")
		phases    = fs.Int("phases", 3, "drift phases; the hot set rotates each phase")
		batch     = fs.Int("batch", 1024, "keys per POST /inc request")
		zipfS     = fs.Float64("zipf", 1.2, "Zipf exponent of the key popularity law")
		k         = fs.Int("k", 10, "heavy hitters to query")
		seed      = fs.Uint64("seed", 42, "key stream seed")
		minRecall = fs.Float64("min-recall", 0.7, "exit nonzero if the windowed recall of the last phase's true top-k falls below this")
	)
	fs.Parse(args)
	seeds := strings.Split(*nodes, ",")

	c, err := client.New(client.Config{Seeds: seeds, BatchSize: *batch})
	if err != nil {
		fatalf("windowed: %v", err)
	}
	n := c.N()

	// The bucket geometry comes from the serving nodes, not a local flag:
	// phase pacing must match the ring the daemons actually rotate.
	stats := fetchStats(seeds[0])
	if stats.Engine != engine.KindWindow || stats.BucketNanos <= 0 {
		fatalf("windowed: %s serves engine %q; start counterd with -engine window", seeds[0], stats.Engine)
	}
	bucket := time.Duration(stats.BucketNanos)
	fmt.Printf("cluster: %d keys, %d partitions, window %d × %v buckets, members %v\n",
		n, c.Partitions(), stats.WindowBuckets, bucket, c.Ring().Members())

	if *events > 0 && *phases >= 1 {
		drivePhases(c, n, *events, *phases, *zipfS, *seed, bucket)
	}

	// Query both horizons. The trailing window covers roughly one bucket —
	// the one the last phase just wrote — and must rank the drifted hot set.
	fullRes, err := c.Query(context.Background(), client.QueryOptions{Kind: client.KindTopK, K: *k})
	if err != nil {
		fatalf("windowed: full-window query: %v", err)
	}
	recentRes, err := c.Query(context.Background(), client.QueryOptions{Kind: client.KindTopK, K: *k, Window: "1"})
	if err != nil {
		fatalf("windowed: trailing-window query: %v", err)
	}
	full, recent := fullRes.TopK, recentRes.TopK
	if *events == 0 {
		printPlain("full window", full)
		printPlain("trailing bucket", recent)
		return
	}

	// Recompute the truth the driver just produced (same seeds, no state
	// needed) and line the reports up against it.
	totalTruth, lastTruth := replayTruth(n, *events, *phases, *zipfS, *seed)
	fmt.Printf("\nfull window (expect the all-phase heavy hitters):\n")
	fullRecall := report(full, totalTruth, *k)
	fmt.Printf("\ntrailing bucket (expect phase %d's drifted hot set):\n", *phases-1)
	lastRecall := report(recent, lastTruth, *k)
	fmt.Printf("\nrecall: full-window %d%%, trailing-bucket %d%% of the drifted top-%d\n",
		int(100*fullRecall), int(100*lastRecall), *k)
	if lastRecall < *minRecall {
		fatalf("windowed: drifted top-k not tracked: trailing recall %.0f%% < %.0f%%",
			100*lastRecall, 100**minRecall)
	}
}

// phaseKey maps a Zipf rank to a key for phase p: the hot set rotates by
// n/phases keys each phase, so consecutive phases have (mostly) disjoint
// heavy hitters.
func phaseKey(rank uint64, p, n, phases int) int {
	return (int(rank) + p*(n/phases)) % n
}

// drivePhases sends events/phases events per phase, sleeping past a bucket
// rotation between phases so each phase lands in its own bucket(s).
func drivePhases(c *client.Client, n, events, phases int, zipfS float64, seed uint64, bucket time.Duration) {
	perPhase := events / phases
	for p := 0; p < phases; p++ {
		src := stream.NewZipf(uint64(n), zipfS, xrand.NewSeeded(seed+uint64(p)))
		for i := 0; i < perPhase; i++ {
			if err := c.Inc(phaseKey(src.Next(), p, n, phases)); err != nil {
				fatalf("windowed: inc: %v", err)
			}
		}
		if err := c.Flush(); err != nil {
			fatalf("windowed: flush: %v", err)
		}
		fmt.Printf("phase %d: acked %d Zipf(%.2f) events, hot set offset %d\n",
			p, perPhase, zipfS, p*(n/phases))
		if p < phases-1 {
			// Sleep one bucket plus slack: the next phase's first write
			// ticks the ring into a fresh bucket.
			time.Sleep(bucket + bucket/4)
		}
	}
}

// replayTruth regenerates the exact per-key counts of the whole run and of
// its final phase.
func replayTruth(n, events, phases int, zipfS float64, seed uint64) (total, last []uint64) {
	total = make([]uint64, n)
	last = make([]uint64, n)
	perPhase := events / phases
	for p := 0; p < phases; p++ {
		src := stream.NewZipf(uint64(n), zipfS, xrand.NewSeeded(seed+uint64(p)))
		for i := 0; i < perPhase; i++ {
			key := phaseKey(src.Next(), p, n, phases)
			total[key]++
			if p == phases-1 {
				last[key]++
			}
		}
	}
	return total, last
}

func printPlain(label string, top []engine.Entry) {
	fmt.Printf("%s:\n%-6s %-8s %s\n", label, "rank", "key", "estimate")
	for i, e := range top {
		fmt.Printf("%-6d %-8d %.0f\n", i+1, e.Key, e.Estimate)
	}
}

// report prints the query next to the truth ranking and returns the recall
// of the truth's top-k.
func report(top []engine.Entry, truth []uint64, k int) float64 {
	order := make([]int, len(truth))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		if truth[order[i]] != truth[order[j]] {
			return truth[order[i]] > truth[order[j]]
		}
		return order[i] < order[j]
	})
	trueTop := order[:min(k, len(order))]
	inTrue := make(map[int]int, len(trueTop))
	for rank, key := range trueTop {
		inTrue[key] = rank + 1
	}
	fmt.Printf("%-6s %-8s %-12s %-12s %s\n", "rank", "key", "estimate", "true count", "true rank")
	hits := 0
	for i, e := range top {
		rankNote := "-"
		if r, ok := inTrue[e.Key]; ok {
			rankNote = fmt.Sprintf("#%d", r)
			hits++
		}
		fmt.Printf("%-6d %-8d %-12.0f %-12d %s\n", i+1, e.Key, e.Estimate, truth[e.Key], rankNote)
	}
	return float64(hits) / float64(len(trueTop))
}

// fetchStats reads one node's /healthz.
func fetchStats(node string) server.Stats {
	resp, err := http.Get(node + "/v1/healthz")
	if err != nil {
		fatalf("windowed: %v", err)
	}
	defer resp.Body.Close()
	var s server.Stats
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		fatalf("windowed: decode /v1/healthz: %v", err)
	}
	return s
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
