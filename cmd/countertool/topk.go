// The topk subcommand: a Zipf heavy-hitters driver for a running counterd
// cluster (or single daemon) serving the topk engine. It pushes a skewed
// stream through the ring-aware smart client, tallies the exact frequency
// table locally, then asks the cluster for its top-k (every partition
// primary's GET /v1/topk, merged client-side) and reports how faithfully the
// SpaceSaving-over-Morris summaries recovered the true heavy hitters —
// recall, rank agreement, and per-key estimate error.
//
// The interesting demo is durability: load a stream, kill -9 a node (or the
// daemon), restart it, run `countertool topk -events 0` again — the
// recovered ring reports the same heavy hitters (see docs/ENGINES.md).
//
//	counterd -cluster -engine topk ... (×3) &
//	countertool topk -nodes http://localhost:8347 -events 1000000 -zipf 1.1 -k 10
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/client"
	"repro/internal/stream"
	"repro/internal/xrand"
)

func topkMain(args []string) {
	fs := flag.NewFlagSet("topk", flag.ExitOnError)
	var (
		nodes  = fs.String("nodes", "http://localhost:8347", "comma-separated seed node base URLs")
		events = fs.Int("events", 1_000_000, "events to send before querying (0 = query only)")
		batch  = fs.Int("batch", 1024, "keys per POST /v1/inc request")
		zipfS  = fs.Float64("zipf", 1.1, "Zipf exponent of the key popularity law")
		k      = fs.Int("k", 10, "heavy hitters to query")
		seed   = fs.Uint64("seed", 42, "key stream seed")
	)
	fs.Parse(args)
	seeds := strings.Split(*nodes, ",")

	c, err := client.New(client.Config{Seeds: seeds, BatchSize: *batch})
	if err != nil {
		fmt.Fprintf(os.Stderr, "topk: %v\n", err)
		os.Exit(1)
	}
	n := c.N()
	fmt.Printf("cluster: %d keys, %d partitions, members %v\n",
		n, c.Partitions(), c.Ring().Members())

	truth := make([]uint64, n)
	if *events > 0 {
		src := stream.NewZipf(uint64(n), *zipfS, xrand.NewSeeded(*seed))
		for i := 0; i < *events; i++ {
			key := int(src.Next())
			truth[key]++
			if err := c.Inc(key); err != nil {
				fmt.Fprintf(os.Stderr, "topk: inc: %v\n", err)
				os.Exit(1)
			}
		}
		if err := c.Flush(); err != nil {
			fmt.Fprintf(os.Stderr, "topk: flush: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("acked %d Zipf(%.2f) events\n", *events, *zipfS)
	}

	res, err := c.Query(context.Background(), client.QueryOptions{Kind: client.KindTopK, K: *k})
	if err != nil {
		fmt.Fprintf(os.Stderr, "topk: query: %v\n", err)
		os.Exit(1)
	}
	top := res.TopK
	if *events == 0 {
		fmt.Printf("%-6s %-8s %s\n", "rank", "key", "estimate")
		for i, e := range top {
			fmt.Printf("%-6d %-8d %.0f\n", i+1, e.Key, e.Estimate)
		}
		return
	}

	// Rank the locally tallied truth and line the two up.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		if truth[order[i]] != truth[order[j]] {
			return truth[order[i]] > truth[order[j]]
		}
		return order[i] < order[j]
	})
	trueTop := order[:min(*k, n)]
	inTrue := make(map[int]int, len(trueTop))
	for rank, key := range trueTop {
		inTrue[key] = rank + 1
	}

	fmt.Printf("%-6s %-8s %-12s %-12s %-10s %s\n",
		"rank", "key", "estimate", "true count", "err", "true rank")
	hits := 0
	for i, e := range top {
		tr := truth[e.Key]
		rankNote := "-"
		if r, ok := inTrue[e.Key]; ok {
			rankNote = fmt.Sprintf("#%d", r)
			hits++
		}
		errNote := "n/a"
		if tr > 0 {
			errNote = fmt.Sprintf("%+.1f%%", 100*(e.Estimate-float64(tr))/float64(tr))
		}
		fmt.Printf("%-6d %-8d %-12.0f %-12d %-10s %s\n", i+1, e.Key, e.Estimate, tr, errNote, rankNote)
	}
	fmt.Printf("\nrecall of the true top-%d: %d/%d (%.0f%%)\n",
		len(trueTop), hits, len(trueTop), 100*float64(hits)/float64(len(trueTop)))
	if hits < len(trueTop) {
		fmt.Printf("missing true heavy hitters:")
		reported := make(map[int]bool, len(top))
		for _, e := range top {
			reported[e.Key] = true
		}
		for rank, key := range trueTop {
			if !reported[key] {
				fmt.Printf(" #%d key %d (count %d)", rank+1, key, truth[key])
			}
		}
		fmt.Println()
	}
}
