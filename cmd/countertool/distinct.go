// The distinct subcommand: a Zipf unique-count driver for a running
// counterd cluster (or single daemon) serving the distinct engine. It
// pushes a skewed stream through the ring-aware smart client while tracking
// the exact set of keys touched, then asks the cluster for its cardinality
// (every partition's GET /v1/distinct, summed client-side — partitions tile
// disjoint key ranges, so the scalars are additive) and reports the
// estimate's relative error against the HLL 1.04/sqrt(m) standard error.
//
// The interesting demo is idempotence: kill -9 a node mid-stream, restart
// it, run `countertool distinct -events 0` again — the healed ring reports
// the same cardinality, because register-max repair cannot double-count
// (see docs/ENGINES.md).
//
//	counterd -cluster -engine distinct ... (×3) &
//	countertool distinct -nodes http://localhost:8347 -events 1000000 -zipf 1.2
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"repro/internal/client"
	"repro/internal/stream"
	"repro/internal/xrand"
)

func distinctMain(args []string) {
	fs := flag.NewFlagSet("distinct", flag.ExitOnError)
	var (
		nodes     = fs.String("nodes", "http://localhost:8347", "comma-separated seed node base URLs")
		events    = fs.Int("events", 1_000_000, "events to send before querying (0 = query only)")
		batch     = fs.Int("batch", 1024, "keys per POST /v1/inc request")
		zipfS     = fs.Float64("zipf", 1.2, "Zipf exponent of the key popularity law")
		window    = fs.String("window", "", "window-scope the query, e.g. 5m or 3 (windowed distinct engine)")
		precision = fs.Int("precision", 12, "server-side HLL precision p, for the error bound report")
		seed      = fs.Uint64("seed", 42, "key stream seed")
	)
	fs.Parse(args)
	seeds := strings.Split(*nodes, ",")

	c, err := client.New(client.Config{Seeds: seeds, BatchSize: *batch})
	if err != nil {
		fmt.Fprintf(os.Stderr, "distinct: %v\n", err)
		os.Exit(1)
	}
	n := c.N()
	parts := c.Partitions()
	fmt.Printf("cluster: %d keys, %d partitions, members %v\n", n, parts, c.Ring().Members())

	var trueCard int
	if *events > 0 {
		seen := make([]bool, n)
		src := stream.NewZipf(uint64(n), *zipfS, xrand.NewSeeded(*seed))
		for i := 0; i < *events; i++ {
			key := int(src.Next())
			if !seen[key] {
				seen[key] = true
				trueCard++
			}
			if err := c.Inc(key); err != nil {
				fmt.Fprintf(os.Stderr, "distinct: inc: %v\n", err)
				os.Exit(1)
			}
		}
		if err := c.Flush(); err != nil {
			fmt.Fprintf(os.Stderr, "distinct: flush: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("acked %d Zipf(%.2f) events touching %d distinct keys\n", *events, *zipfS, trueCard)
	}

	res, err := c.Query(context.Background(), client.QueryOptions{
		Kind: client.KindDistinct, Window: *window,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "distinct: query: %v\n", err)
		os.Exit(1)
	}
	scope := "all time"
	if *window != "" {
		scope = "window " + *window
	}
	fmt.Printf("cluster cardinality estimate (%s): %.1f\n", scope, res.Estimate)
	if *events == 0 {
		return
	}

	// The cluster-wide sketch spans partitions × 2^p registers; its standard
	// error is the single-HLL 1.04/sqrt(m) law at that total register count.
	m := float64(parts) * math.Pow(2, float64(*precision))
	se := 1.04 / math.Sqrt(m)
	rel := (res.Estimate - float64(trueCard)) / float64(trueCard)
	fmt.Printf("true cardinality %d, relative error %+.3f%% (HLL standard error ±%.3f%% at p=%d × %d partitions)\n",
		trueCard, 100*rel, 100*se, *precision, parts)
	if math.Abs(rel) > 3*se {
		fmt.Fprintf(os.Stderr, "distinct: estimate outside 3 standard errors\n")
		os.Exit(1)
	}
}
