// The serve subcommand: a concurrent analytics-serving driver. It stands up
// a sharded counter bank (internal/shardbank) and hammers it with a
// Zipf-distributed page-view workload from G goroutines — the paper's
// motivating system under the ROADMAP's heavy-traffic load — then reports
// throughput, accuracy against the exactly-tracked truth, and the packed
// memory footprint.
//
//	countertool serve -pages 100000 -events 5000000 -goroutines 8
//	countertool serve -algo csuros -width 16 -mantissa 10 -batch 0
package main

import (
	"flag"
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/bank"
	"repro/internal/shardbank"
	"repro/internal/stream"
	"repro/internal/xrand"
)

func serveMain(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var (
		pages      = fs.Int("pages", 100_000, "number of distinct counters (pages)")
		events     = fs.Int("events", 5_000_000, "total events across all goroutines")
		goroutines = fs.Int("goroutines", 8, "concurrent writer goroutines")
		shards     = fs.Int("shards", 64, "lock stripes (rounded to a power of two)")
		batch      = fs.Int("batch", 2048, "increment batch size (0 = unbatched)")
		algo       = fs.String("algo", "morris", "register algorithm: morris | csuros | exact")
		a          = fs.Float64("a", 0.005, "Morris base parameter")
		width      = fs.Int("width", 14, "register width in bits")
		mantissa   = fs.Int("mantissa", 8, "Csűrös mantissa bits")
		zipfS      = fs.Float64("zipf", 1.05, "Zipf exponent of the page popularity law")
		seed       = fs.Uint64("seed", 42, "PRNG seed")
	)
	fs.Parse(args)

	if *pages <= 0 || *events <= 0 || *goroutines <= 0 || *shards <= 0 {
		fmt.Fprintln(os.Stderr, "countertool serve: -pages, -events, -goroutines, and -shards must be positive")
		os.Exit(2)
	}

	alg, err := bank.Parse(*algo, *a, *width, *mantissa)
	if err != nil {
		fmt.Fprintf(os.Stderr, "countertool serve: %v\n", err)
		os.Exit(2)
	}

	// Pre-generate each goroutine's key stream so the timed section
	// measures serving, not sampling, and so truth is exact.
	perG := (*events + *goroutines - 1) / *goroutines
	streams := make([][]int, *goroutines)
	truth := make([]uint64, *pages)
	for g := range streams {
		src := stream.NewZipf(uint64(*pages), *zipfS, xrand.NewSeeded(*seed+uint64(1000*g+1)))
		keys := make([]int, perG)
		for i := range keys {
			k := int(src.Next())
			keys[i] = k
			truth[k]++
		}
		streams[g] = keys
	}

	sb := shardbank.New(*pages, alg, *shards, *seed)
	elapsed := drive(streams, func(keys []int) {
		sb.IncrementChunked(keys, *batch)
	})
	total := *goroutines * perG

	fmt.Printf("serve: %d events over %d pages, %d goroutines (GOMAXPROCS=%d)\n",
		total, *pages, *goroutines, runtime.GOMAXPROCS(0))
	fmt.Printf("bank:  %s, %d bits/counter, %d shards, batch %d\n",
		alg.Name(), sb.BitsPerCounter(), sb.Shards(), *batch)
	fmt.Printf("throughput:  %.2f M events/s  (%.1f ns/event)\n",
		float64(total)/elapsed.Seconds()/1e6, float64(elapsed.Nanoseconds())/float64(total))

	ests := sb.EstimateAll()
	var sumRel, hit float64
	for p, tr := range truth {
		if tr < 100 {
			continue
		}
		d := (ests[p] - float64(tr)) / float64(tr)
		if d < 0 {
			d = -d
		}
		sumRel += d
		hit++
	}
	if hit > 0 {
		fmt.Printf("accuracy:    mean |rel err| %.2f%% over %.0f pages with ≥100 views\n",
			100*sumRel/hit, hit)
	}
	// The honest exact baseline: registers just wide enough to hold the
	// largest possible count (the full event total), packed the same way.
	exactBits := bits.Len64(uint64(total))
	fmt.Printf("memory:      %d bytes packed (%d-bit exact registers would need %d)\n",
		sb.SizeBytes(), exactBits, (*pages*exactBits+63)/64*8)
}

// drive runs one goroutine per key stream, applying fn to its stream, and
// returns the wall-clock time for all of them to finish.
func drive(streams [][]int, fn func(keys []int)) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for _, keys := range streams {
		wg.Add(1)
		go func(keys []int) {
			defer wg.Done()
			fn(keys)
		}(keys)
	}
	wg.Wait()
	return time.Since(start)
}
