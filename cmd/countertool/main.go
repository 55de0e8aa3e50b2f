// Command countertool simulates approximate counters. In its default mode
// it drives a single counter: pick an algorithm and parameters, run N
// increments, and inspect the estimate, error, and state footprint — useful
// for getting a feel for the accuracy/space trade-off before wiring a
// counter into a system. The serve subcommand (see serve.go) scales that up
// to the paper's motivating system: a sharded bank of packed counters
// serving a concurrent Zipf page-view workload.
//
// Examples:
//
//	countertool -algo ny -eps 0.05 -delta 1e-6 -n 1000000
//	countertool -algo morris -a 0.01 -n 1000000
//	countertool -algo morris+ -eps 0.1 -delta 1e-4 -n 500000 -trials 100
//	countertool -algo csuros -bits 17 -n 750000
//	countertool serve -pages 100000 -events 5000000 -goroutines 8
//	countertool topk -nodes http://localhost:8347 -events 1000000 -zipf 1.1
//	countertool windowed -nodes http://localhost:8347 -events 300000 -phases 3
//	countertool distinct -nodes http://localhost:8347 -events 1000000 -zipf 1.2
//
// The topk subcommand (topk.go) drives a Zipf heavy-hitters workload
// against the topk engine and reports how well the cluster recovered the
// true top-k; windowed (windowed.go) drives a Zipf-with-drift workload
// against the window engine and verifies the trailing-window top-k tracks
// the shifting hot set; distinct (distinct.go) drives a Zipf workload
// against the distinct engine and reports the cluster's cardinality
// estimate against the exact unique count. End-to-end load tests are
// bench/run.sh's job: it boots real counterd processes (bench/README.md).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/stats"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		serveMain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "topk" {
		topkMain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "windowed" {
		windowedMain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "distinct" {
		distinctMain(os.Args[2:])
		return
	}
	var (
		algo   = flag.String("algo", "ny", "algorithm: ny | morris | morris+ | csuros | exact")
		eps    = flag.Float64("eps", 0.1, "target relative accuracy (ny, morris+)")
		delta  = flag.Float64("delta", 1e-4, "target failure probability (ny, morris+)")
		a      = flag.Float64("a", 0.01, "Morris base parameter (morris)")
		bits   = flag.Int("bits", 17, "state budget in bits (csuros)")
		n      = flag.Uint64("n", 1000000, "number of increments")
		trials = flag.Int("trials", 1, "independent runs to summarize")
		seed   = flag.Uint64("seed", 42, "PRNG seed")
	)
	flag.Parse()

	family := approxcount.NewFamily(*seed)
	newCounter := func() (approxcount.Counter, error) {
		switch *algo {
		case "ny":
			return family.NelsonYu(*eps, *delta)
		case "morris":
			return family.Morris(*a), nil
		case "morris+":
			return family.MorrisPlus(*eps, *delta), nil
		case "csuros":
			return family.CsurosForBudget(*bits, *n), nil
		case "exact":
			return family.Exact(), nil
		default:
			return nil, fmt.Errorf("unknown algorithm %q", *algo)
		}
	}

	var errSummary stats.Summary
	var bitsSummary stats.Summary
	var last approxcount.Counter
	for i := 0; i < *trials; i++ {
		c, err := newCounter()
		if err != nil {
			fmt.Fprintf(os.Stderr, "countertool: %v\n", err)
			os.Exit(2)
		}
		c.IncrementBy(*n)
		errSummary.Add(stats.SignedRelativeError(c.Estimate(), float64(*n)))
		bitsSummary.Add(float64(c.MaxStateBits()))
		last = c
	}

	fmt.Printf("algorithm      %s\n", last.Name())
	fmt.Printf("true N         %d\n", *n)
	if *trials == 1 {
		fmt.Printf("estimate       %.1f\n", last.Estimate())
		fmt.Printf("rel. error     %+.4f%%\n", 100*errSummary.Mean())
		fmt.Printf("state bits     %d (exact counter would need %d)\n",
			last.MaxStateBits(), bitLen(*n))
	} else {
		fmt.Printf("trials         %d\n", *trials)
		fmt.Printf("rel. error     mean %+.4f%%  std %.4f%%  worst %+.4f%%\n",
			100*errSummary.Mean(), 100*errSummary.StdDev(), 100*maxAbs(errSummary))
		fmt.Printf("state bits     mean %.1f  max %.0f (exact counter would need %d)\n",
			bitsSummary.Mean(), bitsSummary.Max(), bitLen(*n))
	}
}

func bitLen(v uint64) int {
	n := 0
	for ; v > 0; v >>= 1 {
		n++
	}
	return n
}

func maxAbs(s stats.Summary) float64 {
	if -s.Min() > s.Max() {
		return s.Min()
	}
	return s.Max()
}
