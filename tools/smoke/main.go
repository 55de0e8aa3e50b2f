// Command smoke runs the process-level smoke scenarios against real
// counterd binaries, each on a fleet of its own under one work directory:
//
//   - grow: a 3-node ring grows to 5 under Zipf load and SIGTERMs one
//     -decommission node back to 4; every partition's owners serve
//     byte-identical snapshots and hot keys' estimates stay within the
//     sketch budget of the acked truth. It is the process-level twin of
//     TestClusterRebalanceGrowShrink.
//   - distinct: a 3-node RF=3 distinct ring loses a node to kill -9
//     mid-stream and restarts it from its directory; the nodes serve
//     byte-identical whole-engine snapshots and the same /v1/distinct
//     answer, within the HLL error bound of the exact truth, before and
//     after the crash.
//   - metrics: one cluster-mode node passes the /v1/readyz gate, takes
//     traffic, and serves a /metrics exposition that passes the shared
//     linter with the key series of every instrumented layer, and a
//     self-contained ops dashboard.
//
// The scenarios run in the order named; the first failure ends the run
// with a non-zero exit.
//
// Usage: go run ./tools/smoke -counterd bin/counterd grow distinct metrics
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
)

var scenarios = map[string]func(*fleet) error{
	"grow":     smokeGrow,
	"distinct": smokeDistinct,
	"metrics":  smokeMetrics,
}

func main() {
	counterd := flag.String("counterd", "bin/counterd", "path to the counterd binary")
	keep := flag.Bool("keep", false, "keep the work directory on exit")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: smoke [-counterd path] [-keep] scenario... (grow, distinct, metrics)")
		flag.PrintDefaults()
	}
	flag.Parse()
	log.SetFlags(log.Ltime | log.Lmicroseconds)
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	for _, name := range flag.Args() {
		if scenarios[name] == nil {
			log.Fatalf("unknown scenario %q (want grow, distinct or metrics)", name)
		}
	}
	work, err := os.MkdirTemp("", "smoke-*")
	if err != nil {
		log.Fatal(err)
	}
	err = run(*counterd, work, flag.Args())
	if *keep {
		log.Printf("work dir kept: %s", work)
	} else {
		os.RemoveAll(work)
	}
	if err != nil {
		log.Fatalf("FAIL: %v", err)
	}
}

func run(counterd, work string, names []string) error {
	for i, name := range names {
		f, err := newFleet(counterd, filepath.Join(work, fmt.Sprintf("%d-%s", i, name)))
		if err != nil {
			return err
		}
		err = scenarios[name](f)
		f.close()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}
