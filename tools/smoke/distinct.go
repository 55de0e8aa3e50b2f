package main

import (
	"fmt"
	"log"
	"math"
	"time"
)

// precision is the distinct ring's HLL precision: 2^10 registers a partition.
const precision = 10

// smokeDistinct boots a 3-node RF=3 ring serving the distinct engine, loads it
// while tracking the exact set of keys touched, then kill -9s node 2
// mid-stream and restarts it from its directory. Register-max repair
// cannot double-count, so the estimate must not drift through the crash.
func smokeDistinct(f *fleet) error {
	f.args = []string{
		"-n", fmt.Sprint(keys), "-partitions", fmt.Sprint(partitions), "-shards", "8",
		"-engine", "distinct", "-distinct-precision", fmt.Sprint(precision),
		"-fsync", "off", "-checkpoint", "2s",
		"-cluster", "-rf", "3",
		"-gossip", "100ms", "-antientropy", "500ms", "-rebalance", "100ms",
	}
	seen := make([]bool, keys)
	mark := func(batch []int) {
		for _, k := range batch {
			seen[k] = true
		}
	}
	if err := f.boot(3); err != nil {
		return err
	}
	log.Print("3-node distinct ring up")

	// Phase 1: Zipf load against the healthy ring, then verify.
	if err := f.load(f.nodes, 30000, 11, mark); err != nil {
		return err
	}
	if err := f.verifyDistinct(seen, "after load"); err != nil {
		return err
	}

	// kill -9 node 2 mid-stream: the survivors keep counting, their fan-out
	// for node 2 queues as hinted handoff.
	victim := f.nodes[2]
	if err := victim.kill(); err != nil {
		return err
	}
	log.Print("node 2 killed (SIGKILL)")
	if err := f.load(f.nodes[:2], 20000, 23, mark); err != nil {
		return err
	}

	// Restart node 2 from its directory on its old address: WAL replay,
	// gossip rejoin, hint drain, anti-entropy repair.
	if err := f.launch(victim); err != nil {
		return err
	}
	if err := f.awaitMembers(f.nodes, 3); err != nil {
		return err
	}
	log.Print("node 2 restarted and rejoined")
	if err := f.load(f.nodes, 15000, 37, mark); err != nil {
		return err
	}
	if err := f.verifyDistinct(seen, "after crash recovery"); err != nil {
		return err
	}
	log.Print("distinct: PASS: distinct ring survived kill -9 with byte-identical recovery and a stable cardinality")
	return nil
}

// verifyDistinct checks the distinct-ring invariants: every node serves a
// byte-identical whole-engine /v1/snapshot (RF = ring size, so all of them
// absorb the same logical stream), and every node's /v1/distinct answers
// the exact cardinality of seen within 3 standard errors of the HLL bound.
func (f *fleet) verifyDistinct(seen []bool, label string) error {
	err := poll(60*time.Second, 250*time.Millisecond, func() error { return f.identical(f.nodes, "/v1/snapshot") })
	if err != nil {
		return fmt.Errorf("%s: snapshots never converged: %w", label, err)
	}
	trueCard := 0
	for _, ok := range seen {
		if ok {
			trueCard++
		}
	}
	bound := 3 * 1.04 / math.Sqrt(float64(partitions)*math.Pow(2, precision))
	var first float64
	for i, n := range f.nodes {
		var out struct {
			Estimate float64 `json:"estimate"`
		}
		if err := f.getJSON(n.base+"/v1/distinct", &out); err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		if i == 0 {
			first = out.Estimate
		} else if out.Estimate != first {
			return fmt.Errorf("%s: node %d estimate %v != node 0's %v despite identical snapshots",
				label, i, out.Estimate, first)
		}
		rel := math.Abs(out.Estimate-float64(trueCard)) / float64(trueCard)
		if rel > bound {
			return fmt.Errorf("%s: node %d estimate %v vs true %d: rel err %.4f > %.4f",
				label, i, out.Estimate, trueCard, rel, bound)
		}
	}
	log.Printf("%s: true cardinality %d, cluster estimate %.1f (|rel err| %.3f%%, bound %.3f%%)",
		label, trueCard, first, 100*math.Abs(first-float64(trueCard))/float64(trueCard), 100*bound)
	return nil
}
