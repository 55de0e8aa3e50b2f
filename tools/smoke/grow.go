package main

import (
	"fmt"
	"log"
	"math"
	"time"
)

// smokeGrow boots a 3-node RF=2 ring, grows it to 5 while writers keep hitting
// the original members, then SIGTERMs a -decommission node back to 4 under
// load, verifying the handoff after each change.
func smokeGrow(f *fleet) error {
	const rf = 2
	f.args = []string{
		"-n", fmt.Sprint(keys), "-partitions", fmt.Sprint(partitions), "-shards", "8",
		"-a", "0.001", "-width", "14", "-fsync", "off", "-checkpoint", "0",
		"-cluster", "-rf", fmt.Sprint(rf),
		"-gossip", "100ms", "-antientropy", "500ms", "-rebalance", "100ms",
		"-drain-timeout", "60s", "-decommission",
	}
	truth := make([]uint64, keys)
	count := func(batch []int) {
		for _, k := range batch {
			truth[k]++
		}
	}
	if err := f.boot(3); err != nil {
		return err
	}
	log.Print("3-node ring up")
	if err := f.load(f.nodes, 30000, 11, count); err != nil {
		return err
	}
	if _, _, err := f.awaitRebalanced(f.nodes); err != nil {
		return err
	}
	writers := f.nodes[:3]

	// Grow to 5 while writers keep hitting the original members.
	loadErr := make(chan error, 1)
	go func() { loadErr <- f.load(writers, 20000, 23, count) }()
	for i := 3; i < 5; i++ {
		if _, err := f.start(); err != nil {
			<-loadErr
			return err
		}
	}
	err := f.awaitMembers(f.nodes, 5)
	if lerr := <-loadErr; lerr != nil && err == nil {
		err = fmt.Errorf("load during grow: %w", lerr)
	}
	if err != nil {
		return err
	}
	moved, streamed, err := f.awaitRebalanced(f.nodes)
	if err != nil {
		return err
	}
	if moved == 0 || streamed == 0 {
		return fmt.Errorf("grow produced no handoff traffic (moved=%d bytes=%d)", moved, streamed)
	}
	log.Printf("grow settled: %d partition installs, %d bytes streamed", moved, streamed)
	if err := f.verifyGrow(f.nodes, truth, rf, "after grow"); err != nil {
		return err
	}

	// Shrink: SIGTERM the last node (-decommission) while load continues.
	go func() { loadErr <- f.load(writers, 15000, 37, count) }()
	err = f.nodes[4].term(90 * time.Second)
	if lerr := <-loadErr; lerr != nil && err == nil {
		err = fmt.Errorf("load during shrink: %w", lerr)
	}
	if err != nil {
		return err
	}
	log.Print("node 4 decommissioned and exited")
	survivors := f.nodes[:4]
	if _, _, err := f.awaitRebalanced(survivors); err != nil {
		return err
	}
	if err := f.verifyGrow(survivors, truth, rf, "after shrink"); err != nil {
		return err
	}
	log.Print("grow: PASS: grow 3->5 and decommission 5->4 kept every acked increment")
	return nil
}

// verifyGrow checks the two cluster invariants after a membership change
// has settled: every partition has at least rf owners serving
// byte-identical snapshots, and hot keys' estimates (asked of an owner)
// track the acked truth.
func (f *fleet) verifyGrow(nodes []*node, truth []uint64, rf int, label string) error {
	// Owners by partition, from each node's own /v1/cluster/info claim.
	owners := make([][]*node, partitions)
	for _, n := range nodes {
		var info clusterInfo
		if err := f.getJSON(n.base+"/v1/cluster/info", &info); err != nil {
			return err
		}
		for _, p := range info.OwnedParts {
			owners[p] = append(owners[p], n)
		}
	}
	for p, ns := range owners {
		if len(ns) < rf {
			return fmt.Errorf("%s: partition %d has %d owners, want >= %d", label, p, len(ns), rf)
		}
	}
	if err := poll(60*time.Second, 250*time.Millisecond, func() error { return f.ownersAgree(owners) }); err != nil {
		return fmt.Errorf("%s: snapshots never converged: %w", label, err)
	}

	// Hot-key estimates from an owner, against the acked truth. Morris
	// a=0.001 has ~2.2% per-register std; 10% mean catches lost batches.
	// The signed mean tells a double count (docs/CLUSTER.md, "Known
	// issues"), always high, from lost batches, always low.
	var sumAbs, sumRel float64
	hot := 0
	for k, tr := range truth {
		if tr < 300 {
			continue
		}
		var out struct {
			Estimate float64 `json:"estimate"`
		}
		n := owners[k*partitions/keys][0]
		if err := f.getJSON(fmt.Sprintf("%s/v1/estimate/%d", n.base, k), &out); err != nil {
			return fmt.Errorf("%s: estimate key %d: %w", label, k, err)
		}
		d := (out.Estimate - float64(tr)) / float64(tr)
		sumRel += d
		sumAbs += math.Abs(d)
		hot++
	}
	if hot == 0 {
		return fmt.Errorf("%s: no hot keys to verify", label)
	}
	mean, signed := sumAbs/float64(hot), sumRel/float64(hot)
	log.Printf("%s: %d hot keys, mean |rel err| %.2f%%, signed mean %+.2f%%", label, hot, 100*mean, 100*signed)
	if mean > 0.10 {
		return fmt.Errorf("%s: mean relative error %.2f%% (signed mean %+.2f%%) exceeds the sketch budget",
			label, 100*mean, 100*signed)
	}
	return nil
}
