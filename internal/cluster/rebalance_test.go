package cluster

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/snapcodec"
)

// awaitRebalanced polls until every node is reconciled at the SAME ring
// version with no pending installs and no frozen copies left to hand off —
// the cluster-wide "rebalance complete" condition an operator watches on
// GET /v1/cluster/rebalance.
func awaitRebalanced(t testing.TB, nodes []*testNode) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		ok := true
		var ver string
		for i, tn := range nodes {
			s := tn.node.reb.status()
			if !s.Reconciled || len(s.Pending) > 0 || len(s.Frozen) > 0 {
				ok = false
				break
			}
			if i == 0 {
				ver = s.RingVersion
			} else if s.RingVersion != ver {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			for _, tn := range nodes {
				s := tn.node.reb.status()
				t.Logf("%s: reconciled=%v ring=%s pending=%v frozen=%v transfers=%+v",
					tn.self, s.Reconciled, s.RingVersion, s.Pending, s.Frozen, s.Transfers)
			}
			t.Fatal("rebalance never settled")
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// replicaSets snapshots partition → replica set for diffing rings across a
// membership change.
func replicaSets(r *Ring, parts int) map[int][]string {
	out := make(map[int][]string, parts)
	for p := 0; p < parts; p++ {
		out[p] = r.Replicas(p)
	}
	return out
}

// TestClusterRebalanceGrowShrink is the rebalancing acceptance test: a
// loaded 3-node RF=2 ring grows to 5 nodes under concurrent Zipf load —
// the joiners must receive the moved partitions' full history via handoff
// (not start cold) and serve reads the moment their installs commit — then
// shrinks back to 4 via a live decommission, with zero acknowledged
// increments lost across both transitions and every replica set
// byte-identical per partition at the end of each phase.
func TestClusterRebalanceGrowShrink(t *testing.T) {
	if testing.Short() {
		t.Skip("5-node loopback rebalance cluster")
	}
	cc := defaultClusterConfig()
	cc.wire = true // handoff pulls prefer the wire FETCH frame
	n0 := startNode(t, t.TempDir(), "", cc, nil)
	defer n0.shutdown()
	n1 := startNode(t, t.TempDir(), "", cc, []string{n0.self})
	defer n1.shutdown()
	n2 := startNode(t, t.TempDir(), "", cc, []string{n0.self})
	defer n2.shutdown()
	old := []*testNode{n0, n1, n2}
	awaitMembers(t, old)

	const batch = 256
	truth := make([]uint64, cc.n)
	add := func(tr []uint64) {
		for k, c := range tr {
			truth[k] += c
		}
	}

	// Build up history worth moving, and let the bootstrap installs settle
	// so the grow starts from a warm, reconciled ring.
	add(driveLoad(t, old, cc, 30_000, batch, 21))
	awaitRebalanced(t, old)
	before := replicaSets(n0.node.Ring(), cc.partitions)

	// Grow 3 → 5 while writers keep hammering the ORIGINAL members: their
	// coordinators must keep acking and buffer the moved partitions' live
	// writes toward the joiners.
	var wg sync.WaitGroup
	growLoad := make([][]uint64, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			growLoad[g] = driveLoad(t, []*testNode{old[g], old[g+1]}, cc, 20_000, batch, uint64(30+g))
		}(g)
	}
	n3 := startNode(t, t.TempDir(), "", cc, []string{n0.self})
	defer n3.shutdown()
	n4 := startNode(t, t.TempDir(), "", cc, []string{n0.self})
	nodes5 := []*testNode{n0, n1, n2, n3, n4}
	awaitMembers(t, nodes5)
	wg.Wait()
	for _, tr := range growLoad {
		add(tr)
	}
	awaitRebalanced(t, nodes5)

	// The ring actually moved ownership, and the handoff actually streamed
	// state (a cold joiner that relied on anti-entropy would show zero
	// rebalance traffic).
	after := replicaSets(n0.node.Ring(), cc.partitions)
	movedParts := 0
	for p := 0; p < cc.partitions; p++ {
		if fmt.Sprint(before[p]) != fmt.Sprint(after[p]) {
			movedParts++
		}
	}
	if movedParts == 0 {
		t.Fatal("adding two members moved no partitions")
	}
	var installed, streamed uint64
	for _, tn := range nodes5 {
		s := tn.node.reb.status()
		installed += s.Moved
		streamed += s.BytesStreamed
	}
	if installed == 0 || streamed == 0 {
		t.Fatalf("no handoff traffic: %d installs, %d bytes streamed", installed, streamed)
	}
	t.Logf("grow: %d/%d partitions changed owners, %d installs, %d bytes streamed",
		movedParts, cc.partitions, installed, streamed)

	// New owners serve reads immediately: every partition a joiner owns
	// answers GET /estimate with 200 right now — no cold window, no 421s
	// left, no waiting for anti-entropy.
	ring := n0.node.Ring()
	for _, joiner := range []*testNode{n3, n4} {
		for p := 0; p < cc.partitions; p++ {
			if !ring.Owns(joiner.self, p) {
				continue
			}
			lo, _ := snapcodec.PartitionRange(cc.n, cc.partitions, p)
			if _, err := joiner.fetch(fmt.Sprintf("/v1/estimate/%d", lo)); err != nil {
				t.Fatalf("joiner %s partition %d: %v", joiner.self, p, err)
			}
		}
	}

	// Settle and verify: replicas byte-identical per partition, estimates
	// still inside the Morris budget → nothing was lost in the move.
	add(driveLoad(t, nodes5, cc, 10_000, batch, 40))
	awaitPartitionConvergence(t, nodes5, cc.partitions)
	checkEstimates(t, nodes5, cc, truth, "after grow 3->5")

	// Shrink 5 → 4: decommission n4 while writers keep going against other
	// members. Decommission must hand off every partition n4 owned (frozen
	// copies pulled or confirmed elsewhere) before it returns.
	var shrinkWg sync.WaitGroup
	var shrinkLoad []uint64
	shrinkWg.Add(1)
	go func() {
		defer shrinkWg.Done()
		shrinkLoad = driveLoad(t, []*testNode{n0, n1, n2}, cc, 15_000, batch, 50)
	}()
	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	if err := n4.node.Decommission(dctx); err != nil {
		cancel()
		t.Fatalf("decommission: %v", err)
	}
	cancel()
	shrinkWg.Wait()
	add(shrinkLoad)
	n4.shutdown()

	nodes4 := []*testNode{n0, n1, n2, n3}
	awaitMembers(t, nodes4) // survivors see the leaver dead, ring at 4
	awaitRebalanced(t, nodes4)
	add(driveLoad(t, nodes4, cc, 10_000, batch, 60))
	awaitPartitionConvergence(t, nodes4, cc.partitions)
	checkEstimates(t, nodes4, cc, truth, "after shrink 5->4")

	// Surrendered copies were confirmed and reclaimed somewhere along the
	// way (grow made the original members surrender partitions).
	var evicted uint64
	for _, tn := range nodes4 {
		evicted += tn.node.reb.status().Evicted
	}
	if evicted == 0 {
		t.Fatal("no surrendered partition was ever evicted")
	}
}
