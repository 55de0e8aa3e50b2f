package cluster

import (
	"bytes"
	"fmt"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bank"
	"repro/internal/engine"
)

// deltaClusterConfig sizes partitions so a narrow register neighborhood is a
// small fraction of a partition's blocks: 8192 keys over 4 partitions is
// 2048 registers — 16 snapcodec blocks — per partition, so divergence
// confined to one block passes the "fewer than half the blocks" delta
// threshold with plenty of room.
func deltaClusterConfig() testClusterConfig {
	cc := defaultClusterConfig()
	cc.n = 8192
	cc.partitions = 4
	cc.shards = 8
	cc.rf = 2
	return cc
}

// divergeBlock applies extra increments for a narrow key neighborhood
// directly to one node's store — bypassing the cluster write path, so no
// replication or hint ever tells the peer — until the pair's block
// fingerprints for partition 0 disagree in at least one but fewer than half
// the blocks (the delta anti-entropy window).
func divergeBlock(t *testing.T, ahead, behind *testNode) {
	t.Helper()
	keys := make([]int, 0, 64)
	for k := 16; k < 48; k++ {
		keys = append(keys, k, k)
	}
	for try := 0; ; try++ {
		if err := ahead.st.Apply(keys); err != nil {
			t.Fatalf("diverging apply: %v", err)
		}
		ha, err := ahead.st.PartitionBlockHashes(0)
		if err != nil {
			t.Fatal(err)
		}
		hb, err := behind.st.PartitionBlockHashes(0)
		if err != nil {
			t.Fatal(err)
		}
		diff := 0
		for i := range ha {
			if ha[i] != hb[i] {
				diff++
			}
		}
		if diff > 0 && diff*2 < len(ha) {
			t.Logf("diverged %d of %d blocks after %d applies", diff, len(ha), try+1)
			return
		}
		if try >= 100 {
			t.Fatalf("narrow divergence never took: %d of %d blocks differ", diff, len(ha))
		}
	}
}

// TestClusterDeltaAntiEntropy: once a replica pair is byte-identical, a
// divergence confined to one register block must be repaired by the block
// delta path — the counters prove only divergent blocks traveled, and the
// pair still converges byte-identically.
func TestClusterDeltaAntiEntropy(t *testing.T) {
	if testing.Short() {
		t.Skip("2-node loopback cluster")
	}
	cc := deltaClusterConfig()
	n0 := startNode(t, t.TempDir(), "", cc, nil)
	defer n0.shutdown()
	n1 := startNode(t, t.TempDir(), "", cc, []string{n0.self})
	defer n1.shutdown()
	nodes := []*testNode{n0, n1}
	awaitMembers(t, nodes)

	driveLoad(t, nodes, cc, 30_000, 256, 7)
	awaitWholeBankConvergence(t, nodes)

	deltaBase := n0.node.aeDeltaSyncs.Value() + n1.node.aeDeltaSyncs.Value()
	savedBase := n0.node.aeBytesSaved.Value() + n1.node.aeBytesSaved.Value()
	divergeBlock(t, n1, n0)

	// Whichever side's anti-entropy loop notices first (quiescent
	// divergence gate: stable write version + mismatched partition hash)
	// must repair through the delta path, not a full snapshot exchange.
	waitUntil(t, 15*time.Second, "delta repair", func() bool {
		return n0.node.aeDeltaSyncs.Value()+n1.node.aeDeltaSyncs.Value() > deltaBase
	})
	awaitWholeBankConvergence(t, nodes)

	saved := n0.node.aeBytesSaved.Value() + n1.node.aeBytesSaved.Value() - savedBase
	var full countingWriter
	if err := n0.st.PartitionSnapshotTo(&full, 0); err != nil {
		t.Fatal(err)
	}
	// Repair bytes must be a small fraction of the full exchange: with a
	// narrow divergence the delta ships ≲ half the blocks each way, so the
	// savings must exceed half a full snapshot (in practice ~15/16 of one
	// per direction).
	if saved <= uint64(full)/2 {
		t.Fatalf("delta repair saved only %d bytes; full partition snapshot is %d", saved, int64(full))
	}
	t.Logf("delta repair saved %d bytes (full partition snapshot is %d)", saved, int64(full))
}

// TestClusterDeltaRebalanceWarmPull: a pending partition whose registers
// mostly match a warm co-owner installs through a block delta, not a full
// snapshot. Exact counters make replication deterministic (same increments →
// same registers), so the pair is byte-identical without anti-entropy — which
// the test parks to prove the delta pull alone both transfers the divergent
// blocks AND commits the install (clears the pending mark).
func TestClusterDeltaRebalanceWarmPull(t *testing.T) {
	if testing.Short() {
		t.Skip("2-node loopback cluster")
	}
	cc := deltaClusterConfig()
	cc.alg = bank.NewExactAlg(14)
	cc.aeInterval = time.Hour
	n0 := startNode(t, t.TempDir(), "", cc, nil)
	defer n0.shutdown()
	n1 := startNode(t, t.TempDir(), "", cc, []string{n0.self})
	defer n1.shutdown()
	nodes := []*testNode{n0, n1}
	awaitMembers(t, nodes)
	// Both rebalancers must have reconciled the two-node ring (that is what
	// writes the durable ownership record the test amends below).
	waitUntil(t, 10*time.Second, "both nodes ready", func() bool {
		return n0.readyz() == http.StatusOK && n1.readyz() == http.StatusOK
	})

	driveLoad(t, nodes, cc, 30_000, 256, 7)
	// Replication (not anti-entropy: it is parked) makes the exact-counter
	// replicas identical once every outbox drains and applies.
	waitUntil(t, 15*time.Second, "replicas identical", func() bool {
		b0, err0 := n0.fetch("/v1/snapshot/0")
		b1, err1 := n1.fetch("/v1/snapshot/0")
		return err0 == nil && err1 == nil && bytes.Equal(b0, b1)
	})

	divergeBlock(t, n0, n1)

	// Re-mark partition 0 pending on n1, as a ring flip that re-owned a
	// mostly-warm copy would: the rebalancer must notice the narrow diff
	// and install via the delta pull.
	ver, pending, frozen, owned, ok := n1.st.Ownership()
	if !ok {
		t.Fatal("n1 has no ownership record")
	}
	if err := n1.st.SetOwnership(ver, append(pending, 0), frozen, owned); err != nil {
		t.Fatal(err)
	}
	if !n1.st.PendingPartition(0) {
		t.Fatal("partition 0 not pending after re-mark")
	}

	installed, err := n1.node.reb.pullDelta(n0.self, 0)
	if err != nil {
		t.Fatalf("pullDelta: %v", err)
	}
	if !installed {
		t.Fatal("pullDelta fell back to a full transfer for a one-block diff")
	}
	if n1.st.PendingPartition(0) {
		t.Fatal("delta install did not clear the pending mark")
	}
	if got := n1.node.rebDeltaPull.Value(); got != 1 {
		t.Fatalf("rebalance delta handoff counter = %d, want 1", got)
	}

	// The delta max-join converged the divergent blocks: with exact
	// registers the partition snapshots are byte-identical again.
	b0, err := n0.fetch("/v1/snapshot/0")
	if err != nil {
		t.Fatal(err)
	}
	b1, err := n1.fetch("/v1/snapshot/0")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b0, b1) {
		t.Fatal("partition 0 snapshots differ after the delta install")
	}
}

// TestClusterWindowHintDrainHealsOriginBucket: replication hints queued for
// a dead peer carry their origin bucket epoch, so a drain that lands AFTER
// the window rotated heals the bucket the events belong to instead of
// smearing them into the drain-time bucket. Anti-entropy is parked and the
// counters are exact, so the healed buckets are attributable to the tagged
// drain alone.
func TestClusterWindowHintDrainHealsOriginBucket(t *testing.T) {
	if testing.Short() {
		t.Skip("2-node loopback cluster")
	}
	clk := &atomic.Uint64{}
	cc := deltaClusterConfig()
	cc.engine = engine.KindWindow
	cc.buckets = 4
	cc.bucketDur = time.Minute
	cc.clock = clk.Load
	cc.alg = bank.NewExactAlg(14)
	cc.aeInterval = time.Hour

	dir1 := t.TempDir()
	n0 := startNode(t, t.TempDir(), "", cc, nil)
	defer n0.shutdown()
	n1 := startNode(t, dir1, "", cc, []string{n0.self})
	nodes := []*testNode{n0, n1}
	awaitMembers(t, nodes)

	post := func(key, times int) {
		t.Helper()
		keys := make([]int, 256)
		for i := range keys {
			keys[i] = key
		}
		for sent := 0; sent < times; sent += len(keys) {
			if err := n0.postInc(keys); err != nil {
				t.Fatalf("inc: %v", err)
			}
		}
	}

	// Epoch 0: background traffic while both replicas are up. Let its
	// replication drain fully before the kill — exact counters are not
	// idempotent, so the test must not leave a chunk in the
	// shipped-but-not-truncated window where a re-send would double-count.
	post(7, 1024)
	waitUntil(t, 10*time.Second, "epoch-0 replication drained", func() bool {
		var info Info
		if err := getJSON(n0.self+"/v1/cluster/info", &info); err != nil {
			return false
		}
		return info.OutboxPending[n1.self] == 0
	})

	// Kill n1; everything n0 acks from here on queues as hints for it.
	n1.kill()

	// Epoch 1: the origin bucket of the delayed hints.
	clk.Store(1)
	post(100, 5120)

	// Epoch 2: the window rotates on while the peer is still down.
	clk.Store(2)
	post(1100, 5120)

	// Restart n1 and let the hints drain. Without epoch tags both phases
	// would land in whatever bucket n1 is in at drain time.
	n1 = startNode(t, dir1, n1.addr, cc, []string{n0.self})
	defer n1.shutdown()
	nodes = []*testNode{n0, n1}
	awaitMembers(t, nodes)
	waitUntil(t, 15*time.Second, "hints drained to n1", func() bool {
		var info Info
		if err := getJSON(n0.self+"/v1/cluster/info", &info); err != nil {
			return false
		}
		return info.OutboxPending[n1.self] == 0
	})
	if n1.node.replRecvd.Value() == 0 {
		t.Fatal("restarted node applied no replication keys")
	}

	// The drained epoch-2 records must have ticked n1's window to the
	// origin epoch of the newest hints.
	if got := n1.st.WindowEpoch(); got != 2 {
		t.Fatalf("n1 window epoch = %d after tagged drain, want 2", got)
	}

	// Trailing bucket (epoch 2 only): the epoch-1 phase must NOT appear —
	// that is exactly the smear the tags remove — while the epoch-2 phase
	// counts in full. Exact registers make both assertions sharp.
	recent := fetchWindowTopK(t, n1, 5, "1")
	counts := map[int]float64{}
	for _, e := range recent {
		counts[e.Key] = e.Estimate
	}
	if _, smeared := counts[100]; smeared {
		t.Fatalf("epoch-1 key 100 smeared into the trailing bucket: %+v", recent)
	}
	if got := counts[1100]; got != 5120 {
		t.Fatalf("trailing bucket count for key 1100 = %.0f, want 5120: %+v", got, recent)
	}

	// Two trailing buckets (epochs 1+2): the delayed phase healed into its
	// origin bucket with its full count.
	wider := fetchWindowTopK(t, n1, 5, "2")
	counts = map[int]float64{}
	for _, e := range wider {
		counts[e.Key] = e.Estimate
	}
	if got := counts[100]; got != 5120 {
		t.Fatalf("window=2 count for key 100 = %.0f, want 5120: %+v", got, wider)
	}

	// Both replicas agree on the windowed report (replication alone
	// converged them; anti-entropy never ran).
	for _, win := range []string{"1", "2", "4"} {
		a := fetchWindowTopK(t, n0, 5, win)
		b := fetchWindowTopK(t, n1, 5, win)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("window=%s top-k diverges: %v vs %v", win, a, b)
		}
	}
}
