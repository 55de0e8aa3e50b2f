package cluster

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
)

// fetchDistinct asks one node for its whole-space (or window-scoped)
// GET /distinct cardinality.
func fetchDistinct(t *testing.T, tn *testNode, window string) float64 {
	t.Helper()
	path := "/v1/distinct"
	if window != "" {
		path += "?window=" + window
	}
	blob, err := tn.fetch(path)
	if err != nil {
		t.Fatalf("%s %s: %v", tn.self, path, err)
	}
	var out struct {
		Engine   string  `json:"engine"`
		Estimate float64 `json:"estimate"`
	}
	if err := json.Unmarshal(blob, &out); err != nil {
		t.Fatalf("%s %s decode: %v", tn.self, path, err)
	}
	if out.Engine != engine.KindDistinct {
		t.Fatalf("%s %s: engine %q", tn.self, path, out.Engine)
	}
	return out.Estimate
}

// distinctTruth counts the keys a truth vector saw at least once.
func distinctTruth(truth []uint64) int {
	c := 0
	for _, v := range truth {
		if v > 0 {
			c++
		}
	}
	return c
}

// TestClusterDistinctCrashRecovery is the distinct-engine acceptance test:
// a 3-node RF=3 ring counting uniques under concurrent Zipf writers, one
// node hard-killed mid-stream (its share of the load queuing as hinted
// handoff), the node restarted from its directory — after which hinted
// handoff plus anti-entropy must converge all three replicas to
// byte-identical whole-engine snapshots, and every node's GET /distinct
// must answer the true cardinality within the HLL error bound. Register-max
// is idempotent, so the crash, the replays, and the repeated repair merges
// cannot inflate the count the way they would a sum.
func TestClusterDistinctCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("3-node loopback crash cluster")
	}
	cc := defaultClusterConfig()
	cc.engine = engine.KindDistinct
	cc.distinctPrecision = 10
	cc.rf = 3 // every node replicates everything → whole snapshots converge

	dir2 := t.TempDir()
	n0 := startNode(t, t.TempDir(), "", cc, nil)
	defer n0.shutdown()
	n1 := startNode(t, t.TempDir(), "", cc, []string{n0.self})
	defer n1.shutdown()
	n2 := startNode(t, dir2, "", cc, []string{n0.self})
	nodes := []*testNode{n0, n1, n2}
	awaitMembers(t, nodes)

	const batch = 256
	truth := make([]uint64, cc.n)
	add := func(tr []uint64) {
		for k, c := range tr {
			truth[k] += c
		}
	}

	// Phase 1: concurrent Zipf writers against all three nodes.
	var wg sync.WaitGroup
	phase1 := make([][]uint64, 3)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			phase1[g] = driveLoad(t, []*testNode{nodes[g], nodes[(g+1)%3]}, cc, 20_000, batch, uint64(500+g))
		}(g)
	}
	wg.Wait()
	for _, tr := range phase1 {
		add(tr)
	}

	// Kill node 2 mid-stream; the survivors keep counting and their fan-out
	// for node 2 lands in durable hint logs.
	n2.kill()
	add(driveLoad(t, []*testNode{n0, n1}, cc, 20_000, batch, 600))

	// Restart node 2 on the same address from the same directory: WAL
	// replay, gossip rejoin, hint drain, anti-entropy repair.
	n2 = startNode(t, dir2, n2.addr, cc, []string{n0.self})
	defer n2.shutdown()
	nodes = []*testNode{n0, n1, n2}
	awaitMembers(t, nodes)
	add(driveLoad(t, nodes, cc, 10_000, batch, 700))

	awaitWholeBankConvergence(t, nodes)

	// 8 partitions × 2^10 registers; 3 sigma of the 1.04/sqrt(m) HLL bound.
	trueCard := float64(distinctTruth(truth))
	bound := 3 * 1.04 / math.Sqrt(float64(cc.partitions)*math.Pow(2, float64(cc.distinctPrecision)))
	first := fetchDistinct(t, n0, "")
	t.Logf("true cardinality %v, cluster estimate %v", trueCard, first)
	for i, tn := range nodes {
		est := fetchDistinct(t, tn, "")
		if est != first {
			t.Fatalf("node %d estimate %v diverges from node 0's %v despite byte-identical snapshots", i, est, first)
		}
		if rel := math.Abs(est-trueCard) / trueCard; rel > bound {
			t.Fatalf("node %d estimate %v vs true %v: rel err %v > %v", i, est, trueCard, rel, bound)
		}
	}

	// The restarted node recovered from its own durable state, not a blank
	// slate healed purely by peers.
	blob, err := n2.fetch("/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Engine            string `json:"engine"`
		DistinctPrecision int    `json:"distinctPrecision"`
		RecoveredFrom     string `json:"recoveredFrom"`
	}
	if err := json.Unmarshal(blob, &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Engine != engine.KindDistinct || hz.DistinctPrecision != 10 {
		t.Fatalf("restarted node healthz: %+v", hz)
	}
}

// postUnique posts the key range [lo, hi) — a cohort of hi-lo brand-new
// uniques — in batches round-robin across the nodes.
func postUnique(t *testing.T, nodes []*testNode, lo, hi int) {
	t.Helper()
	const batch = 256
	for b := lo; b < hi; b += batch {
		e := min(b+batch, hi)
		keys := make([]int, 0, e-b)
		for k := b; k < e; k++ {
			keys = append(keys, k)
		}
		var err error
		for try := 0; try < len(nodes); try++ {
			if err = nodes[(b/batch+try)%len(nodes)].postInc(keys); err == nil {
				break
			}
		}
		if err != nil {
			t.Fatalf("no node accepted the cohort batch: %v", err)
		}
	}
}

// TestClusterDistinctWindowExpiry is the windowed sibling: a 3-node RF=3
// ring serving the windowed distinct engine on a shared logical clock. A
// unique cohort counted in an early bucket must drop out of the windowed
// answer after the ring rotates past its bucket — across the whole
// cluster, byte-identically on every node.
func TestClusterDistinctWindowExpiry(t *testing.T) {
	if testing.Short() {
		t.Skip("3-node loopback cluster")
	}
	clk := &atomic.Uint64{}
	cc := defaultClusterConfig()
	cc.engine = engine.KindDistinct
	cc.distinctPrecision = 10
	cc.buckets = 4
	cc.bucketDur = time.Minute // never consulted: the test clock drives epochs
	cc.clock = clk.Load
	cc.rf = 3

	n0 := startNode(t, t.TempDir(), "", cc, nil)
	defer n0.shutdown()
	n1 := startNode(t, t.TempDir(), "", cc, []string{n0.self})
	defer n1.shutdown()
	n2 := startNode(t, t.TempDir(), "", cc, []string{n0.self})
	nodes := []*testNode{n0, n1, n2}
	awaitMembers(t, nodes)

	bound := 3 * 1.04 / math.Sqrt(float64(cc.partitions)*math.Pow(2, float64(cc.distinctPrecision)))
	within := func(est, want float64, label string) {
		t.Helper()
		if rel := math.Abs(est-want) / want; rel > bound {
			t.Fatalf("%s: estimate %v vs true %v: rel err %v > %v", label, est, want, rel, bound)
		}
	}

	// Epoch 0: cohort A — 500 uniques.
	postUnique(t, nodes, 0, 500)
	awaitWholeBankConvergence(t, nodes)
	within(fetchDistinct(t, n0, "4"), 500, "epoch 0 full ring")

	// Epoch 1: cohort B — 250 fresh uniques. The trailing bucket sees only
	// B; the full ring still counts both cohorts.
	clk.Store(1)
	postUnique(t, nodes, 1000, 1250)
	awaitWholeBankConvergence(t, nodes)
	for i, tn := range nodes {
		within(fetchDistinct(t, tn, "1"), 250, fmt.Sprintf("node %d trailing bucket", i))
		within(fetchDistinct(t, tn, "4"), 750, fmt.Sprintf("node %d full ring", i))
	}

	// Epoch 4: cohort A's bucket (epoch 0) rotates out of the 4-bucket
	// ring; cohort B's (epoch 1) stays live. A re-posted sliver of cohort B
	// advances every replica's ring without adding uniques; after
	// convergence the whole cluster has expired cohort A and the full-ring
	// answer is cohort B alone.
	clk.Store(4)
	postUnique(t, nodes, 1000, 1010)
	awaitWholeBankConvergence(t, nodes)
	for i, tn := range nodes {
		est := fetchDistinct(t, tn, "4")
		within(est, 250, fmt.Sprintf("node %d post-expiry full ring", i))
	}
}
