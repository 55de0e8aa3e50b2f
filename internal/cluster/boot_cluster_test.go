package cluster

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// daemonCadence restores every interval and failure-detector timeout to
// the daemon's default: what a real counterd boots with.
func daemonCadence(c *Config) {
	c.GossipInterval, c.ReplInterval, c.AntiEntropyInterval, c.RebalanceInterval = 0, 0, 0, 0
	c.Membership = MembershipConfig{}
}

// formed reports whether the nodes have formed one ring: every node is
// Ready and sees all of them on the same ring version.
func formed(nodes []*testNode) bool {
	ver := nodes[0].node.Ring().Version()
	for _, tn := range nodes {
		r := tn.node.Ring()
		if tn.node.Ready() != nil || r.Version() != ver || len(r.Members()) != len(nodes) {
			return false
		}
	}
	return true
}

// awaitFormed polls formed until it holds and returns how long that took
// from t0, failing the test after limit.
func awaitFormed(t *testing.T, nodes []*testNode, t0 time.Time, limit time.Duration) time.Duration {
	t.Helper()
	for !formed(nodes) {
		if time.Since(t0) > limit {
			for _, tn := range nodes {
				t.Logf("%s: ring %v, ready: %v", tn.self, tn.node.Ring().Members(), tn.node.Ready())
			}
			t.Fatalf("ring not formed after %v", limit)
		}
		time.Sleep(time.Millisecond)
	}
	return time.Since(t0)
}

// TestClusterBootDefaultCadence: at the daemon's default cadences (gossip
// 1 s, rebalance 500 ms) a fresh 3-node ring forms on events, not ticks —
// joins, ring flips and the rebalancer's retries carry it, so no boot waits
// out a whole interval.
func TestClusterBootDefaultCadence(t *testing.T) {
	if testing.Short() {
		t.Skip("20 boots of a 3-node loopback ring")
	}
	cc := defaultClusterConfig()
	cc.tune = daemonCadence
	const boots = 20
	var took []time.Duration
	for i := 0; i < boots; i++ {
		took = append(took, bootThree(t, cc))
	}
	slices.Sort(took)
	median := took[boots/2]
	t.Logf("boot to ready over %d boots: median %v, max %v", boots, median, took[boots-1])
	if took[boots-1] >= 500*time.Millisecond {
		t.Errorf("slowest boot took %v, want < 500ms", took[boots-1])
	}
	if median >= 100*time.Millisecond {
		t.Errorf("median boot took %v, want < 100ms", median)
	}
}

// bootThree starts a seed and two joiners on fresh directories, returns
// how long the ring took to form, and shuts the nodes down.
func bootThree(t *testing.T, cc testClusterConfig) time.Duration {
	t0 := time.Now()
	n0 := startNode(t, t.TempDir(), "", cc, nil)
	defer n0.shutdown()
	n1 := startNode(t, t.TempDir(), "", cc, []string{n0.self})
	defer n1.shutdown()
	n2 := startNode(t, t.TempDir(), "", cc, []string{n0.self})
	defer n2.shutdown()
	return awaitFormed(t, []*testNode{n0, n1, n2}, t0, 5*time.Second)
}

// TestClusterJoinBeforeSeedListens: a joiner whose seed is not listening
// yet (both started together, the seed's port not bound) retries its join
// on a short backoff, so the ring forms moments after the seed comes up —
// not a whole gossip interval later.
func TestClusterJoinBeforeSeedListens(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	cc := defaultClusterConfig()
	cc.tune = daemonCadence
	joiner := startNode(t, t.TempDir(), "", cc, []string{"http://" + addr})
	defer joiner.shutdown()
	time.Sleep(50 * time.Millisecond)
	t0 := time.Now()
	seed := startNode(t, t.TempDir(), addr, cc, nil)
	defer seed.shutdown()
	took := awaitFormed(t, []*testNode{seed, joiner}, t0, 5*time.Second)
	t.Logf("ring formed %v after the seed started", took)
	if took >= 250*time.Millisecond {
		t.Fatalf("ring formed %v after the seed started, want < 250ms", took)
	}
}

// TestClusterFormsWithoutTicks: with the gossip and rebalance tickers
// parked, three sequential starts still reach one ready 3-member ring —
// every step of formation is driven by an event.
func TestClusterFormsWithoutTicks(t *testing.T) {
	cc := defaultClusterConfig()
	cc.tune = func(c *Config) { c.GossipInterval, c.RebalanceInterval = time.Hour, time.Hour }
	t0 := time.Now()
	n0 := startNode(t, t.TempDir(), "", cc, nil)
	defer n0.shutdown()
	n1 := startNode(t, t.TempDir(), "", cc, []string{n0.self})
	defer n1.shutdown()
	n2 := startNode(t, t.TempDir(), "", cc, []string{n0.self})
	defer n2.shutdown()
	took := awaitFormed(t, []*testNode{n0, n1, n2}, t0, time.Second)
	t.Logf("ring formed in %v without a tick", took)
}

// TestClusterStalePlanFetchesNothing: a rebalance step whose ring flips
// between its probe and its pulls abandons the plan instead of sending
// FETCHes stamped with the old version (each would be refused, or worse,
// served against a ring the puller no longer holds). Counted at the source.
func TestClusterStalePlanFetchesNothing(t *testing.T) {
	cc := defaultClusterConfig()
	cc.aeInterval = time.Hour // no repair pushes: the rebalancer is the only path
	n0 := startNode(t, t.TempDir(), "", cc, nil)
	defer n0.shutdown()
	cc.noStart = true
	n1 := startNode(t, t.TempDir(), "", cc, []string{n0.self})
	defer n1.shutdown()

	waitUntil(t, 5*time.Second, "seed warm on its own", func() bool { return n0.node.Ready() == nil })

	// Join by hand: n0 reconciles the flip and stays the warm source.
	n1.node.mem.AddSeed(n0.self)
	if !n1.node.gossipRound() {
		t.Fatal("join exchange failed")
	}
	cur := n1.node.Ring()
	verHex := fmt.Sprintf("%016x", cur.Version())
	waitUntil(t, 5*time.Second, "seed reconciled at the joined ring", func() bool {
		s := n0.node.reb.status()
		return s.RingVersion == verHex && s.Reconciled && len(s.Pending) == 0
	})
	rb := n1.node.reb
	rb.reconcile(cur)
	if len(rb.status().Pending) == 0 {
		t.Fatal("joiner owes no partitions")
	}
	pr := &probe{n: n1.node, statuses: make(map[string]*RebalanceStatus), quiet: make(map[string]bool)}
	if s := pr.status(n0.self); s == nil || s.RingVersion != verHex {
		t.Fatalf("probe of the seed: %+v", s)
	}

	// The ring flips between the probe and the pulls.
	n1.node.mem.MergeFrom([]Member{{ID: "http://127.0.0.1:1", Incarnation: 1, State: StateAlive}})
	if n1.node.Ring().Version() == cur.Version() {
		t.Fatal("ring did not flip")
	}
	before := handoffRequests(t, n0)
	rb.pull(cur, pr)
	if sent := handoffRequests(t, n0) - before; sent != 0 {
		t.Fatalf("the stale step sent %v FETCHes stamped with ring %s", sent, verHex)
	}
}

// handoffRequests sums the node's own count of handoff requests served,
// over every status code.
func handoffRequests(t *testing.T, tn *testNode) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := tn.st.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	prefix := `counterd_http_requests_total{endpoint="/cluster/handoff/{partition}",`
	var total float64
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("bad sample %q: %v", line, err)
		}
		total += v
	}
	return total
}

// TestClusterFreshRingRepairsNothing: a ring of fresh stores under load
// never opens the recovery gate — first sight of a peer repairs only on a
// node with history, and the rebalancer's installs already moved everything
// a fresh node owns. Full first-sight exchanges under load are partition
// snapshots logged to the WAL for nothing. (A restarted member still
// repairs: the crash-recovery tests cover that.)
func TestClusterFreshRingRepairsNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("3-node loopback cluster")
	}
	cc := defaultClusterConfig()
	cc.rf = 3
	cc.wire = true
	n0 := startNode(t, t.TempDir(), "", cc, nil)
	defer n0.shutdown()
	n1 := startNode(t, t.TempDir(), "", cc, []string{n0.self})
	defer n1.shutdown()
	n2 := startNode(t, t.TempDir(), "", cc, []string{n0.self})
	defer n2.shutdown()
	nodes := []*testNode{n0, n1, n2}
	awaitMembers(t, nodes)

	driveWireLoad(t, nodes, cc, 40_000, 256, 21)
	awaitWholeBankConvergence(t, nodes)
	for _, tn := range nodes {
		rec, div := tn.node.aeRepairRecovery.Value(), tn.node.aeRepairDivergence.Value()
		t.Logf("%s: repairs recovery=%d divergence=%d", tn.self, rec, div)
		if rec != 0 {
			t.Errorf("%s: %d recovery repairs in a fresh ring", tn.self, rec)
		}
	}
}
