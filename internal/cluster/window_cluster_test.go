package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bank"
	"repro/internal/engine"
	"repro/internal/stream"
	"repro/internal/xrand"
)

// driveDriftLoad posts a Zipf(s) stream whose ranks are rotated by offset —
// the hot set of each phase lives at a different key neighborhood — and
// returns the exact per-key truth of the phase.
func driveDriftLoad(t *testing.T, nodes []*testNode, cc testClusterConfig, events, batch, offset int, s float64, seed uint64) []uint64 {
	t.Helper()
	truth := make([]uint64, cc.n)
	src := stream.NewZipf(uint64(cc.n), s, xrand.NewSeeded(seed))
	keys := make([]int, 0, batch)
	sent := 0
	for i := 0; sent < events; i++ {
		keys = keys[:0]
		for len(keys) < batch && sent+len(keys) < events {
			keys = append(keys, (int(src.Next())+offset)%cc.n)
		}
		var err error
		for try := 0; try < len(nodes); try++ {
			tn := nodes[(i+try)%len(nodes)]
			if err = tn.postInc(keys); err == nil {
				break
			}
		}
		if err != nil {
			t.Fatalf("no node accepted the batch: %v", err)
		}
		for _, k := range keys {
			truth[k]++
		}
		sent += len(keys)
	}
	return truth
}

// fetchWindowTopK asks one node for a window-scoped GET /topk.
func fetchWindowTopK(t *testing.T, tn *testNode, k int, window string) []engine.Entry {
	t.Helper()
	blob, err := tn.fetch(fmt.Sprintf("/v1/topk?k=%d&window=%s", k, window))
	if err != nil {
		t.Fatalf("%s /topk window=%s: %v", tn.self, window, err)
	}
	var out struct {
		TopK []engine.Entry `json:"topk"`
	}
	if err := json.Unmarshal(blob, &out); err != nil {
		t.Fatalf("%s /topk decode: %v", tn.self, err)
	}
	return out.TopK
}

// TestClusterWindowCrashRecovery is the sliding-window acceptance test: a
// 3-node RF=3 ring serving the window engine under a Zipf stream whose hot
// set drifts each bucket epoch, one node hard-killed mid-stream (its share
// of the load queuing as hinted handoff), the shared logical clock advanced
// while it is down, the node restarted — after which anti-entropy must
// converge all three replicas to byte-identical whole-engine snapshots and
// every node's trailing-window GET /topk must report the DRIFTED hot set,
// not the older (larger) phases that still dominate the full window.
func TestClusterWindowCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("3-node loopback crash cluster")
	}
	clk := &atomic.Uint64{}
	cc := defaultClusterConfig()
	cc.engine = engine.KindWindow
	cc.buckets = 4
	cc.bucketDur = time.Minute // never consulted: the test clock drives epochs
	cc.clock = clk.Load
	cc.rf = 3 // every node replicates everything → whole snapshots converge
	cc.alg = bank.NewMorrisAlg(0.001, 14)

	dir2 := t.TempDir()
	n0 := startNode(t, t.TempDir(), "", cc, nil)
	defer n0.shutdown()
	n1 := startNode(t, t.TempDir(), "", cc, []string{n0.self})
	defer n1.shutdown()
	n2 := startNode(t, dir2, "", cc, []string{n0.self})
	nodes := []*testNode{n0, n1, n2}
	awaitMembers(t, nodes)

	const batch = 256
	offset := func(phase int) int { return phase * (cc.n / 4) }
	truth := make([][]uint64, 0, 4) // per-phase exact counts

	// Phase 0, epoch 0: the original hot set.
	truth = append(truth, driveDriftLoad(t, nodes, cc, 30_000, batch, offset(0), 1.2, 7))

	// Phase 1, epoch 1: drifted hot set; kill node 2 mid-phase so the rest
	// of the phase queues as hinted handoff for it.
	clk.Store(1)
	truth = append(truth, driveDriftLoad(t, nodes, cc, 10_000, batch, offset(1), 1.2, 8))
	n2.kill()
	truth = append(truth, driveDriftLoad(t, []*testNode{n0, n1}, cc, 20_000, batch, offset(1), 1.2, 9))

	// The clock moves on while node 2 is down.
	clk.Store(2)
	truth = append(truth, driveDriftLoad(t, []*testNode{n0, n1}, cc, 20_000, batch, offset(2), 1.2, 10))

	// Restart node 2 from its directory: WAL replay (ticks included),
	// gossip rejoin, hint drain, anti-entropy repair. Hinted batches carry
	// their origin bucket epoch, so the delayed drain heals the epoch-1/2
	// buckets they belong to rather than smearing into the drain-time
	// bucket (TestClusterWindowHintDrainHealsOriginBucket pins that
	// contract). Converging before the clock moves on still keeps the
	// epoch-3 bucket free of repair traffic entirely.
	n2 = startNode(t, dir2, n2.addr, cc, []string{n0.self})
	defer n2.shutdown()
	nodes = []*testNode{n0, n1, n2}
	awaitMembers(t, nodes)
	awaitWholeBankConvergence(t, nodes)

	// Phase 3, epoch 3: the final drift, served by the healed ring.
	clk.Store(3)
	lastTruth := driveDriftLoad(t, nodes, cc, 20_000, batch, offset(3), 1.2, 11)
	truth = append(truth, lastTruth)

	awaitWholeBankConvergence(t, nodes)

	// Recovery stats: the restarted node must have replayed tick records,
	// and its logical clock must sit at the test clock.
	blob, err := n2.fetch("/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Engine      string `json:"engine"`
		WindowEpoch uint64 `json:"windowEpoch"`
	}
	if err := json.Unmarshal(blob, &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Engine != engine.KindWindow || hz.WindowEpoch != 3 {
		t.Fatalf("restarted node healthz: %+v", hz)
	}

	// True trailing-bucket top keys: phase 3 only.
	trueRecent := trueTopKeys(lastTruth, 10)

	// Every node serves the SAME windowed report (they are byte-identical),
	// and the trailing bucket ranks the drifted hot set: the true top-5 of
	// phase 3 must all be present in the top-10.
	var firstRecent, firstFull []engine.Entry
	for i, tn := range nodes {
		recent := fetchWindowTopK(t, tn, 10, "1")
		full := fetchWindowTopK(t, tn, 10, "4")
		if i == 0 {
			firstRecent, firstFull = recent, full
			t.Logf("trailing-bucket top-10: %+v", recent)
			t.Logf("true phase-3 top-10: %v", trueRecent)
		} else {
			for j := range recent {
				if recent[j] != firstRecent[j] {
					t.Fatalf("node %d trailing top-k diverges from node 0 at rank %d: %+v vs %+v",
						i, j, recent[j], firstRecent[j])
				}
			}
			for j := range full {
				if full[j] != firstFull[j] {
					t.Fatalf("node %d full-window top-k diverges at rank %d", i, j)
				}
			}
		}
		reported := make(map[int]bool, len(recent))
		for _, e := range recent {
			reported[e.Key] = true
		}
		for rank, k := range trueRecent[:5] {
			if !reported[k] {
				t.Fatalf("node %d: phase-3 true rank-%d key %d (count %d) missing from trailing top-10",
					i, rank, k, lastTruth[k])
			}
		}
	}

	// The drift is visible: the phase-0 heavy hitter dominates epoch 0's
	// bucket but must NOT appear in the trailing bucket (its neighborhood
	// got no phase-3 traffic: offsets are disjoint for the hot ranks).
	old := trueTopKeys(truth[0], 1)[0]
	for _, e := range firstRecent {
		if e.Key == old {
			t.Fatalf("expired hot key %d still in the trailing-bucket top-10: %+v", old, firstRecent)
		}
	}

	// Estimates in the trailing bucket track the phase-3 truth for the
	// hottest keys: the heal completed in an earlier bucket, so nothing of
	// phases 0–2 should leak into this one beyond Morris register noise and
	// the bounded replica max-join sliver.
	for _, e := range firstRecent[:3] {
		tr := float64(lastTruth[e.Key])
		if tr == 0 {
			continue
		}
		if d := (e.Estimate - tr) / tr; d < -0.2 || d > 0.3 {
			t.Fatalf("key %d: trailing estimate %.0f vs phase-3 truth %.0f (%+.1f%%)",
				e.Key, e.Estimate, tr, 100*d)
		}
	}

	// Byte-identical windowed snapshots across a second kill -9 restart of
	// the healed node: rotation is replayed from the log, not re-derived.
	pre, err := n2.fetch("/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	n2.kill()
	n2 = startNode(t, dir2, n2.addr, cc, []string{n0.self})
	nodes = []*testNode{n0, n1, n2}
	defer n2.shutdown()
	post, err := n2.fetch("/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pre, post) {
		t.Fatal("windowed /snapshot not byte-identical across kill -9 restart")
	}
	awaitMembers(t, nodes)
}
