package cluster

import (
	"encoding/json"
	"fmt"
	"sort"
	"testing"

	"repro/internal/bank"
	"repro/internal/engine"
	"repro/internal/stream"
	"repro/internal/xrand"
)

// driveZipfLoad posts batches of a Zipf(s) stream round-robin across nodes
// (failing over like driveLoad) and returns the exact per-key truth.
func driveZipfLoad(t *testing.T, nodes []*testNode, cc testClusterConfig, events, batch int, s float64, seed uint64) []uint64 {
	t.Helper()
	truth := make([]uint64, cc.n)
	src := stream.NewZipf(uint64(cc.n), s, xrand.NewSeeded(seed))
	keys := make([]int, 0, batch)
	sent := 0
	for i := 0; sent < events; i++ {
		keys = keys[:0]
		for len(keys) < batch && sent+len(keys) < events {
			keys = append(keys, int(src.Next()))
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

// trueTopKeys returns the true top-l keys of the acked load.
func trueTopKeys(truth []uint64, l int) []int {
	keys := make([]int, len(truth))
	for k := range keys {
		keys[k] = k
	}
	sort.Slice(keys, func(i, j int) bool {
		if truth[keys[i]] != truth[keys[j]] {
			return truth[keys[i]] > truth[keys[j]]
		}
		return keys[i] < keys[j]
	})
	return keys[:l]
}

// fetchTopK asks one node for its cluster-partition-spanning GET /topk.
func fetchTopK(t *testing.T, tn *testNode, k int) []engine.Entry {
	t.Helper()
	blob, err := tn.fetch(fmt.Sprintf("/v1/topk?k=%d", k))
	if err != nil {
		t.Fatalf("%s /topk: %v", tn.self, err)
	}
	var out struct {
		TopK []engine.Entry `json:"topk"`
	}
	if err := json.Unmarshal(blob, &out); err != nil {
		t.Fatalf("%s /topk decode: %v", tn.self, err)
	}
	return out.TopK
}

// TestClusterTopKCrashRecovery is the heavy-hitters acceptance test: a
// 3-node RF=3 ring serving the SpaceSaving-over-Morris engine under a
// Zipf(1.1) stream, one node hard-killed mid-stream, load continuing
// against the survivors (hinted handoff), the node restarted — after which
// anti-entropy must converge all three replicas byte-identically and every
// node's GET /topk must report the stream's true heavy hitters.
func TestClusterTopKCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("3-node loopback crash cluster")
	}
	cc := defaultClusterConfig()
	cc.engine = engine.KindTopK
	cc.topkCap = 64
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

	if blob, err := n0.fetch("/v1/healthz"); err != nil || !json.Valid(blob) {
		t.Fatalf("healthz: %v", err)
	}

	const batch = 256
	truth := make([]uint64, cc.n)
	add := func(tr []uint64) {
		for k, c := range tr {
			truth[k] += c
		}
	}

	// Phase 1: Zipf(1.1) load across all three nodes.
	add(driveZipfLoad(t, nodes, cc, 40_000, batch, 1.1, 7))

	// Kill node 2 mid-life; survivors keep absorbing the stream, queueing
	// node 2's share as hinted handoff.
	n2.kill()
	add(driveZipfLoad(t, []*testNode{n0, n1}, cc, 30_000, batch, 1.1, 8))

	// Restart node 2 from its directory: WAL replay + gossip rejoin +
	// hint drain + anti-entropy repair.
	n2 = startNode(t, dir2, n2.addr, cc, []string{n0.self})
	defer n2.shutdown()
	nodes = []*testNode{n0, n1, n2}
	awaitMembers(t, nodes)
	add(driveZipfLoad(t, nodes, cc, 10_000, batch, 1.1, 9))

	awaitWholeBankConvergence(t, nodes)

	// Every node reports the same top-10, and it recovers the true heavy
	// hitters: the true top-5 must all be present, and overall top-10
	// recall ≥ 0.9 (Morris noise may flip the boundary ranks of a
	// Zipf(1.1) tail, whose neighbors differ by ~10%).
	trueTop := trueTopKeys(truth, 10)
	var first []engine.Entry
	for i, tn := range nodes {
		got := fetchTopK(t, tn, 10)
		if len(got) != 10 {
			t.Fatalf("node %d: top-10 returned %d entries", i, len(got))
		}
		if i == 0 {
			first = got
			t.Logf("reported top-10: %+v", got)
			t.Logf("true top-10 keys: %v (count[0]=%d count[9]=%d)",
				trueTop, truth[trueTop[0]], truth[trueTop[9]])
		} else {
			for j := range got {
				if got[j] != first[j] {
					t.Fatalf("node %d top-k diverges from node 0 at rank %d: %+v vs %+v",
						i, j, got[j], first[j])
				}
			}
		}
		reported := make(map[int]bool, len(got))
		for _, e := range got {
			reported[e.Key] = true
		}
		hits := 0
		for rank, k := range trueTop {
			if reported[k] {
				hits++
			} else if rank < 5 {
				t.Fatalf("node %d: true rank-%d key %d (count %d) missing from top-10",
					i, rank, k, truth[k])
			}
		}
		if hits < 9 {
			t.Fatalf("node %d: top-10 recall %d/10", i, hits)
		}
	}

	// The reported estimates track the acked truth for the dominant keys.
	for _, e := range first[:3] {
		tr := float64(truth[e.Key])
		if d := (e.Estimate - tr) / tr; d < -0.15 || d > 0.15 {
			t.Fatalf("key %d: estimate %.0f vs truth %.0f (%+.1f%%)", e.Key, e.Estimate, tr, 100*d)
		}
	}
}
