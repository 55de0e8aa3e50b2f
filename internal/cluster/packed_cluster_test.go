package cluster

import (
	"encoding/json"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/bank"
)

// hashProbes reads a node's store-level partition-hash probe counters.
func hashProbes(tn *testNode) (memo, scan uint64) {
	v := tn.st.Metrics().CounterVec("counterd_store_partition_hash_total", "", "source")
	return v.With("memo").Value(), v.With("scan").Value()
}

// Both hash-serving paths — GET /cluster/phash/{p} and the wire BHASH sink —
// must read the partition version BEFORE they hash: the syncing peer pushes
// its delta back conditional on that version, so a write landing while the
// hashes are being computed has to leave the reported version behind it.
// Reading the version afterwards pairs the new version with the old hashes
// and the ?ver= guard passes against a stale diff. The write is interleaved
// deterministically: it is issued the moment the store's scan counter shows
// the probe has begun reading registers.
func TestHashProbeReadsVersionBeforeHashing(t *testing.T) {
	cc := defaultClusterConfig()
	cc.n = 1 << 20 // one big partition: a scan long enough to land a write in
	cc.partitions = 1
	cc.shards = 64
	cc.rf = 1
	cc.alg = bank.NewExactAlg(14) // every write moves a register
	cc.aeInterval = time.Hour
	tn := startNode(t, t.TempDir(), "", cc, nil)
	defer tn.shutdown()
	if err := tn.st.Apply([]int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}

	probes := []struct {
		name  string
		probe func() (uint64, error)
	}{
		{"GET /cluster/phash?blocks=1", func() (uint64, error) {
			blob, err := tn.fetch("/cluster/phash/0?blocks=1")
			if err != nil {
				return 0, err
			}
			var reply struct {
				Version string   `json:"version"`
				Blocks  []string `json:"blocks"`
			}
			if err := json.Unmarshal(blob, &reply); err != nil {
				return 0, err
			}
			return strconv.ParseUint(reply.Version, 16, 64)
		}},
		{"wire BHASH", func() (uint64, error) {
			ver, _, err := nodeSink{tn.node}.BlockHashes(0)
			return ver, err
		}},
	}
	for _, pr := range probes {
		name, probe := pr.name, pr.probe
		for round := 0; round < 3; round++ {
			// Retire whatever the previous probe memoised, so this one scans.
			if err := tn.st.Apply([]int{round}); err != nil {
				t.Fatal(err)
			}
			before := tn.st.PartitionVersion(0)
			_, scans := hashProbes(tn)
			type result struct {
				ver uint64
				err error
			}
			done := make(chan result, 1)
			go func() {
				ver, err := probe()
				done <- result{ver, err}
			}()
			// Spin, not sleep: the write has to land inside a scan that
			// lasts a few milliseconds.
			scan := tn.st.Metrics().CounterVec("counterd_store_partition_hash_total", "", "source").With("scan")
			for deadline := time.Now().Add(10 * time.Second); scan.Value() == scans; runtime.Gosched() {
				if time.Now().After(deadline) {
					t.Fatal("timed out waiting for the probe to start scanning")
				}
			}
			if err := tn.st.Apply([]int{7, 500_000, cc.n - 1}); err != nil {
				t.Fatal(err)
			}
			res := <-done
			if res.err != nil {
				t.Fatalf("%s: %v", name, res.err)
			}
			if after := tn.st.PartitionVersion(0); after == before {
				t.Fatal("the interleaved write did not move the version")
			}
			if res.ver != before {
				t.Fatalf("%s reported version %d for hashes it began computing at version %d: "+
					"a write landing mid-probe would pass the conditional push against a stale diff",
					name, res.ver, before)
			}
		}
	}
}

// A converged ring nobody writes to answers every anti-entropy hash probe
// from the memo: rounds keep running, the scan counter does not move.
func TestIdleRingAnswersHashProbesFromMemo(t *testing.T) {
	if testing.Short() {
		t.Skip("3-node loopback cluster")
	}
	cc := defaultClusterConfig()
	cc.rf = 3
	cc.aeInterval = 40 * time.Millisecond
	n0 := startNode(t, t.TempDir(), "", cc, nil)
	defer n0.shutdown()
	n1 := startNode(t, t.TempDir(), "", cc, []string{n0.self})
	defer n1.shutdown()
	n2 := startNode(t, t.TempDir(), "", cc, []string{n0.self})
	defer n2.shutdown()
	nodes := []*testNode{n0, n1, n2}
	awaitMembers(t, nodes)
	driveLoad(t, nodes, cc, 30_000, 256, 11)
	awaitWholeBankConvergence(t, nodes)

	awaitRounds := func(more uint64) {
		t.Helper()
		for _, tn := range nodes {
			target := tn.node.aeRounds.Value() + more
			waitUntil(t, 20*time.Second, "anti-entropy rounds", func() bool {
				return tn.node.aeRounds.Value() >= target
			})
		}
	}
	// The first rounds after the last write re-scan what it touched (and
	// the round right after a write only records the moved version).
	awaitRounds(4)
	var memo0, scan0 [3]uint64
	for i, tn := range nodes {
		memo0[i], scan0[i] = hashProbes(tn)
	}
	awaitRounds(10)
	for i, tn := range nodes {
		memo, scan := hashProbes(tn)
		if scan != scan0[i] {
			t.Errorf("node %d re-hashed %d unchanged partitions over 10 idle rounds", i, scan-scan0[i])
		}
		if memo <= memo0[i] {
			t.Errorf("node %d answered no probe from the memo (memo %d→%d): rounds did not probe", i, memo0[i], memo)
		}
	}
}
