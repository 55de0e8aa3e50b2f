package client

import (
	"context"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/bank"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/xrand"
)

// startTopKNode mirrors startNode with the heavy-hitters engine.
func startTopKNode(t *testing.T, rf int, join []string) *node {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := server.Open(server.Config{
		Dir: dir, N: testN, Shards: 8,
		Alg:  bank.NewMorrisAlg(0.001, 14),
		Seed: 42, Partitions: testParts, NoSync: true,
		Engine: engine.KindTopK, TopKCap: 48,
	})
	if err != nil {
		t.Fatal(err)
	}
	self := "http://" + ln.Addr().String()
	cn, err := cluster.New(st, cluster.Config{
		Self: self, Join: join, RF: rf,
		HintDir:             filepath.Join(dir, "hints"),
		GossipInterval:      50 * time.Millisecond,
		ReplInterval:        25 * time.Millisecond,
		AntiEntropyInterval: 100 * time.Millisecond,
		Logf:                t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := &node{self: self, st: st, cn: cn, srv: &http.Server{Handler: cn.Handler()}, done: make(chan struct{})}
	go func() { defer close(n.done); n.srv.Serve(ln) }()
	cn.Start()
	t.Cleanup(func() {
		n.srv.Close()
		<-n.done
		n.cn.Stop()
		n.st.Close(false)
	})
	return n
}

// TestClientClusterTopK: the smart client recovers the cluster-wide true
// top-k by querying every partition's primary and merging client-side —
// keys live scattered across a 3-node RF=1 ring, so no single node knows
// the whole answer.
func TestClientClusterTopK(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback cluster")
	}
	n0 := startTopKNode(t, 1, nil)
	n1 := startTopKNode(t, 1, []string{n0.self})
	n2 := startTopKNode(t, 1, []string{n0.self})
	awaitCluster(t, []*node{n0, n1, n2})

	c, err := New(Config{Seeds: []string{n0.self}, BatchSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	truth := make([]uint64, testN)
	src := stream.NewZipf(testN, 1.2, xrand.NewSeeded(13))
	for i := 0; i < 80_000; i++ {
		k := int(src.Next())
		truth[k]++
		if err := c.Inc(k); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	res, err := c.Query(context.Background(), QueryOptions{Kind: KindTopK, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	top := res.TopK
	if len(top) != 10 {
		t.Fatalf("top-10 returned %d entries", len(top))
	}
	// At RF=1 no single node owns every partition, so the merged report
	// must span multiple nodes' data — and recover the true heavy hitters.
	order := make([]int, testN)
	for k := range order {
		order[k] = k
	}
	sort.Slice(order, func(i, j int) bool {
		if truth[order[i]] != truth[order[j]] {
			return truth[order[i]] > truth[order[j]]
		}
		return order[i] < order[j]
	})
	reported := make(map[int]bool, 10)
	for _, e := range top {
		reported[e.Key] = true
	}
	hits := 0
	for rank, k := range order[:10] {
		if reported[k] {
			hits++
		} else if rank < 5 {
			t.Fatalf("true rank-%d key %d (count %d) missing from %+v", rank, k, truth[k], top)
		}
	}
	if hits < 9 {
		t.Fatalf("top-10 recall %d/10 (%+v)", hits, top)
	}
	// Ranked descending.
	for i := 1; i < len(top); i++ {
		if top[i].Estimate > top[i-1].Estimate {
			t.Fatalf("top-k not sorted at %d: %+v", i, top)
		}
	}
	// The nodes' report-size limit is the client's too: an oversized k is
	// refused without asking anyone.
	for _, k := range []int{0, server.MaxTopK + 1} {
		if _, err := c.Query(context.Background(), QueryOptions{Kind: KindTopK, K: k}); err == nil || !strings.HasPrefix(err.Error(), "client: k = ") {
			t.Fatalf("Query(topk, k=%d) = %v; want the client's own range error", k, err)
		}
	}
}
