package client

import (
	"context"
	"net"
	"net/http"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bank"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/wal"
	"repro/internal/xrand"
)

// startWindowNode mirrors startNode with the sliding-window engine and a
// shared, test-controlled logical clock.
func startWindowNode(t *testing.T, rf int, clk *atomic.Uint64, join []string) *node {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := server.Open(server.Config{
		Dir: dir, N: testN, Shards: 8,
		Alg:  bank.NewExactAlg(20),
		Seed: 42, Partitions: testParts, Sync: wal.SyncOff,
		Engine: engine.KindWindow, Buckets: 4, BucketDur: time.Second,
		Clock: clk.Load,
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

// TestClientClusterWindowTopK: the smart client's windowed cluster queries.
// At RF=1 no node owns the whole key space; the hot set drifts between
// bucket epochs, and the client-side merge of per-partition windowed
// reports must rank the drifted hot set in the trailing bucket while the
// full window still ranks the original one.
func TestClientClusterWindowTopK(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback cluster")
	}
	clk := &atomic.Uint64{}
	n0 := startWindowNode(t, 1, clk, nil)
	n1 := startWindowNode(t, 1, clk, []string{n0.self})
	n2 := startWindowNode(t, 1, clk, []string{n0.self})
	awaitCluster(t, []*node{n0, n1, n2})

	c, err := New(Config{Seeds: []string{n0.self}, BatchSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	load := func(offset int, seed uint64) {
		t.Helper()
		src := stream.NewZipf(testN, 1.2, xrand.NewSeeded(seed))
		for i := 0; i < 40_000; i++ {
			if err := c.Inc((int(src.Next()) + offset) % testN); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	load(0, 13) // epoch 0: hot keys near 0
	clk.Store(1)
	load(testN/2, 17) // epoch 1: hot keys near testN/2

	query := func(opts QueryOptions) (Result, error) { return c.Query(context.Background(), opts) }
	res, err := query(QueryOptions{Kind: KindTopK, K: 5, Window: "1"})
	if err != nil {
		t.Fatal(err)
	}
	recent := res.TopK
	if res, err = query(QueryOptions{Kind: KindTopK, K: 5}); err != nil {
		t.Fatal(err)
	}
	full := res.TopK
	if len(recent) != 5 || len(full) != 5 {
		t.Fatalf("report sizes: recent %d, full %d", len(recent), len(full))
	}
	// The trailing bucket ranks only phase-1 keys (the rotated hot ranks
	// land at testN/2 + small), never the phase-0 hot keys near 0.
	for _, e := range recent {
		if e.Key < testN/4 {
			t.Fatalf("trailing bucket leaked old hot key %d: %+v", e.Key, recent)
		}
	}
	// The full window still leads with the phase-0 heavy hitter (both
	// phases are the same size, so rank 0 of phase 0 = key 0 dominates
	// alongside testN/2; with exact registers key 0's count is highest or
	// tied — assert it is present).
	found := false
	for _, e := range full {
		if e.Key == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("full window lost the phase-0 heavy hitter: %+v", full)
	}

	// Windowed single-key estimates route like plain ones. The phase-0 hot
	// key keeps only Zipf-tail wraparound dribble in the trailing bucket —
	// a tiny fraction of its full-window count (exact registers, so the
	// comparison is noise-free).
	res, err = query(QueryOptions{Kind: KindEstimate, Key: 0})
	vFull := res.Estimate
	if err != nil || vFull == 0 {
		t.Fatalf("Estimate(0) = %v, %v; want > 0", vFull, err)
	}
	if res, err := query(QueryOptions{Kind: KindEstimate, Key: 0, Window: "1"}); err != nil || res.Estimate > vFull/100 {
		t.Fatalf("Estimate(0, window 1 bucket) = %v, %v; want ≪ %v", res.Estimate, err, vFull)
	}
	// Duration windows parse server-side: 2 buckets' worth covers both
	// phases.
	if res, err := query(QueryOptions{Kind: KindEstimate, Key: 0, Window: "2s"}); err != nil || res.Estimate != vFull {
		t.Fatalf("Estimate(0, window 2s) = %v, %v; want %v", res.Estimate, err, vFull)
	}
	// Malformed windows surface the server's 400.
	if _, err := query(QueryOptions{Kind: KindTopK, K: 5, Window: "99"}); err == nil {
		t.Fatal("oversized window accepted")
	}
}
