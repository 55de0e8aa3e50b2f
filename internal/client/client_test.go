package client

import (
	"context"
	"net"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/bank"
	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/snapcodec"
	"repro/internal/stream"
	"repro/internal/wal"
	"repro/internal/xrand"
)

type node struct {
	self string
	st   *server.Store
	cn   *cluster.Node
	srv  *http.Server
	done chan struct{}
}

const (
	testN     = 2000
	testParts = 8
)

func startNode(t *testing.T, rf int, join []string) *node {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := server.Open(server.Config{
		Dir: dir, N: testN, Shards: 8,
		Alg:  bank.NewMorrisAlg(0.001, 14),
		Seed: 42, Partitions: testParts, Sync: wal.SyncOff,
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

func awaitCluster(t *testing.T, nodes []*node) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ok := true
		for _, n := range nodes {
			if len(n.cn.Membership().AlivePeers()) != len(nodes)-1 {
				ok = false
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("cluster never formed")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestClientRoutesToOwners(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback cluster")
	}
	n0 := startNode(t, 1, nil)
	n1 := startNode(t, 1, []string{n0.self})
	n2 := startNode(t, 1, []string{n0.self})
	nodes := []*node{n0, n1, n2}
	awaitCluster(t, nodes)

	c, err := New(Config{Seeds: []string{n0.self}, BatchSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != testN || c.Partitions() != testParts {
		t.Fatalf("client shape %d/%d", c.N(), c.Partitions())
	}

	// Drive a Zipf stream; at RF=1 every key has exactly one owner, so a
	// correctly-routing client produces zero forwards on any node.
	truth := make([]uint64, testN)
	src := stream.NewZipf(testN, 1.05, xrand.NewSeeded(3))
	for i := 0; i < 40_000; i++ {
		k := int(src.Next())
		truth[k]++
		if err := c.Inc(k); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	// Registers must sit exactly where the ring says.
	ring := c.Ring()
	byID := map[string]*node{n0.self: n0, n1.self: n1, n2.self: n2}
	for p := 0; p < testParts; p++ {
		lo, hi := snapcodec.PartitionRange(testN, testParts, p)
		owner := byID[ring.Primary(p)]
		regs := owner.st.Bank().ExportState().Registers[lo:hi]
		var sum uint64
		for _, v := range regs {
			sum += v
		}
		var want uint64
		for k := lo; k < hi; k++ {
			want += truth[k]
		}
		if want > 0 && sum == 0 {
			t.Fatalf("partition %d: owner %s has empty registers for %d true events",
				p, ring.Primary(p), want)
		}
		// And nobody else got the keys (no forwarding happened).
		for _, other := range nodes {
			if other == owner {
				continue
			}
			oregs := other.st.Bank().ExportState().Registers[lo:hi]
			for i, v := range oregs {
				if v != 0 {
					t.Fatalf("partition %d key %d: non-owner %s has register %d",
						p, lo+i, other.self, v)
				}
			}
		}
	}

	// Estimates come back sane through the client, too.
	var sumRel float64
	var hot int
	for k, tr := range truth {
		if tr < 500 {
			continue
		}
		res, err := c.Query(context.Background(), QueryOptions{Kind: KindEstimate, Key: k})
		if err != nil {
			t.Fatal(err)
		}
		est := res.Estimate
		d := (est - float64(tr)) / float64(tr)
		if d < 0 {
			d = -d
		}
		sumRel += d
		hot++
	}
	if hot == 0 {
		t.Fatal("no hot keys")
	}
	if mean := sumRel / float64(hot); mean > 0.08 {
		t.Fatalf("mean relative error %.2f%% through client routing", 100*mean)
	}
}

// A client must survive the death of its routing target: batches fail over
// to another replica, which re-coordinates.
func TestClientFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback cluster")
	}
	n0 := startNode(t, 2, nil)
	n1 := startNode(t, 2, []string{n0.self})
	nodes := []*node{n0, n1}
	awaitCluster(t, nodes)

	c, err := New(Config{Seeds: []string{n0.self, n1.self}, BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Kill n1's HTTP front end; every key routed to it must fail over to n0
	// (which owns everything at RF=2 with 2 nodes).
	n1.srv.Close()
	<-n1.done
	for k := 0; k < testN; k++ {
		if err := c.Inc(k); err != nil {
			t.Fatalf("key %d: %v", k, err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// All events landed on n0.
	regs := n0.st.Bank().ExportState().Registers
	zero := 0
	for _, v := range regs {
		if v == 0 {
			zero++
		}
	}
	if zero > 0 {
		t.Fatalf("%d keys lost after failover", zero)
	}
}
