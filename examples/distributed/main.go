// Distributed: a real three-node counterd cluster on loopback, end to end —
// the paper's mergeable counters (Remark 2.4 makes them natural CRDTs)
// scaled past one machine by internal/cluster.
//
// The demo boots three nodes with replication factor 2 — each serving both
// HTTP and the internal/wire binary protocol — joins them by gossip, and
// drives a concurrent Zipf workload through the smart client
// (internal/client), which learns the consistent-hash ring and ships each
// batch straight to its partition's primary. The workload is deliberately
// mixed-transport: half the writers batch over persistent wire connections,
// half POST JSON, and both land in the same WAL-staged apply path (node-to-
// node replication rides the wire too, with HTTP as fallback). Then it gets
// violent: one node is hard-killed mid-traffic (listeners cut, store
// abandoned un-closed, like kill -9 with the page cache surviving) while
// writes keep flowing — the
// survivors queue that node's share in durable WAL-format hint logs. The
// node restarts from its data directory, recovery replays its WAL, hinted
// handoff drains, and the anti-entropy loop max-joins partition snapshots
// until every replica pair serves byte-identical bytes — verified here per
// partition, with the snapcodec wire sizes printed against the raw payload.
// Finally a fourth, off-ring site counting a disjoint stream is folded in
// through POST /v1/merge: the Remark 2.4 join, which adds streams instead of
// reconciling replicas.
//
// Run with: go run ./examples/distributed  (takes a few seconds)
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/bank"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/snapcodec"
	"repro/internal/stream"
	"repro/internal/wal"
	"repro/internal/wire"
	"repro/internal/xrand"
)

const (
	nKeys      = 20_000
	partitions = 16
	shards     = 16
	rf         = 2
	zipfS      = 1.05
)

var alg = bank.NewMorrisAlg(0.005, 14)

type demoNode struct {
	name string
	dir  string
	addr string
	self string
	st   *server.Store
	node *cluster.Node
	srv  *http.Server
	wsrv *wire.Server
	done chan struct{}
}

func startNode(name, dir, addr string, join []string) *demoNode {
	ln, err := net.Listen("tcp", addr)
	check(err)
	// Every node serves both transports: JSON over ln, binary frames over
	// wln. The wire address rides the gossip so clients and peers find it.
	wln, err := net.Listen("tcp", "127.0.0.1:0")
	check(err)
	d := &demoNode{
		name: name, dir: dir,
		addr: ln.Addr().String(),
		self: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	d.st, err = server.Open(server.Config{
		Dir: dir, N: nKeys, Shards: shards, Alg: alg, Seed: 42,
		Partitions: partitions, Sync: wal.SyncOff,
	})
	check(err)
	d.node, err = cluster.New(d.st, cluster.Config{
		Self: d.self, Join: join, RF: rf,
		WireAddr:            wln.Addr().String(),
		HintDir:             filepath.Join(dir, "hints"),
		GossipInterval:      50 * time.Millisecond,
		ReplInterval:        25 * time.Millisecond,
		AntiEntropyInterval: 150 * time.Millisecond,
		Membership: cluster.MembershipConfig{
			SuspectAfter: 400 * time.Millisecond,
			DeadAfter:    1200 * time.Millisecond,
		},
		Logf: func(string, ...any) {}, // the demo narrates; keep nodes quiet
	})
	check(err)
	d.wsrv = wire.NewServer(d.node.WireSink(), wire.ServerConfig{
		MaxBatch: 1 << 16, MaxKey: nKeys, ErrorCode: cluster.StatusFor,
	})
	go d.wsrv.Serve(wln)
	d.st.SetWireInfo(wln.Addr().String(), wire.ProtocolVersion)
	d.srv = &http.Server{Handler: d.node.Handler()}
	go func() { defer close(d.done); d.srv.Serve(ln) }()
	d.node.Start()
	return d
}

// kill is the hard stop: no flush, no checkpoint, store abandoned.
func (d *demoNode) kill() {
	d.srv.Close()
	d.wsrv.Close()
	<-d.done
	d.node.Stop()
	time.Sleep(100 * time.Millisecond)
}

func (d *demoNode) shutdown() {
	d.srv.Close()
	d.wsrv.Close()
	<-d.done
	d.node.Stop()
	d.st.Close(false)
}

func main() {
	base, err := os.MkdirTemp("", "distributed-demo-")
	check(err)
	defer os.RemoveAll(base)

	fmt.Printf("=== 3-node counterd cluster: %d keys, %d partitions, rf %d ===\n\n", nKeys, partitions, rf)
	n0 := startNode("node0", filepath.Join(base, "n0"), "127.0.0.1:0", nil)
	defer n0.shutdown()
	n1 := startNode("node1", filepath.Join(base, "n1"), "127.0.0.1:0", []string{n0.self})
	defer n1.shutdown()
	n2 := startNode("node2", filepath.Join(base, "n2"), "127.0.0.1:0", []string{n0.self})
	nodes := []*demoNode{n0, n1, n2}
	awaitMembers(nodes, 3)
	fmt.Printf("gossip converged: %s, %s, %s\n", n0.self, n1.self, n2.self)

	ring := n0.node.Ring()
	owned := map[string]int{}
	for p := 0; p < partitions; p++ {
		for _, r := range ring.Replicas(p) {
			owned[r]++
		}
	}
	for _, d := range nodes {
		fmt.Printf("  %s (%s) replicates %d/%d partitions\n", d.name, d.self, owned[d.self], partitions)
	}

	// --- Phase 1: concurrent mixed-transport load through the smart client
	truth := make([]uint64, nKeys)
	var truthMu sync.Mutex
	// Even workers batch over the binary wire protocol, odd workers POST
	// JSON — both transports interleave against the same ring.
	drive := func(events, workers int, seedBase uint64, targets []string) {
		var wg sync.WaitGroup
		perW := events / workers
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				transport := client.TransportWire
				if w%2 == 1 {
					transport = client.TransportHTTP
				}
				c, err := client.New(client.Config{Seeds: targets, BatchSize: 512, Transport: transport})
				check(err)
				local := make([]uint64, nKeys)
				src := stream.NewZipf(nKeys, zipfS, xrand.NewSeeded(seedBase+uint64(w)))
				for i := 0; i < perW; i++ {
					k := int(src.Next())
					check(c.Inc(k))
					local[k]++
				}
				check(c.Close())
				truthMu.Lock()
				for k, v := range local {
					truth[k] += v
				}
				truthMu.Unlock()
			}(w)
		}
		wg.Wait()
	}

	start := time.Now()
	drive(300_000, 4, 500, []string{n0.self, n1.self, n2.self})
	el := time.Since(start)
	fmt.Printf("\nphase 1: 300000 events through the ring in %v (%.0f events/s), half wire / half HTTP\n",
		el.Round(time.Millisecond), 300_000/el.Seconds())
	var wireRepl uint64
	for _, d := range nodes {
		var info cluster.Info
		check(getJSON(d.self+"/v1/cluster/info", &info))
		wireRepl += info.ReplWire
	}
	fmt.Printf("replica fan-out over the wire so far: %d keys\n", wireRepl)

	// --- Phase 2: kill node2 mid-traffic ----------------------------------
	fmt.Printf("\nphase 2: hard-killing %s, traffic continues against the survivors\n", n2.name)
	n2.kill()
	drive(150_000, 4, 900, []string{n0.self, n1.self})
	pending := int64(0)
	for _, d := range []*demoNode{n0, n1} {
		var info cluster.Info
		check(getJSON(d.self+"/v1/cluster/info", &info))
		for _, p := range info.OutboxPending {
			pending += p
		}
	}
	fmt.Printf("survivors acked everything; %d hint batches queued for the dead node\n", pending)

	// --- Phase 3: restart, hinted handoff, anti-entropy -------------------
	fmt.Printf("\nphase 3: restarting %s from its data directory\n", n2.name)
	n2 = startNode("node2", n2.dir, n2.addr, []string{n0.self})
	defer n2.shutdown()
	nodes = []*demoNode{n0, n1, n2}
	awaitMembers(nodes, 3)
	stats := n2.st.Stats()
	fmt.Printf("recovered from %s, %d WAL records replayed\n", stats.RecoveredFrom, stats.ReplayedRecords)

	converged := awaitConvergence(nodes)
	fmt.Printf("anti-entropy converged: all replica pairs byte-identical in %v\n", converged.Round(time.Millisecond))

	raw := snapcodec.RawPayloadBytes(nKeys, alg.Width())
	var wire int
	for p := 0; p < partitions; p++ {
		blob := fetchOwned(nodes, p)
		wire += len(blob)
	}
	fmt.Printf("partition snapshots on the wire: %d bytes total vs %d raw packed (%.1f×)\n",
		wire, raw, float64(raw)/float64(wire))

	// Accuracy through the ring, against the acked ground truth.
	c, err := client.New(client.Config{Seeds: []string{n2.self}})
	check(err)
	var sumRel float64
	var hot int
	for k, tr := range truth {
		if tr < 1000 {
			continue
		}
		res, err := c.Query(context.Background(), client.QueryOptions{Kind: client.KindEstimate, Key: k})
		check(err)
		d := (res.Estimate - float64(tr)) / float64(tr)
		if d < 0 {
			d = -d
		}
		sumRel += d
		hot++
	}
	fmt.Printf("mean |relative error| over %d hot keys after crash+heal: %.2f%%\n", hot, 100*sumRel/float64(hot))

	// --- Phase 4: a disjoint stream folds in via Remark 2.4 ---------------
	fmt.Printf("\nphase 4: merging an off-ring site's disjoint stream (Remark 2.4)\n")
	site, err := server.Open(server.Config{
		Dir: filepath.Join(base, "site"), N: nKeys, Shards: shards, Alg: alg,
		Seed: 99, Partitions: partitions, Sync: wal.SyncOff,
	})
	check(err)
	src := stream.NewZipf(nKeys, zipfS, xrand.NewSeeded(7777))
	batch := make([]int, 1024)
	for done := 0; done < 100_000; done += len(batch) {
		for i := range batch {
			batch[i] = int(src.Next())
		}
		check(site.Apply(batch))
	}
	var blob bytes.Buffer
	check(site.SnapshotTo(&blob))
	site.Close(false)
	resp, err := http.Post(n0.self+"/v1/merge", "application/octet-stream", &blob)
	check(err)
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		panic(fmt.Sprintf("merge rejected: status %d: %s", resp.StatusCode, msg))
	}
	resp.Body.Close()
	res0, _ := c.Query(context.Background(), client.QueryOptions{Kind: client.KindEstimate, Key: 0})
	est0 := res0.Estimate
	fmt.Printf("site merged into %s: key 0 estimate rose to %.0f (replica copies converge on the next anti-entropy round)\n",
		n0.name, est0)
	fmt.Println("\ndone.")
}

func awaitMembers(nodes []*demoNode, want int) {
	deadline := time.Now().Add(15 * time.Second)
	for {
		ok := true
		for _, d := range nodes {
			if len(d.node.Membership().AlivePeers()) != want-1 {
				ok = false
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			panic("cluster never formed")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// awaitConvergence polls until every partition's replicas serve identical
// snapshot bytes, returning how long it took.
func awaitConvergence(nodes []*demoNode) time.Duration {
	byID := map[string]*demoNode{}
	for _, d := range nodes {
		byID[d.self] = d
	}
	start := time.Now()
	deadline := start.Add(30 * time.Second)
	for {
		same := true
	scan:
		for p := 0; p < partitions; p++ {
			var want []byte
			for _, rep := range nodes[0].node.Ring().Replicas(p) {
				d, ok := byID[rep]
				if !ok {
					continue
				}
				blob, err := fetch(d.self + fmt.Sprintf("/v1/snapshot/%d", p))
				if err != nil || (want != nil && !bytes.Equal(want, blob)) {
					same = false
					break scan
				}
				want = blob
			}
		}
		if same {
			return time.Since(start)
		}
		if time.Now().After(deadline) {
			panic("replicas never converged")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func fetchOwned(nodes []*demoNode, p int) []byte {
	byID := map[string]*demoNode{}
	for _, d := range nodes {
		byID[d.self] = d
	}
	for _, rep := range nodes[0].node.Ring().Replicas(p) {
		if d, ok := byID[rep]; ok {
			blob, err := fetch(d.self + fmt.Sprintf("/v1/snapshot/%d", p))
			check(err)
			return blob
		}
	}
	panic("no replica")
}

func fetch(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

func getJSON(url string, v any) error {
	blob, err := fetch(url)
	if err != nil {
		return err
	}
	return json.Unmarshal(blob, v)
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
