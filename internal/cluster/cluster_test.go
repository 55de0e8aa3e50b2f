package cluster

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/bank"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/wire"
	"repro/internal/xrand"
)

// testNode is one in-process cluster member with a real loopback HTTP
// listener — the same wire path production nodes use.
type testNode struct {
	t    testing.TB
	dir  string
	addr string // host:port, stable across restarts
	self string // http://host:port
	wire string // wire host:port, "" unless cc.wire

	st   *server.Store
	node *Node
	srv  *http.Server
	wsrv *wire.Server
	done chan struct{}
}

type testClusterConfig struct {
	n, partitions, shards, rf int
	alg                       bank.Algorithm
	engine                    string // "" = bank
	topkCap                   int
	distinctPrecision         int  // distinct engine only: HLL 2^p registers
	f2Rows, f2Cols            int  // f2 engine only: sign-sketch grid
	wire                      bool // also serve the binary wire protocol

	// Window engine only: ring length, bucket width, and the shared
	// logical clock (the test advances it; nodes never read wall time).
	buckets   int
	bucketDur time.Duration
	clock     func() uint64

	// aeInterval overrides the anti-entropy cadence (0 = the fast test
	// default). Tests that must attribute convergence to a specific path
	// (hint drains, rebalance pulls) set it to an hour to park the repair
	// loop.
	aeInterval time.Duration
}

func defaultClusterConfig() testClusterConfig {
	return testClusterConfig{
		n: 2000, partitions: 8, shards: 8, rf: 2,
		alg: bank.NewMorrisAlg(0.001, 14),
	}
}

// startNode opens (or reopens) a store in dir and serves a cluster node on
// addr ("" = pick a fresh loopback port).
func startNode(t testing.TB, dir, addr string, cc testClusterConfig, join []string) *testNode {
	t.Helper()
	ln, err := net.Listen("tcp", orFresh(addr))
	if err != nil {
		t.Fatalf("listen %q: %v", addr, err)
	}
	tn := &testNode{
		t:    t,
		dir:  dir,
		addr: ln.Addr().String(),
		self: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	tn.st, err = server.Open(server.Config{
		Dir:               dir,
		N:                 cc.n,
		Shards:            cc.shards,
		Alg:               cc.alg,
		Seed:              42, // same seed everywhere: converged snapshots byte-match
		Partitions:        cc.partitions,
		Engine:            cc.engine,
		TopKCap:           cc.topkCap,
		DistinctPrecision: cc.distinctPrecision,
		F2Rows:            cc.f2Rows,
		F2Cols:            cc.f2Cols,
		Buckets:           cc.buckets,
		BucketDur:         cc.bucketDur,
		Clock:             cc.clock,
		NoSync:            true, // process-crash durability (page cache), fast tests
	})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	// With cc.wire the node also serves binary frames on a fresh loopback
	// port; the address rides the gossip (a restart advertises its new port
	// under a higher incarnation, so peers re-learn it).
	var wln net.Listener
	if cc.wire {
		if wln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			t.Fatalf("wire listen: %v", err)
		}
		tn.wire = wln.Addr().String()
	}
	tn.node, err = New(tn.st, Config{
		Self:                tn.self,
		Join:                join,
		RF:                  cc.rf,
		WireAddr:            tn.wire,
		HintDir:             filepath.Join(dir, "hints"),
		GossipInterval:      50 * time.Millisecond,
		ReplInterval:        25 * time.Millisecond,
		AntiEntropyInterval: cmp.Or(cc.aeInterval, 100*time.Millisecond),
		RebalanceInterval:   50 * time.Millisecond,
		HTTPTimeout:         2 * time.Second,
		Membership: MembershipConfig{
			SuspectAfter: 500 * time.Millisecond,
			DeadAfter:    1500 * time.Millisecond,
			DropAfter:    time.Hour,
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("new node: %v", err)
	}
	if cc.wire {
		tn.wsrv = wire.NewServer(tn.node.WireSink(), wire.ServerConfig{
			MaxBatch: 1 << 16, MaxKey: cc.n, ErrorCode: StatusFor,
		})
		go tn.wsrv.Serve(wln)
		tn.st.SetWireInfo(tn.wire, wire.ProtocolVersion)
	}
	tn.srv = &http.Server{Handler: tn.node.Handler()}
	go func() {
		defer close(tn.done)
		tn.srv.Serve(ln)
	}()
	tn.node.Start()
	return tn
}

func orFresh(addr string) string {
	if addr == "" {
		return "127.0.0.1:0"
	}
	return addr
}

// kill hard-stops the node — closes the listener and every connection,
// halts the loops, and abandons the store WITHOUT closing it (no final
// flush, no checkpoint): the in-process equivalent of SIGKILL with the OS
// page cache surviving. The data directory can then be reopened.
func (tn *testNode) kill() {
	tn.srv.Close()
	if tn.wsrv != nil {
		tn.wsrv.Close()
	}
	<-tn.done
	tn.node.Stop()
	// Give any in-flight handler a moment to fail out before the dir is
	// reopened, so no zombie write lands after recovery read the segments.
	time.Sleep(100 * time.Millisecond)
}

// shutdown is the graceful path: drain HTTP, stop loops, close the store.
func (tn *testNode) shutdown() {
	tn.srv.Close()
	if tn.wsrv != nil {
		tn.wsrv.Close()
	}
	<-tn.done
	tn.node.Stop()
	if err := tn.st.Close(false); err != nil {
		tn.t.Errorf("close store: %v", err)
	}
}

func (tn *testNode) postInc(keys []int) error {
	body, _ := json.Marshal(map[string][]int{"keys": keys})
	resp, err := http.Post(tn.self+"/inc", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("inc: status %d: %s", resp.StatusCode, msg)
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

func (tn *testNode) fetch(path string) ([]byte, error) {
	resp, err := http.Get(tn.self + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d", path, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// awaitMembers polls until every node sees the whole cluster alive and is
// ready: gossip membership converges while joiners are still installing
// partitions, and load driven in that window reaches them twice — once as
// handoff state, once as replicated ops (docs/CLUSTER.md, known issues).
func awaitMembers(t testing.TB, nodes []*testNode) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ok := true
		for _, tn := range nodes {
			if len(tn.node.Membership().AlivePeers()) != len(nodes)-1 || tn.node.Ready() != nil {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			for _, tn := range nodes {
				t.Logf("%s sees %v, ready: %v", tn.self, tn.node.Membership().Snapshot(), tn.node.Ready())
			}
			t.Fatal("cluster membership never converged")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// awaitPartitionConvergence polls until, for every partition, every alive
// replica serves byte-identical GET /snapshot/{p}.
func awaitPartitionConvergence(t *testing.T, nodes []*testNode, partitions int) {
	t.Helper()
	byID := map[string]*testNode{}
	for _, tn := range nodes {
		byID[tn.self] = tn
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		diverged := ""
		for p := 0; p < partitions && diverged == ""; p++ {
			ring := nodes[0].node.Ring()
			var want []byte
			for _, rep := range ring.Replicas(p) {
				tn, ok := byID[rep]
				if !ok {
					continue
				}
				blob, err := tn.fetch(fmt.Sprintf("/snapshot/%d", p))
				if err != nil {
					diverged = fmt.Sprintf("partition %d: %v", p, err)
					break
				}
				if want == nil {
					want = blob
				} else if !bytes.Equal(want, blob) {
					diverged = fmt.Sprintf("partition %d: replica %s differs", p, rep)
				}
			}
		}
		if diverged == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("anti-entropy never converged: %s", diverged)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// driveLoad posts Zipf-distributed batches round-robin across the given
// nodes, skipping nodes that error (failover is the client's job; tests
// only need acked events tracked). Returns per-key acked truth.
func driveLoad(t *testing.T, nodes []*testNode, cc testClusterConfig, events, batch int, seed uint64) []uint64 {
	t.Helper()
	truth := make([]uint64, cc.n)
	src := stream.NewZipf(uint64(cc.n), 1.05, xrand.NewSeeded(seed))
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

// checkEstimates asserts the mean relative error over hot keys stays within
// a generous multiple of the Morris(a) standard error. Each key is asked of
// a replica that owns its partition — a node outside the replica set
// (possible at RF < cluster size) legitimately knows nothing about the key.
func checkEstimates(t *testing.T, nodes []*testNode, cc testClusterConfig, truth []uint64, label string) {
	t.Helper()
	byID := map[string]*testNode{}
	for _, tn := range nodes {
		byID[tn.self] = tn
	}
	ring := nodes[0].node.Ring()
	var sumRel, sumSigned float64
	var hot int
	for k, tr := range truth {
		if tr < 500 {
			continue
		}
		p := partitionOfKey(k, cc.n, cc.partitions)
		var owner *testNode
		for _, rep := range ring.Replicas(p) {
			if tn, ok := byID[rep]; ok {
				owner = tn
				break
			}
		}
		if owner == nil {
			t.Fatalf("%s: no live replica for partition %d", label, p)
		}
		blob, err := owner.fetch(fmt.Sprintf("/estimate/%d", k))
		if err != nil {
			t.Fatal(err)
		}
		var er struct {
			Estimate float64 `json:"estimate"`
		}
		if err := json.Unmarshal(blob, &er); err != nil {
			t.Fatal(err)
		}
		d := (er.Estimate - float64(tr)) / float64(tr)
		if d < -0.2 || d > 0.2 {
			t.Logf("%s: key %d (partition %d): truth %d, estimate %.0f (%+.1f%%)",
				label, k, p, tr, er.Estimate, 100*d)
		}
		sumSigned += d
		if d < 0 {
			d = -d
		}
		sumRel += d
		hot++
	}
	if hot == 0 {
		t.Fatalf("%s: no hot keys to check", label)
	}
	mean := sumRel / float64(hot)
	t.Logf("%s: over %d hot keys: mean |rel err| %.2f%%, mean signed %.2f%%",
		label, hot, 100*mean, 100*sumSigned/float64(hot))
	// Morris(a=0.001) per-register std ≈ sqrt(a/2) ≈ 2.2%; replication
	// duplicates and the max join only add a bounded sliver. 8% is many
	// sigmas of slack while still catching lost or double-counted batches.
	if mean > 0.08 {
		t.Fatalf("%s: mean relative error %.2f%% exceeds the Morris bound budget", label, 100*mean)
	}
}

// TestClusterReplicationConverges: the everyday path. 3 nodes, RF=2 — every
// write is acked by a coordinating replica, asynchronously replicated to
// the other, and anti-entropy makes all replica pairs byte-identical.
func TestClusterReplicationConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("3-node loopback cluster")
	}
	cc := defaultClusterConfig()
	n0 := startNode(t, t.TempDir(), "", cc, nil)
	defer n0.shutdown()
	n1 := startNode(t, t.TempDir(), "", cc, []string{n0.self})
	defer n1.shutdown()
	n2 := startNode(t, t.TempDir(), "", cc, []string{n0.self})
	defer n2.shutdown()
	nodes := []*testNode{n0, n1, n2}
	awaitMembers(t, nodes)

	truth := driveLoad(t, nodes, cc, 60_000, 256, 7)
	awaitPartitionConvergence(t, nodes, cc.partitions)
	checkEstimates(t, nodes, cc, truth, "rf2-cluster")

	// Replication actually ran (not everything was local).
	var replicated uint64
	for _, tn := range nodes {
		replicated += tn.node.replRecvd.Value()
	}
	if replicated == 0 {
		t.Fatal("no replication traffic observed at RF=2")
	}
}

// TestClusterForwarding: RF=1 means most keys posted at one node belong to
// partitions owned elsewhere — the coordinator must forward them, and each
// owner ends up with its partitions' registers populated.
func TestClusterForwarding(t *testing.T) {
	if testing.Short() {
		t.Skip("3-node loopback cluster")
	}
	cc := defaultClusterConfig()
	cc.rf = 1
	n0 := startNode(t, t.TempDir(), "", cc, nil)
	defer n0.shutdown()
	n1 := startNode(t, t.TempDir(), "", cc, []string{n0.self})
	defer n1.shutdown()
	n2 := startNode(t, t.TempDir(), "", cc, []string{n0.self})
	defer n2.shutdown()
	nodes := []*testNode{n0, n1, n2}
	awaitMembers(t, nodes)

	// All writes enter through node 0 only.
	truth := driveLoad(t, []*testNode{n0}, cc, 30_000, 256, 11)

	if n0.node.forwards.Value() == 0 {
		t.Fatal("node0 never forwarded at RF=1 with 3 nodes")
	}
	// Each partition's single owner serves sane estimates for its keys.
	byID := map[string]*testNode{n0.self: n0, n1.self: n1, n2.self: n2}
	ring := n0.node.Ring()
	var sumEst, sumTruth float64
	for k, tr := range truth {
		sumTruth += float64(tr)
		p := partitionOfKey(k, cc.n, cc.partitions)
		owner := byID[ring.Primary(p)]
		blob, err := owner.fetch(fmt.Sprintf("/estimate/%d", k))
		if err != nil {
			t.Fatalf("key %d owner estimate: %v", k, err)
		}
		var er struct {
			Estimate float64 `json:"estimate"`
		}
		if err := json.Unmarshal(blob, &er); err != nil {
			t.Fatal(err)
		}
		sumEst += er.Estimate
	}
	rel := (sumEst - sumTruth) / sumTruth
	t.Logf("owner-summed estimate error: %+.2f%%", 100*rel)
	if rel < -0.05 || rel > 0.05 {
		t.Fatalf("owner estimates sum to %+.2f%% off the acked total", 100*rel)
	}
}

func partitionOfKey(k, n, parts int) int { return int(int64(k) * int64(parts) / int64(n)) }

// TestClusterCrashRecoveryConvergence is the crash/recovery acceptance
// test: a 3-node RF=3 cluster under concurrent load, one node hard-killed
// mid-stream (listener and loops cut, store abandoned un-closed), load
// continuing against the survivors (their outboxes turn into hinted
// handoff), the node restarted from its directory — and anti-entropy must
// bring all three replicas to byte-identical whole-bank /snapshot output
// with estimates still inside the Morris budget.
func TestClusterCrashRecoveryConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("3-node loopback crash cluster")
	}
	cc := defaultClusterConfig()
	cc.rf = 3 // every node replicates everything → whole-bank snapshots converge
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

	// Phase 1: concurrent load against all three nodes.
	var wg sync.WaitGroup
	phase1 := make([][]uint64, 3)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			phase1[g] = driveLoad(t, []*testNode{nodes[g], nodes[(g+1)%3]}, cc, 20_000, batch, uint64(100+g))
		}(g)
	}
	wg.Wait()
	for _, tr := range phase1 {
		add(tr)
	}

	// Kill node 2 mid-life, then keep writing against the survivors. Their
	// fan-out for node 2 lands in durable hint logs.
	n2.kill()
	add(driveLoad(t, []*testNode{n0, n1}, cc, 20_000, batch, 200))

	// Restart node 2 on the same address from the same directory: recovery
	// replays its WAL, gossip rejoins it, hinted handoff drains, and
	// anti-entropy repairs whatever neither path covered.
	n2 = startNode(t, dir2, n2.addr, cc, []string{n0.self})
	defer n2.shutdown()
	nodes = []*testNode{n0, n1, n2}
	awaitMembers(t, nodes)
	add(driveLoad(t, nodes, cc, 10_000, batch, 300))

	awaitWholeBankConvergence(t, nodes)
	checkEstimates(t, []*testNode{n2}, cc, truth, "restarted node2")
}

// awaitWholeBankConvergence polls until every node's full GET /snapshot is
// byte-identical (meaningful at RF = cluster size).
func awaitWholeBankConvergence(t *testing.T, nodes []*testNode) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		blobs := make([][]byte, len(nodes))
		ok := true
		for i, tn := range nodes {
			b, err := tn.fetch("/snapshot")
			if err != nil {
				ok = false
				break
			}
			blobs[i] = b
		}
		if ok {
			same := true
			for i := 1; i < len(blobs); i++ {
				if !bytes.Equal(blobs[0], blobs[i]) {
					same = false
					break
				}
			}
			if same {
				return
			}
		}
		if time.Now().After(deadline) {
			for i, tn := range nodes {
				t.Logf("node %d (%s): snapshot %d bytes", i, tn.self, len(blobs[i]))
				info, _ := tn.fetch("/cluster/info")
				t.Logf("node %d info: %s", i, info)
			}
			t.Fatal("whole-bank snapshots never converged byte-identically")
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// driveWireLoad is driveLoad's binary twin: Zipf batches over persistent
// wire connections, failing over across nodes on transport errors. Returns
// per-key acked truth.
func driveWireLoad(t *testing.T, nodes []*testNode, cc testClusterConfig, events, batch int, seed uint64) []uint64 {
	t.Helper()
	pool := wire.NewPool(2 * time.Second)
	defer pool.Close()
	truth := make([]uint64, cc.n)
	src := stream.NewZipf(uint64(cc.n), 1.05, xrand.NewSeeded(seed))
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
			if _, err = pool.SendBatch(tn.wire, keys); err == nil {
				break
			}
		}
		if err != nil {
			t.Fatalf("no node accepted the wire batch: %v", err)
		}
		for _, k := range keys {
			truth[k]++
		}
		sent += len(keys)
	}
	return truth
}

// TestClusterMixedTransportCrashRecovery is the crash test for the binary
// ingest path: a 3-node RF=3 cluster fed by concurrent HTTP AND wire
// writers, one node hard-killed mid-stream (both listeners cut, store
// abandoned un-closed) while mixed-transport load continues against the
// survivors, then restarted from its directory. Wire-ingested events must be
// exactly as durable as HTTP ones — all three replicas converge to
// byte-identical whole-bank /snapshot output — and replica fan-out must
// actually have traveled the wire, not just fallen back to HTTP.
func TestClusterMixedTransportCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("3-node loopback crash cluster")
	}
	cc := defaultClusterConfig()
	cc.rf = 3
	cc.wire = true
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

	// Phase 1: both transports at once, interleaving against all nodes.
	var wg sync.WaitGroup
	phase1 := make([][]uint64, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			targets := []*testNode{nodes[g%3], nodes[(g+1)%3]}
			if g%2 == 0 {
				phase1[g] = driveWireLoad(t, targets, cc, 15_000, batch, uint64(400+g))
			} else {
				phase1[g] = driveLoad(t, targets, cc, 15_000, batch, uint64(400+g))
			}
		}(g)
	}
	wg.Wait()
	for _, tr := range phase1 {
		add(tr)
	}

	// Kill node 2 mid-life; survivors keep taking both transports and queue
	// its share as hinted handoff.
	n2.kill()
	add(driveWireLoad(t, []*testNode{n0, n1}, cc, 10_000, batch, 500))
	add(driveLoad(t, []*testNode{n0, n1}, cc, 10_000, batch, 501))

	// Restart from the same directory: WAL replay + hinted handoff +
	// anti-entropy must reconstruct the wire-ingested state too.
	n2 = startNode(t, dir2, n2.addr, cc, []string{n0.self})
	defer n2.shutdown()
	nodes = []*testNode{n0, n1, n2}
	awaitMembers(t, nodes)
	add(driveWireLoad(t, nodes, cc, 6_000, batch, 600))

	awaitWholeBankConvergence(t, nodes)
	checkEstimates(t, []*testNode{n2}, cc, truth, "restarted node2 (mixed transport)")

	var replWire uint64
	for _, tn := range nodes {
		replWire += tn.node.replWire.Value()
	}
	if replWire == 0 {
		t.Fatal("replica fan-out never used the wire transport")
	}
	t.Logf("replica keys fanned out over the wire: %d", replWire)
}
