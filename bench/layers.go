package main

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	approxcount "repro"
	"repro/internal/bank"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/shardbank"
	"repro/internal/snapcodec"
	"repro/internal/wal"
	"repro/internal/wire"
)

// The per-layer run times calls into each package's public functions from
// this file, single goroutine unless the name says parallel. One layer is one
// Go package. Every number is the median of timingRounds rounds, so one
// descheduled round does not move it. BENCHMARK.json and README.md say which
// end-to-end metric each of these should move, and on which workload.

const (
	layerN       = 1_000_000 // key space of the single-node layers, as in the workloads
	layerBatch   = 1024
	smallBatch   = 16
	layerParts   = 64
	timingRounds = 5
)

// layerRun carries the inputs every layer shares and collects the results.
type layerRun struct {
	dir     string        // scratch directory for stores and logs
	round   time.Duration // length of one timing round
	workers int
	batches [][]int // Zipf(1.05) batches of layerBatch keys over layerN
	small   [][]int // the same stream cut into smallBatch keys
	alg     bank.Algorithm
	out     map[string]metric
	next    int
}

func newLayerRun(e *env, seed uint64, seconds float64) *layerRun {
	p := genPool(spec{n: layerN, zipf: 1.05, batch: layerBatch}, seed)
	lr := &layerRun{
		dir:     filepath.Join(e.dataRoot, "layers"),
		round:   time.Duration(seconds / 16 * float64(40*time.Millisecond)),
		workers: e.workers,
		batches: p.keys,
		alg:     bank.NewMorrisAlg(0.005, 14),
		out:     map[string]metric{},
	}
	for _, b := range p.keys[:256] {
		for i := 0; i+smallBatch <= len(b); i += smallBatch {
			lr.small = append(lr.small, b[i:i+smallBatch])
		}
	}
	return lr
}

// put records one per-layer metric; its name and unit must be in the
// layerMetrics table, which is what BENCHMARK.json promises the driver.
func (lr *layerRun) put(name, unit string, v float64) {
	for _, m := range layerMetrics {
		if m.Name == name && m.Unit == unit {
			lr.out[name] = metric{v, unit}
			return
		}
	}
	panic(fmt.Sprintf("bench: per-layer metric %s (%s) is not in the layerMetrics table", name, unit))
}

func (lr *layerRun) batch() []int {
	lr.next++
	return lr.batches[lr.next%len(lr.batches)]
}

func (lr *layerRun) smallBatch() []int {
	lr.next++
	return lr.small[lr.next%len(lr.small)]
}

func (lr *layerRun) tempDir(name string) string {
	d := filepath.Join(lr.dir, name)
	must(os.MkdirAll(d, 0o755))
	return d
}

// must turns a failed set-up step of the in-process run into a panic that
// runTrace reports: nothing here depends on input, so a failure is a bug or a
// full disk, and no metric after it would mean anything.
func must(err error) {
	if err != nil {
		panic(fmt.Errorf("bench: per-layer set-up: %w", err))
	}
}

func must1[T any](v T, err error) T {
	must(err)
	return v
}

// nsPerOp runs op back to back for the round length, timingRounds times,
// and returns the median nanoseconds per call.
func (lr *layerRun) nsPerOp(op func()) float64 {
	rounds := make([]float64, timingRounds)
	for r := range rounds {
		n, start := 0, time.Now()
		for {
			op()
			n++
			if el := time.Since(start); el >= lr.round {
				rounds[r] = float64(el.Nanoseconds()) / float64(n)
				break
			}
		}
	}
	return median(rounds)
}

// nsTimed is nsPerOp for an op that needs untimed work between calls.
func (lr *layerRun) nsTimed(timed, between func()) float64 {
	rounds := make([]float64, timingRounds)
	for r := range rounds {
		var spent time.Duration
		n := 0
		for spent < lr.round {
			t0 := time.Now()
			timed()
			spent += time.Since(t0)
			n++
			between()
		}
		rounds[r] = float64(spent.Nanoseconds()) / float64(n)
	}
	return median(rounds)
}

// parallelSpeedup is the throughput of workers goroutines calling op
// together over that of one goroutine alone.
func (lr *layerRun) parallelSpeedup(op func(w, i int)) float64 {
	rate := func(workers int) float64 {
		rounds := make([]float64, timingRounds)
		for r := range rounds {
			var calls atomic.Int64
			var wg sync.WaitGroup
			start := time.Now()
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; time.Since(start) < lr.round; i++ {
						op(w, i)
						calls.Add(1)
					}
				}()
			}
			wg.Wait()
			rounds[r] = float64(calls.Load()) / time.Since(start).Seconds()
		}
		return median(rounds)
	}
	one := rate(1)
	return rate(lr.workers) / one
}

func (lr *layerRun) openStore(name string, cfg server.Config) *server.Store {
	cfg.Dir = lr.tempDir(name)
	cfg.N, cfg.Alg, cfg.Shards, cfg.Seed = layerN, lr.alg, 256, 42
	if cfg.Partitions == 0 {
		cfg.Partitions = layerParts
	}
	return must1(server.Open(cfg))
}

func scrape(reg *metrics.Registry) map[string]float64 {
	var buf bytes.Buffer
	must(reg.WritePrometheus(&buf))
	return parseExposition(buf.String())
}

type noopSink struct{}

func (noopSink) Batch(keys []int) (int, error) { return len(keys), nil }
func (noopSink) Repl(keys []int) (int, error)  { return len(keys), nil }

// serveWire runs a wire server over sink on a loopback port.
func serveWire(sink wire.Sink, maxKey int) (addr string, stop func()) {
	ln := must1(net.Listen("tcp", "127.0.0.1:0"))
	srv := wire.NewServer(sink, wire.ServerConfig{MaxKey: maxKey, ErrorCode: server.StatusFor})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns nil after Close
	}()
	return ln.Addr().String(), func() { srv.Close(); <-done }
}

func (lr *layerRun) wireLayer() {
	var dst []byte
	var scratch []int
	lr.put("wire.encode_ns_per_event", "ns", lr.nsPerOp(func() {
		dst, scratch = wire.AppendBatch(dst[:0], lr.batch(), scratch)
	})/layerBatch)
	payloads := make([][]byte, 256)
	bytesTotal := 0
	for i := range payloads {
		payloads[i] = wire.EncodeBatch(lr.batches[i])
		bytesTotal += len(payloads[i])
	}
	lr.put("wire.bytes_per_event", "B", float64(bytesTotal)/float64(len(payloads)*layerBatch))
	i := 0
	lr.put("wire.decode_ns_per_event", "ns", lr.nsPerOp(func() {
		i++
		must1(wire.DecodeBatch(payloads[i%len(payloads)], 1<<16, layerN))
	})/layerBatch)

	addr, stop := serveWire(noopSink{}, layerN)
	defer stop()
	c := must1(wire.Dial(addr, 10*time.Second))
	defer c.Close()
	lr.put("wire.roundtrip_us", "us", lr.nsPerOp(func() { must1(c.SendBatch(lr.batch())) })/1e3)
}

func (lr *layerRun) walLayer() {
	reg := metrics.NewRegistry()
	dir := lr.tempDir("wal-interval")
	lg := must1(wal.Open(dir, wal.Options{Policy: wal.SyncInterval, Metrics: reg}))
	events := 0
	lr.put("wal.append_us_per_batch.interval", "us", lr.nsPerOp(func() {
		must(lg.AppendBatch(lr.batch()))
		events += layerBatch
	})/1e3)
	lr.put("wal.bytes_per_event", "B", sumSeries(scrape(reg), "counterd_wal_staged_bytes_total")/float64(events))
	must(lg.Close())
	start := time.Now()
	replayed := 0
	must1(wal.Replay(dir, 0, func(rec wal.Record) error { replayed += len(rec.Keys); return nil }))
	lr.put("wal.replay_events_per_s", "1/s", float64(replayed)/time.Since(start).Seconds())

	always := must1(wal.Open(lr.tempDir("wal-always"), wal.Options{Policy: wal.SyncAlways}))
	defer always.Close()
	lr.put("wal.append_us.always", "us", lr.nsPerOp(func() {
		must(always.Commit(must1(always.Stage(wal.Record{Type: wal.RecBatch, Keys: lr.smallBatch()}))))
	})/1e3)
}

func (lr *layerRun) engineLayer() {
	sb := shardbank.New(layerN, lr.alg, 256, 42)
	lr.put("shardbank.increment_batch_ns_per_event", "ns", lr.nsPerOp(func() { sb.IncrementBatch(lr.batch()) })/layerBatch)
	lr.put("shardbank.increment_batch_parallel_speedup", "x", lr.parallelSpeedup(func(w, i int) {
		sb.IncrementBatch(lr.batches[(w*997+i)%len(lr.batches)])
	}))
	// A batch between reads touches every shard, so each read rebuilds
	// the whole estimate cache as it does under write traffic.
	lr.put("shardbank.estimate_all_ms", "ms", lr.nsTimed(func() { sb.EstimateAll() }, func() { sb.IncrementBatch(lr.batch()) })/1e6)

	be := engine.NewBank(shardbank.New(layerN, lr.alg, 256, 42))
	tk := must1(engine.NewTopK(layerN, lr.alg, layerParts, 64, 42))
	win := must1(engine.NewWindow(layerN, lr.alg, layerParts, 8, int64(2*time.Second), 42))
	di := must1(engine.NewDistinct(layerN, layerParts, 12, 42))
	f2 := must1(engine.NewF2(layerN, layerParts, 5, 64, 42))
	for _, e := range []struct {
		name string
		eng  engine.Engine
	}{{"bank", be}, {"topk", tk}, {"window", win}, {"distinct", di}, {"f2", f2}} {
		lr.put("engine."+e.name+".apply_ns_per_event", "ns", lr.nsPerOp(func() { e.eng.ApplyBatch(lr.batch()) })/layerBatch)
	}
	k := 0
	lr.put("engine.bank.estimate_ns", "ns", lr.nsPerOp(func() { k++; be.Estimate(k % hotKeys) }))
	lr.put("engine.bank.estimate_all_ms", "ms", lr.nsTimed(func() { be.EstimateAll() }, func() { be.ApplyBatch(lr.batch()) })/1e6)
	lr.put("engine.bank.snapshot_ms", "ms", lr.nsPerOp(func() { must1(be.Snapshot(0, 0, true)) })/1e6)
	lo, hi := snapcodec.PartitionRange(layerN, layerParts, 0)
	lr.put("engine.bank.hash_range_us", "us", lr.nsPerOp(func() { must1(be.HashRange(lo, hi)) })/1e3)
	lr.put("engine.bank.bits_per_key", "bit", float64(be.SizeBytes())*8/layerN)

	// Accuracy of what the bank serves, against an exact tally, over the
	// keys hot enough for Morris(a = 0.005) to be in its relative regime.
	acc := engine.NewBank(shardbank.New(layerN, lr.alg, 256, 42))
	truth := make([]int, layerN)
	for _, b := range lr.batches {
		acc.ApplyBatch(b)
		for _, key := range b {
			truth[key]++
		}
	}
	relErr, hot := 0.0, 0
	for key, n := range truth {
		if n >= 1000 {
			relErr += math.Abs(acc.Estimate(key)-float64(n)) / float64(n)
			hot++
		}
	}
	lr.put("engine.bank.est_abs_rel_err_pct", "%", 100*relErr/float64(hot))

	// Spread the window engine's load over its ring before reading it, so
	// a windowed read folds several non-empty buckets as it does in service.
	epoch := win.Epoch()
	for b := 0; b < 8; b++ {
		epoch++
		win.Advance(epoch)
		for i := 0; i < 64; i++ {
			win.ApplyBatch(lr.batch())
		}
	}
	lr.put("engine.window.estimate_ns", "ns", lr.nsPerOp(func() { k++; must1(win.EstimateWindow(k%hotKeys, 4)) }))
	lr.put("engine.window.topk_us", "us", lr.nsPerOp(func() { must1(win.TopKWindow(10, 0, layerN, 4)) })/1e3)
	lr.put("engine.window.advance_us", "us", lr.nsTimed(
		func() { epoch++; win.Advance(epoch) },
		func() { win.ApplyBatch(lr.batch()) })/1e3)
	lr.put("engine.distinct.estimate_us", "us", lr.nsPerOp(func() { must1(di.RangeEstimate(0, layerN)) })/1e3)
	lr.put("engine.f2.estimate_us", "us", lr.nsPerOp(func() { must1(f2.RangeEstimate(0, layerN)) })/1e3)

	// snapcodec on the loaded bank: the checkpoint and handoff payload.
	snap := must1(be.Snapshot(0, 0, true))
	var blob []byte
	lr.put("snapcodec.encode_ms_per_mkey", "ms", lr.nsPerOp(func() { blob = must1(snapcodec.Encode(snap)) })/1e6/(layerN/1e6))
	lr.put("snapcodec.decode_ms_per_mkey", "ms", lr.nsPerOp(func() { must1(snapcodec.Decode(blob)) })/1e6/(layerN/1e6))
	lr.put("snapcodec.bits_per_key", "bit", float64(len(blob))*8/layerN)
	var dirty []uint32 // every hundredth block: the 1 % churn a delta checkpoint sees
	for b := 0; b < snapcodec.NumBlocks(layerN); b += 100 {
		dirty = append(dirty, uint32(b))
	}
	// The slope between two deltas leaves out the header both carry.
	whole := must1(snapcodec.Encode(must1(snapcodec.MakeDelta(snap, 1, dirty))))
	half := must1(snapcodec.Encode(must1(snapcodec.MakeDelta(snap, 1, dirty[:len(dirty)/2]))))
	lr.put("snapcodec.delta_bytes_per_dirty_block", "B", float64(len(whole)-len(half))/float64(len(dirty)-len(dirty)/2))
}

func (lr *layerRun) serverLayer() {
	st := lr.openStore("store-interval", server.Config{Sync: wal.SyncInterval})
	defer st.Close(false)
	for i := 0; i < 512; i++ { // past the registers' write-on-every-increment phase
		must(st.Apply(lr.batch()))
	}
	applyUS := lr.nsPerOp(func() { must(st.Apply(lr.batch())) }) / 1e3
	lr.put("server.apply_us_per_batch", "us", applyUS)
	lr.put("server.apply_self_us_per_batch", "us",
		applyUS-lr.out["wal.append_us_per_batch.interval"].Value-lr.out["engine.bank.apply_ns_per_event"].Value*layerBatch/1e3)
	lr.put("server.apply_parallel_speedup", "x", lr.parallelSpeedup(func(w, i int) {
		must(st.Apply(lr.batches[(w*997+i)%len(lr.batches)]))
	}))
	h := server.Handler(st)
	k := 0
	lr.put("server.http_estimate_us", "us", lr.nsPerOp(func() {
		k++
		serve(h, "GET", fmt.Sprintf("/v1/estimate/%d", k%hotKeys), nil)
	})/1e3)

	// Checkpoints: a full one of the loaded store, then deltas after 1 %
	// of the register blocks changed.
	must(st.Checkpoint())
	deltaBytes := func() float64 {
		return scrape(st.Metrics())[`counterd_checkpoint_bytes_total{kind="delta"}`]
	}
	delta0 := deltaBytes()
	churn := func() {
		keys := make([]int, 0, layerBatch)
		for b := 0; b < snapcodec.NumBlocks(layerN); b += 100 {
			if keys = append(keys, b*snapcodec.BlockLen); len(keys) == layerBatch {
				must(st.Apply(keys))
				keys = keys[:0]
			}
		}
		if len(keys) > 0 {
			must(st.Apply(keys))
		}
	}
	deltas := 0
	lr.put("server.checkpoint_delta_ms", "ms", lr.nsTimed(func() { must(st.Checkpoint()); deltas++ }, churn)/1e6)
	lr.put("server.checkpoint_bytes_delta", "B", (deltaBytes()-delta0)/float64(deltas))

	fullSt := lr.openStore("store-fullckpt", server.Config{Sync: wal.SyncInterval, DeltaFraction: -1})
	defer fullSt.Close(false)
	for i := 0; i < 512; i++ {
		must(fullSt.Apply(lr.batch()))
	}
	fulls := 0
	lr.put("server.checkpoint_full_ms", "ms", lr.nsTimed(func() { must(fullSt.Checkpoint()); fulls++ },
		func() { must(fullSt.Apply(lr.batch())) })/1e6)
	lr.put("server.checkpoint_bytes_full", "B",
		sumSeries(scrape(fullSt.Metrics()), "counterd_checkpoint_bytes_total")/float64(fulls))

	// The foreground stall a checkpoint causes: the slowest Apply that
	// overlapped one.
	var worst atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			t0 := time.Now()
			must(fullSt.Apply(lr.batches[i%len(lr.batches)]))
			if d := int64(time.Since(t0)); d > worst.Load() {
				worst.Store(d)
			}
		}
	}()
	for i := 0; i < 3; i++ {
		must(fullSt.Checkpoint())
	}
	close(stop)
	wg.Wait()
	lr.put("server.ckpt_stall_ms", "ms", float64(worst.Load())/1e6)

	// Recovery: a checkpoint plus a 4 M-event WAL tail.
	recDir := "store-recover"
	rec := lr.openStore(recDir, server.Config{Sync: wal.SyncInterval})
	for i := 0; i < 512; i++ {
		must(rec.Apply(lr.batch()))
	}
	must(rec.Checkpoint())
	for i := 0; i < 4096; i++ {
		must(rec.Apply(lr.batch()))
	}
	must(rec.Close(false))
	t0 := time.Now()
	rec = lr.openStore(recDir, server.Config{Sync: wal.SyncInterval})
	lr.put("server.recover_ms", "ms", float64(time.Since(t0))/1e6)
	must(rec.Close(false))

	// The small-request path of http_small_durable: fsync on every ack.
	dur := lr.openStore("store-always", server.Config{Sync: wal.SyncAlways})
	defer dur.Close(false)
	smallUS := lr.nsPerOp(func() { must(dur.Apply(lr.smallBatch())) }) / 1e3
	lr.put("server.apply_small_us", "us", smallUS)
	hd := server.Handler(dur)
	bodies := make([][]byte, 256)
	for i := range bodies {
		bodies[i] = []byte(`{"keys":` + strings.ReplaceAll(fmt.Sprint(lr.small[i]), " ", ",") + `}`)
	}
	incUS := lr.nsPerOp(func() { k++; serve(hd, "POST", "/v1/inc", bodies[k%len(bodies)]) }) / 1e3
	lr.put("server.http_inc_us", "us", incUS)
	lr.put("server.http_inc_self_us", "us", incUS-smallUS)
	// Group commit: concurrent small writers share fsyncs.
	before := sumSeries(scrape(dur.Metrics()), "counterd_wal_fsync_seconds_count")
	var acks atomic.Int64
	lr.parallelSpeedup(func(w, i int) {
		must(dur.Apply(lr.small[(w*997+i)%len(lr.small)]))
		acks.Add(1)
	})
	lr.put("wal.fsyncs_per_ack", "ratio",
		(sumSeries(scrape(dur.Metrics()), "counterd_wal_fsync_seconds_count")-before)/float64(acks.Load()))
}

// serve pushes one request through a handler without a socket.
func serve(h http.Handler, method, path string, body []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		panic(fmt.Errorf("bench: %s %s: status %d: %s", method, path, rec.Code, rec.Body))
	}
}

// ringNode is one member of the in-process ring the cluster and client
// layers are measured on: a store, a cluster node, and its two listeners.
type ringNode struct {
	st   *server.Store
	node *cluster.Node
	base string
	stop func()
}

// ringN and ringAE match the ring3_wire workload.
const (
	ringN  = 4_000_000
	ringAE = 500 * time.Millisecond
)

// startRing builds a three-node RF=3 ring from public constructors only.
// wrap, when not nil, interposes on each node's wire sink.
func (lr *layerRun) startRing(name string, wrap func(i int, s wire.Sink) wire.Sink) []*ringNode {
	nodes := make([]*ringNode, 3)
	for i := range nodes {
		hln := must1(net.Listen("tcp", "127.0.0.1:0"))
		wln := must1(net.Listen("tcp", "127.0.0.1:0"))
		dir := lr.tempDir(fmt.Sprintf("%s-node%d", name, i))
		st := must1(server.Open(server.Config{
			Dir: dir, N: ringN, Shards: 256, Alg: lr.alg, Seed: 42, Partitions: layerParts, Sync: wal.SyncInterval,
		}))
		var join []string
		if i > 0 {
			join = []string{nodes[0].base}
		}
		rn := &ringNode{st: st, base: "http://" + hln.Addr().String()}
		rn.node = must1(cluster.New(st, cluster.Config{
			Self: rn.base, Join: join, RF: 3, WireAddr: wln.Addr().String(), HintDir: filepath.Join(dir, "hints"),
			GossipInterval: 100 * time.Millisecond, RebalanceInterval: 50 * time.Millisecond, AntiEntropyInterval: ringAE,
			Logf: func(string, ...any) {},
		}))
		sink := rn.node.WireSink()
		if wrap != nil {
			sink = wrap(i, sink)
		}
		wsrv := wire.NewServer(sink, wire.ServerConfig{MaxKey: ringN, ErrorCode: cluster.StatusFor})
		hsrv := &http.Server{Handler: rn.node.Handler()}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); _ = wsrv.Serve(wln) }()
		go func() { defer wg.Done(); _ = hsrv.Serve(hln) }()
		st.SetWireInfo(wln.Addr().String(), wire.ProtocolVersion)
		rn.node.Start()
		rn.stop = func() {
			hsrv.Close()
			wsrv.Close()
			wg.Wait()
			rn.node.Stop()
			_ = st.Close(false) // scratch store, removed with the run's data
		}
		nodes[i] = rn
	}
	deadline := time.Now().Add(bootTimeout)
	for {
		ready := true
		for _, rn := range nodes {
			ready = ready && rn.node.Ready() == nil && len(rn.node.Ring().Members()) == len(nodes)
		}
		if ready {
			return nodes
		}
		if time.Now().After(deadline) {
			panic("bench: in-process ring did not settle")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func stopRing(nodes []*ringNode) {
	for _, rn := range nodes {
		rn.stop()
	}
}

// ringConverged reports whether the three stores serve identical bytes.
func ringConverged(nodes []*ringNode) bool {
	var first []byte
	for i, rn := range nodes {
		var buf bytes.Buffer
		must(rn.st.SnapshotTo(&buf))
		if i == 0 {
			first = buf.Bytes()
		} else if !bytes.Equal(first, buf.Bytes()) {
			return false
		}
	}
	return true
}

func (lr *layerRun) clusterLayer(seed uint64) {
	uniform := genPool(spec{n: ringN, batch: layerBatch}, seed).keys
	nodes := lr.startRing("ring", nil)
	defer stopRing(nodes)
	u := 0
	next := func() []int { u++; return uniform[u%len(uniform)] }

	var acked, peak float64
	ingestUS := lr.nsTimed(func() {
		must1(nodes[0].node.Ingest(next(), false))
		acked += layerBatch
	}, func() {
		if u%64 == 0 {
			for _, rn := range nodes {
				peak = max(peak, scrape(rn.st.Metrics())["counterd_cluster_outbox_pending_keys"])
			}
		}
	}) / 1e3
	lr.put("cluster.ingest_us_per_batch", "us", ingestUS)
	lr.put("cluster.outbox_peak_pending_keys", "count", peak)
	t0 := time.Now()
	for !ringConverged(nodes) {
		if time.Since(t0) > 60*time.Second {
			panic("bench: in-process ring did not converge")
		}
		time.Sleep(20 * time.Millisecond)
	}
	lr.put("cluster.converge_s", "s", time.Since(t0).Seconds())
	sent := 0.0
	for _, rn := range nodes {
		sent += sumSeries(scrape(rn.st.Metrics()), "counterd_cluster_repl_keys_sent_total")
	}
	lr.put("cluster.repl_keys_per_acked_key", "ratio", sent/acked)

	// The local share of a coordinated batch: the same uniform batch into
	// a lone store of the ring's shape.
	lone := must1(server.Open(server.Config{
		Dir: lr.tempDir("ring-lone"), N: ringN, Shards: 256, Alg: lr.alg, Seed: 42, Partitions: layerParts, Sync: wal.SyncInterval,
	}))
	defer lone.Close(false)
	lr.put("cluster.ingest_self_us_per_batch", "us", ingestUS-lr.nsPerOp(func() { must(lone.Apply(next())) })/1e3)

	seeds := []string{nodes[0].base, nodes[1].base, nodes[2].base}
	c := must1(client.New(client.Config{Seeds: seeds, BatchSize: 1 << 20, Transport: client.TransportWire}))
	defer c.Close()
	lr.put("client.route_ns_per_event", "ns", lr.nsTimed(
		func() { must(c.IncBatch(next())) },
		func() { must(c.Flush()) })/layerBatch)
	lr.put("client.flush_us", "us", lr.nsTimed(
		func() { must(c.Flush()) },
		func() { must(c.IncBatch(next())) })/1e3)
}

func (lr *layerRun) smallLayers() {
	h := metrics.NewRegistry().Histogram("bench_probe_seconds", "Probe for the cost of one observation.", metrics.LatencyBuckets)
	v := 0.0
	lr.put("metrics.observe_ns", "ns", lr.nsPerOp(func() { v += 1e-6; h.Observe(v) }))

	ny := must1(approxcount.NewFamily(42).NelsonYu(0.1, 1e-4))
	ny.IncrementBy(1_000_000)
	lr.put("approxcount.ny_increment_ns", "ns", lr.nsPerOp(ny.Increment))
	lr.put("approxcount.ny_state_bits", "bit", float64(ny.StateBits()))
}

// runLayers measures every layer. GOMAXPROCS stays at the machine's value:
// the parallel rows need it, and the serial rows use one goroutine anyway.
func (lr *layerRun) runLayers(seed uint64) {
	runtime.GC()
	lr.wireLayer()
	lr.walLayer()
	lr.engineLayer()
	lr.serverLayer()
	lr.clusterLayer(seed)
	lr.smallLayers()
}
