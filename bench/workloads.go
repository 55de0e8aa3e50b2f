package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/stream"
	"repro/internal/wire"
	"repro/internal/xrand"
)

// spec is one workload: which processes, which traffic. Every field is
// fixed here and never read from a flag, so two runs of one commit differ
// only in -seed.
type spec struct {
	name string
	why  string
	// gated workloads are the ones BENCHMARK.json names: the driver runs
	// them and holds their metrics to the bounds. The others run the same way
	// from the command line and gate nothing (README.md says why).
	gated bool
	nodes int
	n     int      // key space
	flags []string // counterd flags beyond -addr, -dir, -listen-wire, -join
	wire  bool     // give each node a wire listener

	zipf      float64 // key law exponent; 0 = uniform
	batch     int     // keys per request
	transport string  // "wire" (wire.Conn.SendBatch), "http" (POST /v1/inc), "client" (client.Client over wire)
	preload   int     // batches sent before measuring, so Morris registers are past their write-on-every-increment phase
	// preloadRate paces the preload, in batches per second (0 = as fast as
	// the connections allow). Sent flat out, the preload is a throughput test
	// and made setup_s follow the host's mood (+23 % and +51 % between two
	// sweeps an hour apart); on a schedule well under saturation it takes the
	// same time whatever the host does, and work a change adds to set-up still
	// lands on top of it.
	preloadRate float64
	// pacedRate is the open-loop arrival rate in batches per second: 13–20 %
	// of the saturate-phase median on the reference box when the benchmark
	// was defined, then frozen. That low, because a spell of hypervisor steal
	// halves the box: at 40 % the paced phase then ran at its knee and
	// ack_p50_ms read hundreds of milliseconds. Changing a rate changes what
	// ack_p50_ms and ack_p99_ms mean.
	pacedRate float64

	readerBeside bool    // the HTTP reader runs next to the writer instead of after it,
	readRate     float64 // and then on its own schedule, in requests per second: a closed loop beside the writer would own the CPU
	window       string  // ?window= on reads; "" on engines without windows
	killPinned   bool    // kill -9 lands 2 s after a checkpoint tick; recovery is timed from that crash
	pacedFirst   bool    // the paced phase runs before the saturate phase
}

var specs = []spec{
	{
		name:  "wire_bank",
		gated: true,
		why:   "bulk ingest: wire decode, Store.Apply and the bank engine do the work; WAL is 1.8 B/event with no fsync in the ack path. 1 node, n=1M, Zipf(1.05), 1024-key wire batches.",
		nodes: 1, n: 1_000_000, wire: true,
		flags:       []string{"-engine", "bank", "-n", "1000000", "-fsync", "interval", "-checkpoint", "0"},
		zipf:        1.05,
		batch:       1024,
		transport:   "wire",
		preload:     2048,
		preloadRate: 3000,
		pacedRate:   1000,
	},
	{
		name:  "http_small_durable",
		why:   "per-request overhead: HTTP/JSON decode and one WAL write+fsync per ack dominate, engine and wire codec are idle. 1 node, -fsync always, 16-key POST /v1/inc, Zipf(1.05).",
		nodes: 1, n: 1_000_000,
		flags:       []string{"-engine", "bank", "-n", "1000000", "-fsync", "always", "-checkpoint", "0"},
		zipf:        1.05,
		batch:       16,
		transport:   "http",
		preload:     1024,
		preloadRate: 5000,
		pacedRate:   1000,
	},
	{
		name:  "ring3_wire",
		gated: true,
		why:   "replication: client routing, Node.Ingest, outbox append and REPL fan-out; uniform keys load all 64 partitions and defeat coalescing. 3 nodes RF=3, n=4M, smart client over wire.",
		nodes: 3, n: 4_000_000, wire: true,
		flags: []string{"-cluster", "-rf", "3", "-n", "4000000", "-partitions", "64", "-fsync", "interval", "-checkpoint", "0",
			// Replicas become byte-identical through anti-entropy rounds, and a
			// join installs partitions at the rebalance cadence. At the
			// daemon's defaults (5 s, 500 ms) both waits are a few whole
			// periods, which would make set-up and convergence time measure
			// where in a period the run happened to start.
			"-antientropy", "500ms", "-rebalance", "100ms"},
		batch:       1024,
		transport:   "client",
		preload:     512,
		preloadRate: 400,
		pacedRate:   200,
	},
	{
		name:  "mixed_window_recover",
		why:   "reads against writes on the window engine's bucket ring with 5 s checkpoints under load, then kill -9 and restart: snapcodec decode plus WAL tail replay. Zipf(1.2), wire writer, HTTP reader.",
		nodes: 1, n: 1_000_000, wire: true,
		flags:        []string{"-engine", "window", "-bucket", "2s", "-window", "16s", "-n", "1000000", "-fsync", "interval", "-checkpoint", "5s"},
		zipf:         1.2,
		batch:        1024,
		transport:    "wire",
		preload:      1024,
		pacedRate:    50,
		readerBeside: true,
		readRate:     20,
		window:       "8s",
		killPinned:   true,
	},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// pool is the pre-generated request stream of one run: every key counterd
// will see is drawn here from the seed before the first process starts.
// Requests cycle through the pool, and acked counts how often each batch was
// acknowledged, which is all the exact tally needs.
type pool struct {
	keys   [][]int
	bodies [][]byte // JSON bodies, http transport only
	acked  []atomic.Int64
	cursor atomic.Int64
}

// poolKeys bounds generation time and memory; at 10 M events/s a phase
// cycles the pool a few times, which repeats hot and cold keys alike.
const poolKeys = 4 << 20

func genPool(sp spec, seed uint64) *pool {
	rng := xrand.NewSeeded(seed)
	var src stream.Source
	if sp.zipf > 0 {
		src = stream.NewZipf(uint64(sp.n), sp.zipf, rng)
	} else {
		src = stream.NewUniform(uint64(sp.n), rng)
	}
	count := min(poolKeys/sp.batch, 1<<16)
	p := &pool{keys: make([][]int, count), acked: make([]atomic.Int64, count)}
	for i := range p.keys {
		b := make([]int, sp.batch)
		for j := range b {
			b[j] = int(src.Next())
		}
		p.keys[i] = b
	}
	if sp.transport == "http" {
		p.bodies = make([][]byte, count)
		for i, b := range p.keys {
			p.bodies[i], _ = json.Marshal(map[string][]int{"keys": b}) // ints always marshal
		}
	}
	return p
}

// fresh is the same requests with an empty tally, for a throw-away set-up.
func (p *pool) fresh() *pool {
	return &pool{keys: p.keys, bodies: p.bodies, acked: make([]atomic.Int64, len(p.keys))}
}

func (p *pool) next() int { return int((p.cursor.Add(1) - 1) % int64(len(p.keys))) }

// tally is the exact count per key of every acknowledged event, and how
// many batches and events were acknowledged in all.
func (p *pool) tally(n int) (truth []uint32, acks, events int64) {
	truth = make([]uint32, n)
	for i := range p.keys {
		a := p.acked[i].Load()
		for _, k := range p.keys[i] {
			truth[k] += uint32(a)
		}
		acks += a
		events += a * int64(len(p.keys[i]))
	}
	return truth, acks, events
}

// ackRecord is what the windowed gate needs from each write: when it was
// acknowledged and which pool batch it carried.
type ackRecord struct {
	at    time.Time
	batch int
}

// load is the client side of one cluster: connections, the writer and
// reader actors over them, and the record of what was acknowledged.
type load struct {
	sp      spec
	pool    *pool
	workers int
	hc      *http.Client
	conns   []*wire.Conn
	clients []*client.Client
	target  *node

	ackMu  sync.Mutex
	ackLog []ackRecord // kept only where a windowed gate will read it

	reads atomic.Int64
}

func newLoad(sp spec, p *pool, cl *fleet, workers int) (*load, error) {
	ld := &load{sp: sp, pool: p, workers: workers, target: cl.nodes[0]}
	ld.hc = &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: workers + 2},
	}
	switch sp.transport {
	case "wire":
		for w := 0; w < workers; w++ {
			c, err := wire.Dial(ld.target.wireAddr, 10*time.Second)
			if err != nil {
				ld.close()
				return nil, err
			}
			ld.conns = append(ld.conns, c)
		}
	case "client":
		var seeds []string
		for _, n := range cl.nodes {
			seeds = append(seeds, n.base())
		}
		for w := 0; w < workers; w++ {
			c, err := client.New(client.Config{Seeds: seeds, BatchSize: sp.batch, Transport: client.TransportWire, HTTPTimeout: 10 * time.Second})
			if err != nil {
				ld.close()
				return nil, err
			}
			ld.clients = append(ld.clients, c)
		}
	}
	return ld, nil
}

func (ld *load) close() {
	for _, c := range ld.conns {
		c.Close()
	}
	for _, c := range ld.clients {
		c.Close()
	}
	ld.hc.CloseIdleConnections()
}

// write sends the pool's next batch on worker w's connection and insists
// that the ack counts every key of it.
func (ld *load) write(w int) (int, error) {
	i := ld.pool.next()
	keys := ld.pool.keys[i]
	applied, err := 0, error(nil)
	switch ld.sp.transport {
	case "wire":
		applied, err = ld.conns[w].SendBatch(keys)
	case "http":
		applied, err = ld.postInc(ld.pool.bodies[i])
	case "client":
		// The smart client acks by returning nil from Flush; it has no
		// count to compare.
		c := ld.clients[w]
		if err = c.IncBatch(keys); err == nil {
			err = c.Flush()
		}
		applied = len(keys)
	}
	if err != nil {
		return 0, err
	}
	if applied != len(keys) {
		return 0, fmt.Errorf("ack applied %d of a %d-key batch", applied, len(keys))
	}
	ld.pool.acked[i].Add(1)
	if ld.sp.killPinned {
		ld.ackMu.Lock()
		ld.ackLog = append(ld.ackLog, ackRecord{time.Now(), i})
		ld.ackMu.Unlock()
	}
	return len(keys), nil
}

func (ld *load) postInc(body []byte) (int, error) {
	resp, err := ld.hc.Post(ld.target.base()+"/v1/inc", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var ack struct {
		Applied int `json:"applied"`
	}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return 0, fmt.Errorf("POST /v1/inc: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		return 0, err
	}
	return ack.Applied, nil
}

// hotKeys is how many of the lowest (under Zipf, hottest) keys the reader
// cycles through.
const hotKeys = 100

// read is the reader's request mix: nine point estimates of hot keys, then
// one top-10, against node 0 over keep-alive HTTP.
func (ld *load) read(int) (int, error) {
	i := ld.reads.Add(1) - 1
	url := ld.target.base() + "/v1/estimate/" + strconv.FormatInt(i%hotKeys, 10)
	if i%10 == 9 {
		url = ld.target.base() + "/v1/topk?k=10"
	}
	if ld.sp.window != "" {
		if i%10 == 9 {
			url += "&window=" + ld.sp.window
		} else {
			url += "?window=" + ld.sp.window
		}
	}
	resp, err := ld.hc.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var ans struct {
		Estimate *float64          `json:"estimate"`
		TopK     []json.RawMessage `json:"topk"`
	}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return 0, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&ans); err != nil {
		return 0, err
	}
	if ans.Estimate == nil && ans.TopK == nil {
		return 0, fmt.Errorf("GET %s: neither an estimate nor a top-k in the answer", url)
	}
	return 0, nil
}

func (ld *load) writer(rate float64) actor {
	return actor{name: "write", workers: ld.workers, rate: rate, do: ld.write}
}

func (ld *load) reader(rate float64) actor {
	return actor{name: "read", workers: 1, rate: rate, do: ld.read}
}

// preload sends the workload's fixed warm-up batches, on the schedule of
// preloadRate if there is one. It is part of set-up, not of any measured
// phase.
func (ld *load) preload() error {
	var (
		sent  atomic.Int64
		wg    sync.WaitGroup
		errs  = make([]error, ld.workers)
		start = time.Now()
	)
	for w := 0; w < ld.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := sent.Add(1) - 1; i < int64(ld.sp.preload); i = sent.Add(1) - 1 {
				if ld.sp.preloadRate > 0 {
					sleepUntil(start.Add(time.Duration(float64(i) / ld.sp.preloadRate * float64(time.Second))))
				}
				if _, err := ld.write(w); err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}
