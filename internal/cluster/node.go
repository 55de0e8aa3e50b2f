package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/snapcodec"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Config wires one Store into a cluster.
type Config struct {
	// Self is the node's advertised base URL (e.g. "http://10.0.0.7:8347").
	// It doubles as the node's identity in the member table and on the
	// ring, so it must be reachable by every peer.
	Self string
	// Join lists peer base URLs to gossip with at startup. Empty bootstraps
	// a single-node cluster that others join.
	Join []string
	// RF is the replication factor: each partition lives on RF distinct
	// nodes (clamped to the cluster size). Default 2.
	RF int
	// VNodes is the virtual-node count per member (default DefaultVNodes).
	VNodes int
	// HintDir is where per-peer replication outboxes (hinted handoff)
	// persist. Default: <store dir>/hints — but the store dir is not known
	// here, so counterd passes it explicitly.
	HintDir string
	// MaxForward caps the keys per replication/forward HTTP call.
	// Default 8192.
	MaxForward int

	// WireAddr is the node's advertised binary wire listener ("host:port"),
	// gossiped to peers so replication fan-out and smart clients can use the
	// wire transport. Empty = this node serves HTTP only.
	WireAddr string

	GossipInterval      time.Duration // member exchange cadence (default 1s)
	GossipFanout        int           // peers contacted per round (default 3)
	ReplInterval        time.Duration // outbox drain cadence (default 200ms)
	AntiEntropyInterval time.Duration // partition sync cadence (default 5s)
	RebalanceInterval   time.Duration // rebalance step cadence (default 500ms)
	HTTPTimeout         time.Duration // per-request deadline (default 5s)

	Membership MembershipConfig

	// HintFsync is the fsync policy of the outbox logs, in -fsync
	// vocabulary ("always" | "interval" | "off"). Default "off" — the
	// process-crash-safe choice: every append is still flushed to the OS
	// at commit, and docs/CLUSTER.md explains why hint loss under power
	// failure is tolerable. Set "always" to close that window at the cost
	// of an extra fsync per fan-out append.
	HintFsync string

	// hintPolicy is HintFsync resolved by defaults().
	hintPolicy wal.SyncPolicy

	// Logf receives operational log lines (default log.Printf; tests pass
	// a silent sink).
	Logf func(format string, args ...any)
}

func (c *Config) defaults() error {
	if c.Self == "" {
		return errors.New("cluster: Config.Self is required")
	}
	if c.HintDir == "" {
		return errors.New("cluster: Config.HintDir is required")
	}
	if c.RF <= 0 {
		c.RF = 2
	}
	if c.VNodes <= 0 {
		c.VNodes = DefaultVNodes
	}
	if c.MaxForward <= 0 {
		c.MaxForward = 8192
	}
	if c.GossipInterval <= 0 {
		c.GossipInterval = time.Second
	}
	if c.GossipFanout <= 0 {
		c.GossipFanout = 3
	}
	if c.ReplInterval <= 0 {
		c.ReplInterval = 200 * time.Millisecond
	}
	if c.AntiEntropyInterval <= 0 {
		c.AntiEntropyInterval = 5 * time.Second
	}
	if c.RebalanceInterval <= 0 {
		c.RebalanceInterval = 500 * time.Millisecond
	}
	if c.HTTPTimeout <= 0 {
		c.HTTPTimeout = 5 * time.Second
	}
	if c.HintFsync == "" {
		c.HintFsync = "off"
	}
	var err error
	if c.hintPolicy, err = wal.ParseSyncPolicy(c.HintFsync); err != nil {
		return fmt.Errorf("cluster: HintFsync: %w", err)
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return nil
}

// Node is one cluster member: a Store plus membership, routing, write
// fan-out, and anti-entropy. The owner serves Node.Handler over HTTP,
// calls Start to launch the background loops, and Stop before closing the
// Store.
type Node struct {
	cfg Config
	st  *server.Store
	mem *Membership
	reb *rebalancer

	ringMu sync.Mutex // serializes rebuildRing, so flips are seen in order
	ring   atomic.Pointer[Ring]
	client *http.Client
	pool   *wire.Pool // persistent wire conns for replica fan-out

	obMu     sync.Mutex
	outboxes map[string]*outbox

	// One-slot wake channels of the gossip and rebalance loops. A ring flip
	// sends to both without blocking, so a burst of flips coalesces into one
	// round of each.
	wakeGossip    chan struct{}
	wakeRebalance chan struct{}

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// Anti-entropy loop-local state (touched only by that goroutine):
	// recovered peers pending repair, last-seen member states, and the
	// per-partition write versions observed last round (the quiescence
	// gate).
	needsRepair  map[string]bool
	repairFailed map[string]bool
	prevStates   map[string]MemberState
	lastPartVer  []uint64

	// Counters live in the store's metrics registry so /v1/cluster/info and
	// /metrics read the same atomics (metrics.Counter is an atomic.Uint64
	// underneath) — one source of truth for both surfaces.
	aeRounds    *metrics.Counter
	forwards    *metrics.Counter
	replSent    *metrics.Counter
	replWire    *metrics.Counter // subset of replSent shipped over the wire protocol
	replRecvd   *metrics.Counter
	replDropped *metrics.Counter // repl keys for partitions neither owned nor frozen

	aeDeltaSyncs *metrics.Counter // anti-entropy repairs that shipped only divergent blocks
	aeBytesSaved *metrics.Counter // full-snapshot bytes avoided by those delta repairs
	rebDeltaPull *metrics.Counter // warm handoffs satisfied by a block delta

	// Partition exchanges anti-entropy ran, by the gate that opened them.
	aeRepairRecovery, aeRepairDivergence *metrics.Counter

	gossipRounds [3]*metrics.Counter // by trigger: tick, change, join

	memTransitions *metrics.CounterVec // failure-detector state flips, by from/to
}

// New builds a Node around an open Store. Call Start to join the cluster.
func New(st *server.Store, cfg Config) (*Node, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.HintDir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	n := &Node{
		cfg:           cfg,
		st:            st,
		client:        &http.Client{Timeout: cfg.HTTPTimeout},
		pool:          wire.NewPool(cfg.HTTPTimeout),
		outboxes:      make(map[string]*outbox),
		wakeGossip:    make(chan struct{}, 1),
		wakeRebalance: make(chan struct{}, 1),
		stop:          make(chan struct{}),
		needsRepair:   make(map[string]bool),
		repairFailed:  make(map[string]bool),
		prevStates:    make(map[string]MemberState),
		lastPartVer:   make([]uint64, st.Partitions()),
	}
	// Replication chunks must fit the receiving store's batch cap, or a
	// drained chunk would be rejected forever and wedge the outbox.
	if n.cfg.MaxForward > st.MaxBatch() {
		n.cfg.MaxForward = st.MaxBatch()
	}
	n.initMetrics()
	n.mem = NewMembership(cfg.Self, cfg.Membership, n.rebuildRing)
	n.mem.OnTransition(func(id string, from, to MemberState) {
		n.memTransitions.With(from.String(), to.String()).Inc()
	})
	if cfg.WireAddr != "" {
		n.mem.SetSelfWire(cfg.WireAddr)
	}
	n.rebuildRing()
	n.reb = newRebalancer(n)
	return n, nil
}

// initMetrics registers the cluster layer's instruments into the store's
// registry. The scrape-time gauge funcs close over n and run only once the
// node is fully built.
func (n *Node) initMetrics() {
	reg := n.st.Metrics()
	n.aeRounds = reg.Counter("counterd_cluster_antientropy_rounds_total",
		"Anti-entropy rounds started (skipped rounds while unreconciled do not count).")
	n.forwards = reg.Counter("counterd_cluster_forwards_total",
		"Batches forwarded to a remote coordinator (partitions this node does not replicate).")
	n.replSent = reg.Counter("counterd_cluster_repl_keys_sent_total",
		"Replication keys drained from peer outboxes (all transports).")
	n.replWire = reg.Counter("counterd_cluster_repl_keys_wire_total",
		"Subset of sent replication keys shipped over the binary wire protocol.")
	n.replRecvd = reg.Counter("counterd_cluster_repl_keys_received_total",
		"Replication keys applied locally from peers.")
	n.replDropped = reg.Counter("counterd_cluster_repl_keys_dropped_total",
		"Received replication keys dropped (partition neither owned nor frozen here).")
	n.aeDeltaSyncs = reg.Counter("counterd_antientropy_delta_syncs_total",
		"Anti-entropy partition repairs that transferred only divergent blocks.")
	n.aeBytesSaved = reg.Counter("counterd_antientropy_bytes_saved_total",
		"Bytes not transferred because anti-entropy shipped block deltas instead of full partition snapshots.")
	n.rebDeltaPull = reg.Counter("counterd_rebalance_delta_handoffs_total",
		"Warm rebalance handoffs satisfied by a block delta instead of a full partition transfer.")
	repairs := reg.CounterVec("counterd_antientropy_repairs_total",
		"Anti-entropy partition exchanges, by the gate that opened them (recovery: a peer came back; divergence: quiescent hash mismatch).", "gate")
	n.aeRepairRecovery = repairs.With("recovery")
	n.aeRepairDivergence = repairs.With("divergence")
	rounds := reg.CounterVec("counterd_cluster_gossip_rounds_total",
		"Gossip rounds, by cause (tick: the -gossip heartbeat; change: the routable member set changed; join: seeds not yet reached).", "cause")
	for t, cause := range [...]string{onTick: "tick", onWake: "change", onRetry: "join"} {
		n.gossipRounds[t] = rounds.With(cause)
	}
	n.memTransitions = reg.CounterVec("counterd_cluster_member_transitions_total",
		"Member state transitions recorded by the local failure detector.", "from", "to")
	reg.GaugeFunc("counterd_cluster_outbox_pending_keys",
		"Replication keys queued across every peer outbox (hinted-handoff backlog).",
		func() float64 {
			n.obMu.Lock()
			defer n.obMu.Unlock()
			var total int64
			for _, o := range n.outboxes {
				total += o.pending()
			}
			return float64(total)
		})
	reg.GaugeFunc("counterd_cluster_outboxes",
		"Open per-peer outbox logs.",
		func() float64 {
			n.obMu.Lock()
			defer n.obMu.Unlock()
			return float64(len(n.outboxes))
		})
	reg.GaugeFunc("counterd_cluster_ring_members",
		"Members on the current routing ring (alive + suspect).",
		func() float64 { return float64(len(n.ring.Load().Members())) })
	for _, state := range []MemberState{StateAlive, StateSuspect, StateDead} {
		st := state
		reg.GaugeFuncVec("counterd_cluster_members",
			"Members in the local table, by failure-detector state.",
			[]string{"state"}, []string{st.String()},
			func() float64 { return float64(n.mem.CountState(st)) })
	}
}

// Store returns the node's underlying store.
func (n *Node) Store() *server.Store { return n.st }

// Ready is the cluster-level readiness check behind /v1/readyz: the store must
// be durably writable (WAL open and unpoisoned), the node must not have
// announced its departure, the durable ownership state must reflect the
// current ring version, and no partition may still await its rebalance
// install. A joining node therefore reports unready exactly until its
// partitions are warm — the Kubernetes readiness gate that keeps traffic
// off cold replicas.
func (n *Node) Ready() error {
	if err := n.st.Ready(); err != nil {
		return err
	}
	if n.mem.Left() {
		return errors.New("cluster: node is decommissioning")
	}
	return n.reb.ready(n.ring.Load().Version())
}

// Ring returns the node's current routing ring.
func (n *Node) Ring() *Ring { return n.ring.Load() }

// Membership returns the node's member table.
func (n *Node) Membership() *Membership { return n.mem }

// rebuildRing recomputes the ring from the member table. A flip — a new
// ring version — is an event: it wakes the gossip loop, which pushes the
// change to peers at once (infection-style, as in SWIM), and the
// rebalancer, which re-plans against the new ring.
func (n *Node) rebuildRing() {
	n.ringMu.Lock()
	defer n.ringMu.Unlock()
	next := NewRing(n.mem.RingMembers(), n.cfg.RF, n.cfg.VNodes)
	prev := n.ring.Swap(next)
	if prev == nil || prev.Version() == next.Version() {
		return
	}
	wake(n.wakeGossip)
	wake(n.wakeRebalance)
}

// wake signals a loop's wake channel without blocking; a signal already
// pending absorbs this one.
func wake(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// Start seeds the member table from cfg.Join, runs one synchronous gossip
// round (so a joining node routes correctly before its first write), and
// launches the gossip, replication-drain, anti-entropy and rebalance loops.
// A join whose seeds do not answer yet (a seed still binding its listener)
// is retried on the loops' short backoff, not a whole gossip interval later.
func (n *Node) Start() {
	for _, s := range n.cfg.Join {
		n.mem.AddSeed(s)
	}
	n.reopenOutboxes()
	joined := len(n.cfg.Join) == 0
	gossip := func(t trigger) bool {
		n.gossipRounds[t].Inc()
		if n.gossipRound() && !joined {
			joined = true
			wake(n.wakeRebalance) // the seeds answered: plan against them now
		}
		n.mem.Tick()
		return !joined
	}
	gossip(onRetry) // the join round
	wake(n.wakeRebalance)
	n.runLoop(n.cfg.GossipInterval, n.wakeGossip, !joined, gossip)
	n.runLoop(n.cfg.ReplInterval, nil, false, func(trigger) bool {
		n.drainOutboxes()
		return false
	})
	n.runLoop(n.cfg.AntiEntropyInterval, nil, false, func(trigger) bool {
		n.antiEntropyRound()
		return false
	})
	n.runLoop(n.cfg.RebalanceInterval, n.wakeRebalance, false, n.reb.step)
}

// trigger is why a background loop ran a round.
type trigger int

const (
	onTick  trigger = iota // the loop's interval elapsed
	onWake                 // its wake channel fired: the ring flipped
	onRetry                // the previous round left work owed
)

// retryMin is the first retry delay of a round that left work owed.
const retryMin = 5 * time.Millisecond

// runLoop runs fn every `every`, at once whenever wakeup fires (a nil
// channel never does), and — while fn reports work still owed — again after a
// backoff that starts at retryMin and doubles until it reaches `every`,
// where the ticker alone carries on. A wake resets the backoff; owed says
// whether the first round is already owed.
func (n *Node) runLoop(every time.Duration, wakeup <-chan struct{}, owed bool, fn func(trigger) bool) {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		backoff := retryMin
		for {
			var retry <-chan time.Time
			if owed && backoff < every {
				retry = time.After(backoff)
				backoff *= 2
			}
			var why trigger
			select {
			case <-n.stop:
				return
			case <-t.C:
				why = onTick
			case <-wakeup:
				why, backoff = onWake, retryMin
			case <-retry:
				why = onRetry
			}
			if owed = fn(why); !owed {
				backoff = retryMin
			}
		}
	}()
}

// Stop halts the background loops and closes the outbox logs. Pending
// hints stay on disk for the next start. Safe to call more than once.
func (n *Node) Stop() {
	n.stopOnce.Do(func() { close(n.stop) })
	n.wg.Wait()
	n.pool.Close()
	n.obMu.Lock()
	defer n.obMu.Unlock()
	for peer, o := range n.outboxes {
		if err := o.close(); err != nil && !errors.Is(err, wal.ErrClosed) {
			n.cfg.Logf("cluster: closing outbox for %s: %v", peer, err)
		}
	}
	n.outboxes = make(map[string]*outbox)
}

// --- write path ---------------------------------------------------------

// forwardJob is a partition's key group headed to a remote coordinator.
type forwardJob struct {
	partition int
	keys      []int
	replicas  []string
}

// Ingest durably counts a batch of keys, coordinating across the ring:
// keys of partitions this node replicates are WAL-applied locally (the ack
// point) and queued to the other replicas' outboxes; keys of partitions it
// does not own are forwarded synchronously to a replica.
//
// forwarded marks a batch that already made one forwarding hop. Ring views
// can disagree during membership churn, so without a bound two nodes that
// each believe the other owns a partition would ping-pong the batch in
// nested HTTP calls until timeout. A forwarded batch is never forwarded
// again: partitions this node still does not own are queued durably to
// EVERY replica in this node's view — normal coordination minus the local
// apply — so the events land on the real owners through the replication
// drain while the chain stays one hop. The ack for those keys is the outbox
// append (durable intent), not a register apply; docs/CLUSTER.md spells out
// the delivery guarantee.
//
// The returned count is the number of keys acknowledged.
func (n *Node) Ingest(keys []int, forwarded bool) (int, error) {
	if len(keys) == 0 {
		return 0, nil
	}
	ring := n.ring.Load()
	nKeys := n.st.Len()
	parts := n.st.Partitions()

	// Classify each partition once, then split the batch in key order.
	type dest struct {
		local    bool
		queueAll bool // forwarded here, yet unowned: outbox to every replica
		replicas []string
	}
	dests := make(map[int]*dest)
	for _, k := range keys {
		if k < 0 || k >= nKeys {
			return 0, fmt.Errorf("%w: key %d out of range [0,%d)", server.ErrBadInput, k, nKeys)
		}
		p := snapcodec.PartitionOf(k, nKeys, parts)
		if _, ok := dests[p]; !ok {
			reps := ring.Replicas(p)
			d := &dest{replicas: reps}
			for _, r := range reps {
				if r == n.cfg.Self {
					d.local = true
				}
			}
			switch {
			case len(reps) == 0:
				// An empty ring (a decommissioned last node) still needs a
				// home for the keys.
				d.local = true
			case forwarded && !d.local:
				// The forwarder's ring view disagreed with ours. Applying
				// locally would strand the events on a non-owner (evicted at
				// the next reconcile); re-forwarding could ping-pong. Queue
				// to the owners instead.
				d.queueAll = true
			}
			dests[p] = d
		}
	}
	var local []int
	remote := make(map[int]*forwardJob)
	queued := make(map[int]*forwardJob)
	fan := make(map[string][]int)
	for _, k := range keys {
		p := snapcodec.PartitionOf(k, nKeys, parts)
		d := dests[p]
		switch {
		case d.queueAll:
			job, ok := queued[p]
			if !ok {
				job = &forwardJob{partition: p, replicas: d.replicas}
				queued[p] = job
			}
			job.keys = append(job.keys, k)
		case d.local:
			local = append(local, k)
			for _, r := range d.replicas {
				if r != n.cfg.Self {
					fan[r] = append(fan[r], k)
				}
			}
		default:
			job, ok := remote[p]
			if !ok {
				job = &forwardJob{partition: p, replicas: d.replicas}
				remote[p] = job
			}
			job.keys = append(job.keys, k)
		}
	}

	applied := 0
	// Epoch-tag every queued hint on a windowed store: the drain may run
	// after a bucket rotation, and the tag is what lets the receiver heal
	// the keys into their origin bucket instead of smearing them into its
	// current one. Read the epoch AFTER the local apply — Apply ticks the
	// window first, so the keys landed at the post-tick epoch.
	tagged := n.st.Windowed()
	if len(local) > 0 {
		if err := n.st.Apply(local); err != nil {
			return 0, err
		}
		applied += len(local)
		epoch := n.st.WindowEpoch()
		// Fan out only after the local (durable) apply: the outbox ships
		// exactly what was acknowledged.
		for peer, g := range fan {
			ob, err := n.outboxFor(peer)
			if err == nil {
				err = ob.append(g, epoch, tagged)
			}
			if err != nil {
				// Replication intent lost, data not: the keys are in the
				// local WAL and anti-entropy still spreads their effect.
				n.cfg.Logf("cluster: queueing %d keys for %s: %v", len(g), peer, err)
			}
		}
	}
	for _, job := range queued {
		// Coordination minus the local apply: the keys ack once they sit
		// durably in at least one owner's outbox (ideally all — each owner's
		// delivery is that replica's copy).
		ok := false
		var lastErr error
		epoch := n.st.WindowEpoch()
		for _, peer := range job.replicas {
			ob, err := n.outboxFor(peer)
			if err == nil {
				err = ob.append(job.keys, epoch, tagged)
			}
			if err != nil {
				lastErr = err
				n.cfg.Logf("cluster: queueing %d forwarded keys for %s: %v", len(job.keys), peer, err)
				continue
			}
			ok = true
		}
		if !ok {
			return applied, fmt.Errorf("cluster: queueing forwarded partition %d: %w", job.partition, lastErr)
		}
		applied += len(job.keys)
	}
	for _, job := range remote {
		if err := n.forward(job); err != nil {
			return applied, err
		}
		applied += len(job.keys)
	}
	return applied, nil
}

// forward sends a partition's keys to its replicas, trying the primary
// first, until one coordinates the write. The fwd marker caps the chain at
// one hop (see Ingest).
func (n *Node) forward(job *forwardJob) error {
	var lastErr error
	for _, peer := range job.replicas {
		if m, ok := n.mem.State(peer); ok && m.State == StateDead {
			continue
		}
		// Chunk by MaxForward (clamped to the store batch cap) so the
		// peer's Apply can never reject the batch as oversized.
		if err := n.postKeysChunked(peer, "/v1/inc?fwd=1", job.keys); err != nil {
			lastErr = err
			continue
		}
		n.forwards.Add(1)
		return nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("cluster: no live replica for partition %d", job.partition)
	}
	return fmt.Errorf("cluster: forward partition %d: %w", job.partition, lastErr)
}

// outboxFor returns (opening on demand) the peer's durable hint log.
func (n *Node) outboxFor(peer string) (*outbox, error) {
	n.obMu.Lock()
	defer n.obMu.Unlock()
	if o, ok := n.outboxes[peer]; ok {
		return o, nil
	}
	dir := filepath.Join(n.cfg.HintDir, fmt.Sprintf("%016x", hash64(peer)))
	o, wasReset, err := openOutbox(dir, wal.Options{Policy: n.cfg.hintPolicy})
	if err != nil {
		return nil, err
	}
	if wasReset {
		n.cfg.Logf("cluster: outbox for %s was corrupt; dropped pending hints", peer)
	}
	// Leave a human-readable marker of which peer this hashed dir serves.
	_ = os.WriteFile(filepath.Join(dir, "peer.txt"), []byte(peer+"\n"), 0o644)
	n.outboxes[peer] = o
	return o, nil
}

// reopenOutboxes revives on-disk hint queues left by a previous process,
// so leftover hinted batches drain promptly instead of waiting for fresh
// write traffic toward the same peer to reopen them (and /v1/cluster/info
// reports their true depth from the start).
func (n *Node) reopenOutboxes() {
	ents, err := os.ReadDir(n.cfg.HintDir)
	if err != nil {
		return
	}
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(n.cfg.HintDir, e.Name(), "peer.txt"))
		if err != nil {
			n.cfg.Logf("cluster: hint dir %s has no peer marker; leaving it", e.Name())
			continue
		}
		peer := strings.TrimSpace(string(raw))
		if peer == "" || peer == n.cfg.Self {
			continue
		}
		if _, err := n.outboxFor(peer); err != nil {
			n.cfg.Logf("cluster: reopening outbox for %s: %v", peer, err)
		}
	}
}

// drainOutboxes ships queued hints to every alive peer, preferring the
// peer's gossiped wire listener over HTTP POSTs.
func (n *Node) drainOutboxes() {
	n.obMu.Lock()
	peers := make(map[string]*outbox, len(n.outboxes))
	for p, o := range n.outboxes {
		peers[p] = o
	}
	n.obMu.Unlock()
	for peer, o := range peers {
		if o.pending() == 0 {
			continue
		}
		if m, ok := n.mem.State(peer); ok && m.State != StateAlive {
			continue // hinted handoff: hold until the peer returns
		}
		if err := o.drain(n.cfg.MaxForward, func(chunk []int, epoch uint64, tagged bool) error {
			if err := n.sendRepl(peer, chunk, epoch, tagged); err != nil {
				return err
			}
			n.replSent.Add(uint64(len(chunk)))
			return nil
		}); err != nil {
			n.cfg.Logf("cluster: draining outbox for %s: %v", peer, err)
		}
	}
}

// sendRepl ships one replication chunk to peer: over the pooled persistent
// wire connection when the peer gossips a wire address, falling back to the
// HTTP POST /v1/cluster/repl path when it has none or the wire attempt fails
// at the transport level. A wire *RemoteError is the peer's store rejecting
// the batch — HTTP would answer the same way, so it is returned, not
// retried on the other transport. The one exception: a 400 to an
// epoch-tagged REPLAT frame means the peer predates the frame, and the HTTP
// path (which carries the epoch in JSON) is tried instead.
func (n *Node) sendRepl(peer string, chunk []int, epoch uint64, tagged bool) error {
	if wa := n.mem.WireAddr(peer); wa != "" {
		var err error
		if tagged {
			_, err = n.pool.SendReplAt(wa, chunk, epoch)
		} else {
			_, err = n.pool.SendRepl(wa, chunk)
		}
		if err == nil {
			n.replWire.Add(uint64(len(chunk)))
			return nil
		}
		var re *wire.RemoteError
		if errors.As(err, &re) && !(tagged && re.Code == 400) {
			return err
		}
		n.cfg.Logf("cluster: wire repl to %s (%s) failed, falling back to http: %v", peer, wa, err)
	}
	if tagged {
		return n.postKeysAt(peer, "/v1/cluster/repl", chunk, epoch)
	}
	return n.postKeys(peer, "/v1/cluster/repl", chunk)
}

// postKeysChunked posts keys in MaxForward-sized slices. Chunks deliver
// independently, so a mid-sequence failure leaves a prefix applied — the
// same at-least-once exposure as every other delivery path here.
func (n *Node) postKeysChunked(peer, path string, keys []int) error {
	for lo := 0; lo < len(keys); lo += n.cfg.MaxForward {
		hi := min(lo+n.cfg.MaxForward, len(keys))
		if err := n.postKeys(peer, path, keys[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}

// postKeysAt POSTs {"keys": [...], "epoch": e} to peer+path — the HTTP
// spelling of an epoch-tagged replication chunk. A peer that predates the
// field simply ignores it (the pre-delta smear-into-current behavior).
func (n *Node) postKeysAt(peer, path string, keys []int, epoch uint64) error {
	body, err := json.Marshal(map[string]any{"keys": keys, "epoch": epoch})
	if err != nil {
		return err
	}
	return n.postBody(peer, path, body)
}

// postKeys POSTs {"keys": [...]} to peer+path, expecting a 2xx.
func (n *Node) postKeys(peer, path string, keys []int) error {
	body, err := json.Marshal(map[string][]int{"keys": keys})
	if err != nil {
		return err
	}
	return n.postBody(peer, path, body)
}

func (n *Node) postBody(peer, path string, body []byte) error {
	resp, err := n.client.Post(peer+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s%s: status %d: %s", peer, path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

// --- wire ingest --------------------------------------------------------

// applyRepl replica-applies keys locally in store-cap slices — the verb
// behind both POST /v1/cluster/repl and wire REPL frames. Replication traffic
// may bundle many coordinator batches (and a peer's MaxForward may exceed
// ours), so it slices by the store's own batch cap to never be rejected as
// oversized.
//
// Keys land only in partitions this node owns on its current ring, or holds
// frozen (a surrendered copy absorbing a stale coordinator's late drain —
// its frozen registers still hand that history to the new owners). Keys for
// any other partition are DROPPED, deliberately: this node's copy would be
// evicted or never read, and redirecting the delivery to the current owners
// would double-count — every replica of the old ring received its own copy
// of the event, and each redirected copy would land on the same new owners.
// Dropping is safe because the event's coordinator applied it to its own
// registers at ack time, and that copy reaches the new owners through the
// rebalance transfer or anti-entropy.
func (n *Node) applyRepl(keys []int) (int, error) {
	return n.applyReplAt(keys, 0, false)
}

// applyReplAt is applyRepl with an optional origin bucket epoch: tagged
// chunks land through Store.ApplyAt, which heals the keys into the bucket
// they were counted in at the sender (or drops the ones whose bucket has
// rotated out of the local ring) instead of smearing a delayed drain into
// the current bucket.
func (n *Node) applyReplAt(keys []int, epoch uint64, tagged bool) (int, error) {
	ring := n.ring.Load()
	nKeys := n.st.Len()
	parts := n.st.Partitions()
	keep := keys
	accepts := make(map[int]bool)
	filtered := false
	for _, k := range keys {
		if k < 0 || k >= nKeys {
			return 0, fmt.Errorf("%w: key %d out of range [0,%d)", server.ErrBadInput, k, nKeys)
		}
		p := snapcodec.PartitionOf(k, nKeys, parts)
		if _, ok := accepts[p]; !ok {
			accepts[p] = ring.Owns(n.cfg.Self, p) || n.st.FrozenPartition(p)
		}
		if !accepts[p] {
			filtered = true
		}
	}
	if filtered {
		keep = make([]int, 0, len(keys))
		for _, k := range keys {
			if accepts[snapcodec.PartitionOf(k, nKeys, parts)] {
				keep = append(keep, k)
			}
		}
		n.replDropped.Add(uint64(len(keys) - len(keep)))
	}
	received := 0
	for lo := 0; lo < len(keep); lo += n.st.MaxBatch() {
		hi := min(lo+n.st.MaxBatch(), len(keep))
		if tagged {
			applied, err := n.st.ApplyAt(keep[lo:hi], epoch)
			if err != nil {
				return lo, err
			}
			received += applied
		} else {
			if err := n.st.Apply(keep[lo:hi]); err != nil {
				return lo, err
			}
			received += hi - lo
		}
	}
	n.replRecvd.Add(uint64(received))
	// The sender's chunk is fully handled either way; acknowledging the
	// drops (and the expired tagged keys) keeps its outbox moving.
	return len(keys), nil
}

// WireSink adapts the node to the wire server's ingest interface: BATCH
// frames coordinate across the ring exactly like POST /v1/inc, REPL frames
// replica-apply exactly like POST /v1/cluster/repl, and FETCH frames serve
// rebalance partition handoffs exactly like GET /v1/cluster/handoff. All
// transports share the WAL-stage+apply path underneath, so recovery replays
// them identically.
func (n *Node) WireSink() wire.Sink { return nodeSink{n} }

type nodeSink struct{ n *Node }

func (s nodeSink) Batch(keys []int) (int, error) { return s.n.Ingest(keys, false) }
func (s nodeSink) Repl(keys []int) (int, error)  { return s.n.applyRepl(keys) }
func (s nodeSink) Fetch(partition int, ringVer uint64) (byte, []byte, error) {
	return s.n.reb.serve(partition, ringVer)
}

// ReplAt serves REPLAT frames: an epoch-tagged replica apply, exactly like
// POST /v1/cluster/repl with an "epoch" field.
func (s nodeSink) ReplAt(keys []int, epoch uint64) (int, error) {
	return s.n.applyReplAt(keys, epoch, true)
}

// BlockHashes serves BHASH frames: the partition's write version plus one
// FNV-1a hash per snapcodec block — the exchange that lets delta
// anti-entropy transfer only divergent blocks.
func (s nodeSink) BlockHashes(partition int) (uint64, []uint64, error) {
	// Version BEFORE hashes, as syncPartitionDelta reads its own: the peer
	// pushes back conditional on this version, and a write landing between
	// the two reads must fail that push, not pass it against a stale diff.
	ver := s.n.st.PartitionVersion(partition)
	hashes, err := s.n.st.PartitionBlockHashes(partition)
	if err != nil {
		return 0, nil, err
	}
	return ver, hashes, nil
}

// BlockDelta serves BDELTA frames: a snapcodec delta snapshot of the
// partition restricted to the requested blocks.
func (s nodeSink) BlockDelta(partition int, blocks []uint32) ([]byte, error) {
	var buf bytes.Buffer
	if err := s.n.st.PartitionDeltaTo(&buf, partition, blocks); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// --- gossip -------------------------------------------------------------

type gossipMsg struct {
	From    string   `json:"from"`
	Members []Member `json:"members"`
}

// gossipRound exchanges member tables with up to GossipFanout random peers
// and reports whether any exchange succeeded.
func (n *Node) gossipRound() bool {
	peers := n.mem.Peers()
	rand.Shuffle(len(peers), func(i, j int) { peers[i], peers[j] = peers[j], peers[i] })
	if len(peers) > n.cfg.GossipFanout {
		peers = peers[:n.cfg.GossipFanout]
	}
	ok := false
	for _, peer := range peers {
		if n.gossipWith(peer) {
			ok = true
		}
	}
	return ok
}

func (n *Node) gossipWith(peer string) bool {
	msg := gossipMsg{From: n.cfg.Self, Members: n.mem.Snapshot()}
	body, err := json.Marshal(msg)
	if err != nil {
		return false
	}
	resp, err := n.client.Post(peer+"/v1/cluster/gossip", "application/json", bytes.NewReader(body))
	if err != nil {
		return false // Tick ages the peer toward suspect/dead
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return false
	}
	var reply gossipMsg
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&reply); err != nil {
		return false
	}
	n.mem.Contact(peer, true)
	n.mem.MergeFrom(reply.Members)
	return true
}

// --- HTTP surface -------------------------------------------------------

// RingInfo is the GET /v1/cluster/ring payload: everything a smart client
// needs to build the identical ring and route without coordination.
// Version fingerprints the member set (Ring.Version, hex) so a client can
// tell at a glance whether its cached ring is stale.
type RingInfo struct {
	Self       string   `json:"self"`
	N          int      `json:"n"`
	Partitions int      `json:"partitions"`
	RF         int      `json:"rf"`
	VNodes     int      `json:"vnodes"`
	Version    string   `json:"version"`
	Members    []Member `json:"members"`
}

// Info is the GET /v1/cluster/info payload.
type Info struct {
	Self          string           `json:"self"`
	RingVersion   string           `json:"ringVersion"`
	Members       []Member         `json:"members"`
	OwnedParts    []int            `json:"ownedPartitions"`
	OutboxPending map[string]int64 `json:"outboxPending"`
	AERounds      uint64           `json:"antiEntropyRounds"`
	Forwards      uint64           `json:"forwards"`
	ReplSent      uint64           `json:"replKeysSent"`
	ReplWire      uint64           `json:"replKeysWire"`
	ReplReceived  uint64           `json:"replKeysReceived"`
	ReplDropped   uint64           `json:"replKeysDropped"`
	// PartVersions is each partition's write-version counter — the ops
	// dashboard diffs consecutive polls to paint per-partition heat.
	PartVersions []uint64 `json:"partitionVersions"`
}

// Handler returns the node's full HTTP surface: the cluster admin API plus
// the store API (internal/server), with POST /v1/inc re-routed through the
// cluster write path.
//
//	POST /v1/inc                coordinate a batch across the ring (ack =
//	                            durable on ≥1 replica, queued to the rest)
//	POST /v1/cluster/repl       replica-apply a batch locally (no re-fan-out)
//	POST /v1/cluster/gossip     member-table exchange
//	GET  /v1/cluster/ring       RingInfo for smart clients
//	GET  /v1/cluster/info       membership/replication introspection
//	GET  /v1/cluster/rebalance  RebalanceStatus: per-partition transfer
//	                            progress and handoff offers
//	GET  /v1/cluster/handoff/{p} one partition's snapshot for a rebalance
//	                            pull (?ring=<hex> fences the puller's view;
//	                            X-Handoff-Role: owner|frozen)
//	GET  /v1/cluster/phash/{p}  partition hash + write version; ?blocks=1
//	                            adds per-block hashes for delta repair
//	GET  /v1/cluster/bdelta/{p} snapcodec delta of ?blocks=i,j,k (ascending)
//	POST /v1/cluster/bdelta/{p} max-join a block delta; ?ver=<hex> makes the
//	                            merge conditional (409 on version race)
//	GET  /v1/estimate/{key}     store read, but 421 while the key's
//	                            partition awaits its rebalance install
//	GET  /v1/topk               store read, but 421 when ?partition= is
//	                            pending (unscoped top-k is served as-is)
//	GET  /v1/readyz             cluster readiness (shadows the store's:
//	                            WAL healthy AND ring reconciled AND no
//	                            pending partitions AND not decommissioning)
//	GET  /v1/cluster/dash       embedded live ops dashboard (HTML, no
//	                            external assets)
//	(everything else)           internal/server.Handler (incl. /metrics,
//	                            /v1/healthz liveness)
//
// Like the store surface, the routes are served under /v1/ only. An
// unprefixed path falls through to the store handler, which answers 404,
// so an old client's POST /v1/inc can never count locally without ring
// coordination.
//
// GET /v1/snapshot/{p} is deliberately NOT 421-shadowed: anti-entropy
// repair pulls it peer-to-peer and must keep working mid-rebalance.
// /v1/estimates is not shadowed either — a cluster-wide register dump is an
// explicitly approximate merge surface, documented to tolerate in-flight
// transfers.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	storeH := server.Handler(n.st)
	reg := n.st.Metrics()
	handle := func(method, path string, h http.HandlerFunc) {
		mux.HandleFunc(method+" /v1"+path, server.Instrument(reg, path, h))
	}
	// Readiness shadows the store's /v1/readyz with the cluster-level check:
	// WAL health alone is not readiness while a join is still installing
	// partitions.
	handle("GET", "/readyz", func(w http.ResponseWriter, r *http.Request) {
		server.WriteReady(w, n.Ready())
	})
	handle("GET", "/cluster/dash", n.handleDash)
	handle("POST", "/inc", func(w http.ResponseWriter, r *http.Request) {
		keys, _, ok := readKeys(w, r)
		if !ok {
			return
		}
		applied, err := n.Ingest(keys, r.URL.Query().Get("fwd") == "1")
		if err != nil {
			httpError(w, StatusFor(err), err)
			return
		}
		writeJSON(w, map[string]int{"applied": applied})
	})
	handle("POST", "/cluster/repl", func(w http.ResponseWriter, r *http.Request) {
		keys, epoch, ok := readKeys(w, r)
		if !ok {
			return
		}
		var err error
		if epoch != nil {
			_, err = n.applyReplAt(keys, *epoch, true)
		} else {
			_, err = n.applyRepl(keys)
		}
		if err != nil {
			httpError(w, StatusFor(err), err)
			return
		}
		writeJSON(w, map[string]int{"applied": len(keys)})
	})
	handle("POST", "/cluster/gossip", func(w http.ResponseWriter, r *http.Request) {
		var msg gossipMsg
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&msg); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad gossip payload: %w", err))
			return
		}
		n.mem.MergeFrom(msg.Members)
		if msg.From != "" {
			n.mem.Contact(msg.From, true)
		}
		writeJSON(w, gossipMsg{From: n.cfg.Self, Members: n.mem.Snapshot()})
	})
	handle("GET", "/cluster/phash/{partition}", func(w http.ResponseWriter, r *http.Request) {
		p, err := strconv.Atoi(r.PathValue("partition"))
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad partition: %w", err))
			return
		}
		// Version BEFORE hashes (see nodeSink.BlockHashes).
		ver := n.st.PartitionVersion(p)
		h, err := n.st.PartitionHash(p)
		if err != nil {
			httpError(w, StatusFor(err), err)
			return
		}
		reply := map[string]any{
			"partition": p,
			"hash":      fmt.Sprintf("%016x", h),
			"version":   fmt.Sprintf("%016x", ver),
		}
		if r.URL.Query().Get("blocks") == "1" {
			// Per-block hashes for delta anti-entropy (the HTTP fallback of
			// the wire BHASH frame). Absent from the reply of a pre-delta
			// build — the syncing peer then falls back to a full exchange.
			hashes, err := n.st.PartitionBlockHashes(p)
			if err != nil {
				httpError(w, StatusFor(err), err)
				return
			}
			hex := make([]string, len(hashes))
			for i, bh := range hashes {
				hex[i] = fmt.Sprintf("%016x", bh)
			}
			reply["blocks"] = hex
		}
		writeJSON(w, reply)
	})
	handle("GET", "/cluster/bdelta/{partition}", func(w http.ResponseWriter, r *http.Request) {
		p, err := strconv.Atoi(r.PathValue("partition"))
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad partition: %w", err))
			return
		}
		blocks, err := parseBlockList(r.URL.Query().Get("blocks"))
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		var buf bytes.Buffer
		if err := n.st.PartitionDeltaTo(&buf, p, blocks); err != nil {
			httpError(w, StatusFor(err), err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(buf.Bytes())
	})
	handle("POST", "/cluster/bdelta/{partition}", func(w http.ResponseWriter, r *http.Request) {
		p, err := strconv.Atoi(r.PathValue("partition"))
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad partition: %w", err))
			return
		}
		wantVer := server.VersionAny
		if q := r.URL.Query().Get("ver"); q != "" {
			if wantVer, err = strconv.ParseUint(q, 16, 64); err != nil {
				httpError(w, http.StatusBadRequest, fmt.Errorf("bad version: %w", err))
				return
			}
		}
		blob, err := io.ReadAll(io.LimitReader(r.Body, 1<<30))
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("reading delta: %w", err))
			return
		}
		if err := n.st.MergeMaxDelta(blob, wantVer); err != nil {
			httpError(w, StatusFor(err), err)
			return
		}
		writeJSON(w, map[string]any{"partition": p, "merged": true})
	})
	handle("GET", "/cluster/ring", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, RingInfo{
			Self:       n.cfg.Self,
			N:          n.st.Len(),
			Partitions: n.st.Partitions(),
			RF:         n.cfg.RF,
			VNodes:     n.cfg.VNodes,
			Version:    fmt.Sprintf("%016x", n.ring.Load().Version()),
			Members:    n.mem.Snapshot(),
		})
	})
	handle("GET", "/cluster/info", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, n.info())
	})
	handle("GET", "/cluster/rebalance", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, n.reb.status())
	})
	handle("GET", "/cluster/handoff/{partition}", func(w http.ResponseWriter, r *http.Request) {
		p, err := strconv.Atoi(r.PathValue("partition"))
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad partition: %w", err))
			return
		}
		ver, err := strconv.ParseUint(r.URL.Query().Get("ring"), 16, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad ring version: %w", err))
			return
		}
		role, blob, err := n.reb.serve(p, ver)
		if err != nil {
			httpError(w, StatusFor(err), err)
			return
		}
		roleName := "owner"
		if role == wire.RoleFrozen {
			roleName = "frozen"
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("X-Handoff-Role", roleName)
		w.Write(blob)
	})
	// Read shadowing: a partition awaiting its rebalance install answers 421
	// (Misdirected Request) so smart clients refresh their ring and re-route
	// to a warm owner instead of reading a cold copy.
	handle("GET", "/estimate/{key}", func(w http.ResponseWriter, r *http.Request) {
		if key, err := strconv.Atoi(r.PathValue("key")); err == nil && key >= 0 && key < n.st.Len() {
			p := snapcodec.PartitionOf(key, n.st.Len(), n.st.Partitions())
			if n.st.PendingPartition(p) {
				httpError(w, http.StatusMisdirectedRequest,
					fmt.Errorf("partition %d is rebalancing onto this node; retry a warm replica", p))
				return
			}
		}
		storeH.ServeHTTP(w, r)
	})
	handle("GET", "/topk", func(w http.ResponseWriter, r *http.Request) {
		if q := r.URL.Query().Get("partition"); q != "" {
			if p, err := strconv.Atoi(q); err == nil && n.st.PendingPartition(p) {
				httpError(w, http.StatusMisdirectedRequest,
					fmt.Errorf("partition %d is rebalancing onto this node; retry a warm replica", p))
				return
			}
		}
		storeH.ServeHTTP(w, r)
	})
	mux.Handle("/", storeH)
	return mux
}

// Drain flushes every per-peer outbox, returning when all are empty or ctx
// expires. It does not stop the node: the replication loop keeps running
// and new writes keep being accepted — callers sequence their own shutdown
// around it.
func (n *Node) Drain(ctx context.Context) error {
	for {
		n.drainOutboxes()
		if n.outboxesEmpty() {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("cluster: drain: %w", ctx.Err())
		case <-time.After(50 * time.Millisecond):
		}
	}
}

func (n *Node) outboxesEmpty() bool {
	n.obMu.Lock()
	defer n.obMu.Unlock()
	for _, o := range n.outboxes {
		if o.pending() > 0 {
			return false
		}
	}
	return true
}

// Decommission removes this node from the ring and hands its state off: it
// marks itself left (the ring flip wakes gossip, which pushes the departure
// at once), keeps serving reads and handoff pulls while every surrendered
// partition transfers to its new owners, then drains the outboxes. The
// caller keeps the HTTP and wire listeners up until Decommission returns,
// then stops the node and exits. Returns ctx's error if the handoff cannot
// finish in time — state is still intact and a restart rejoins cleanly.
func (n *Node) Decommission(ctx context.Context) error {
	n.mem.Leave()
	for {
		n.reb.step(onRetry)
		if n.reb.idle() {
			break
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("cluster: decommission handoff: %w", ctx.Err())
		case <-time.After(100 * time.Millisecond):
		}
	}
	return n.Drain(ctx)
}

func (n *Node) info() Info {
	ring := n.ring.Load()
	info := Info{
		Self:          n.cfg.Self,
		RingVersion:   fmt.Sprintf("%016x", ring.Version()),
		Members:       n.mem.Snapshot(),
		OutboxPending: make(map[string]int64),
		AERounds:      n.aeRounds.Value(),
		Forwards:      n.forwards.Value(),
		ReplSent:      n.replSent.Value(),
		ReplWire:      n.replWire.Value(),
		ReplReceived:  n.replRecvd.Value(),
		ReplDropped:   n.replDropped.Value(),
	}
	info.PartVersions = make([]uint64, n.st.Partitions())
	for p := range info.PartVersions {
		info.PartVersions[p] = n.st.PartitionVersion(p)
	}
	for p := 0; p < n.st.Partitions(); p++ {
		if ring.Owns(n.cfg.Self, p) {
			info.OwnedParts = append(info.OwnedParts, p)
		}
	}
	n.obMu.Lock()
	for peer, o := range n.outboxes {
		info.OutboxPending[peer] = o.pending()
	}
	n.obMu.Unlock()
	return info
}

// readKeys parses the {"key": k} / {"keys": [...]} body shared by /v1/inc and
// /v1/cluster/repl, plus the optional "epoch" tag replication drains attach
// (nil when absent — a peer that predates epoch tagging).
func readKeys(w http.ResponseWriter, r *http.Request) ([]int, *uint64, bool) {
	var req struct {
		Key   *int    `json:"key"`
		Keys  []int   `json:"keys"`
		Epoch *uint64 `json:"epoch"`
	}
	// Same cap as internal/server's maxIncBody, so /v1/inc accepts the same
	// bodies in cluster and single-node mode.
	if err := json.NewDecoder(io.LimitReader(r.Body, 16<<20)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad JSON: %w", err))
		return nil, nil, false
	}
	keys := req.Keys
	if req.Key != nil {
		keys = append(keys, *req.Key)
	}
	if len(keys) == 0 {
		httpError(w, http.StatusBadRequest, errors.New(`need "key" or "keys"`))
		return nil, nil, false
	}
	return keys, req.Epoch, true
}

// parseBlockList parses the comma-separated, strictly-ascending block list
// of a GET /v1/cluster/bdelta request ("3,17,40"). Ascending order is required
// by the snapcodec delta encoder; rejecting it here keeps a malformed URL a
// 400 instead of a mid-encode failure.
func parseBlockList(q string) ([]uint32, error) {
	if q == "" {
		return nil, errors.New(`need "blocks" query parameter`)
	}
	parts := strings.Split(q, ",")
	blocks := make([]uint32, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseUint(p, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad block %q: %w", p, err)
		}
		if len(blocks) > 0 && uint32(v) <= blocks[len(blocks)-1] {
			return nil, fmt.Errorf("block list not strictly ascending at %q", p)
		}
		blocks = append(blocks, uint32(v))
	}
	return blocks, nil
}

// StatusFor is the node-level error classifier: the store surface's
// extended with the rebalance handoff errors, so both layers share one
// error taxonomy — not-a-source is 409 (retry after convergence), a
// malformed handoff request is 400. Exported for wire-server configuration
// (ServerConfig.ErrorCode), so ERROR frames carry the codes HTTP answers.
func StatusFor(err error) int {
	switch {
	case errors.Is(err, errNotSource):
		return http.StatusConflict
	case errors.Is(err, errBadHandoff):
		return http.StatusBadRequest
	}
	return server.StatusFor(err)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]any{"error": err.Error(), "code": code})
}
