package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/wire"
)

// Rebalancing: the subsystem that turns a ring change (join, leave, death,
// decommission) from "new owners start cold and anti-entropy eventually
// fills them in" into a coordinated state transfer. The unit of transfer is
// one partition snapshot; the protocol is pull-based and fully decentralized
// — every node runs the same loop against its own view of the ring, and the
// ring version (Ring.Version, a fingerprint of the member set) is the fence
// that keeps two nodes from transferring against diverged views.
//
// Per ring flip, every node classifies each partition:
//
//   - newly owned  → PENDING: the node keeps serving writes for it (they
//     accumulate as the partition's post-flip stream) but answers reads
//     with 421 until it installs a copy of the history, pulled from a
//     source that has one. While pending, the write path's outboxes are the
//     buffer for in-flight traffic: forwarders and stale coordinators queue
//     the partition's live writes durably toward the new owners.
//   - no longer owned → FROZEN: the node stops absorbing coordinated
//     writes for it (routing now points elsewhere) but keeps the registers,
//     offering them to the new owners until every one confirms its install;
//     only then is the partition evicted (WAL-logged reset).
//   - owned before and after → warm; nothing to do.
//
// The cutover is per-partition and atomic: the pending mark clears exactly
// when the install's merge record commits (Store.InstallPartition), at
// which point reads stop answering 421 and the partition is warm — there is
// no window where a new owner serves a cold copy.
//
// Which join installs a pulled copy is declared by the SOURCE, because only
// the source knows what its copy absorbed:
//
//   - RoleOwner: a live continuing owner (or a holder surrendered
//     mid-install, whose partial copy overlaps the puller's stream). The
//     puller applies the idempotent replica max-join — never double-counts,
//     and anti-entropy closes any gap later.
//   - RoleFrozen: a surrendered complete copy, frozen at the flip. Its
//     stream (everything before the flip) and the puller's local absorption
//     (everything after) are disjoint, so the puller applies the Remark 2.4
//     merge on top of its own registers — history plus live tail, nothing
//     lost, nothing double-counted. A frozen copy is only offered once the
//     holder is op-quiescent with the partition's other old replicas (no
//     queued hints between them), so the copy is complete when served.
//
// Everything is durable: the pending/frozen/owned classification is a WAL
// ownership record (wal.RecOwn), installs are merge records that subtract
// from pending on replay, and evicts are logged resets — a node killed at
// any point in a transfer recovers knowing exactly which partitions it
// still owes or is owed.
type rebalancer struct {
	n *Node

	// stepMu serializes whole rebalance rounds: the background loop and an
	// active Decommission drive step concurrently.
	stepMu sync.Mutex

	mu         sync.Mutex
	reconciled uint64             // ring version the sets below reflect (0 = never)
	prevRing   *Ring              // ring of the last reconcile (nil after restart)
	transfers  map[int]*transfer  // pending-partition metadata
	frozen     map[int]*surrender // frozen-partition metadata

	// Counters live in the store's metrics registry so /v1/cluster/rebalance
	// and /metrics read the same atomics.
	moved     *metrics.Counter    // partitions installed (pulled or vacuous)
	evicted   *metrics.Counter    // surrendered partitions evicted after confirm
	bytes     *metrics.Counter    // snapshot bytes pulled
	steps     [3]*metrics.Counter // rounds by trigger: tick, flip, retry
	mCutover  *metrics.Histogram  // install flip-to-warm latency
	cutoverNs atomic.Int64        // last install's flip-to-warm latency
}

// transfer is one pending partition's in-memory progress.
type transfer struct {
	started  time.Time
	attempts int
	// bootstrap marks a pend created from the empty baseline (a fresh store
	// joining): if every replica of the partition is in the same position
	// and no frozen copy exists anywhere, there is no history to pull and
	// the primary may declare itself installed.
	bootstrap bool
}

// surrender is one frozen partition's in-memory metadata.
type surrender struct {
	// partial marks a copy surrendered mid-install: it holds only what this
	// node absorbed while pending, possibly overlapping other replicas'
	// streams, so it is offered as a max-join (RoleOwner), never as a
	// disjoint merge. Recovered frozen partitions are conservatively partial
	// (max-join can undercount a truly disjoint tail, but never inflates).
	partial bool
	// oldReplicas are the partition's other replicas on the ring it was
	// surrendered from — the peers whose queued hints must drain before a
	// complete copy is offered. nil (after restart) gates on every alive
	// peer instead.
	oldReplicas []string
	ready       bool // complete copy offerable now (quiescence gate passed)
}

// TransferStatus is one pending partition's progress on the status surface.
type TransferStatus struct {
	Partition int     `json:"partition"`
	Attempts  int     `json:"attempts"`
	AgeMs     float64 `json:"ageMs"`
}

// RebalanceStatus is the GET /v1/cluster/rebalance payload — both the
// operator's progress view and the protocol's peer-probing surface (pullers
// select sources and holders confirm installs by reading each other's
// status).
type RebalanceStatus struct {
	Self          string           `json:"self"`
	RingVersion   string           `json:"ringVersion"`
	Reconciled    bool             `json:"reconciled"`
	Pending       []int            `json:"pending,omitempty"`
	Frozen        []int            `json:"frozen,omitempty"`
	FrozenReady   []int            `json:"frozenReady,omitempty"`
	FrozenPartial []int            `json:"frozenPartial,omitempty"`
	Transfers     []TransferStatus `json:"transfers,omitempty"`
	Moved         uint64           `json:"partitionsMoved"`
	Evicted       uint64           `json:"partitionsEvicted"`
	BytesStreamed uint64           `json:"bytesStreamed"`
	LastCutoverMs float64          `json:"lastCutoverMs"`
}

// errNotSource reports a handoff request this node cannot serve right now —
// ring views diverged, the partition is pending here too, or a frozen copy
// is not yet quiescent. Mapped to 409: the puller's step still owes the
// partition and retries on its backoff.
var errNotSource = errors.New("cluster: not a handoff source for this partition at this ring version")

func newRebalancer(n *Node) *rebalancer {
	rb := &rebalancer{
		n:         n,
		transfers: make(map[int]*transfer),
		frozen:    make(map[int]*surrender),
	}
	reg := n.st.Metrics()
	rb.moved = reg.Counter("counterd_rebalance_partitions_moved_total",
		"Partitions installed by the rebalancer (pulled or vacuous).")
	rb.evicted = reg.Counter("counterd_rebalance_partitions_evicted_total",
		"Surrendered partitions evicted after every new owner confirmed its install.")
	rb.bytes = reg.Counter("counterd_rebalance_bytes_streamed_total",
		"Partition snapshot bytes pulled during rebalance handoffs.")
	steps := reg.CounterVec("counterd_rebalance_steps_total",
		"Rebalance steps, by cause (tick: the -rebalance heartbeat; flip: the ring changed; retry: partitions still owed).", "cause")
	for t, cause := range [...]string{onTick: "tick", onWake: "flip", onRetry: "retry"} {
		rb.steps[t] = steps.With(cause)
	}
	rb.mCutover = reg.Histogram("counterd_rebalance_cutover_seconds",
		"Per-partition flip-to-warm latency: ring flip (pend) to install commit.",
		metrics.ExpBuckets(1e-3, 2, 18))
	reg.GaugeFunc("counterd_rebalance_transfers",
		"Pending partitions currently awaiting a rebalance install.",
		func() float64 {
			rb.mu.Lock()
			defer rb.mu.Unlock()
			return float64(len(rb.transfers))
		})
	// A restarted node re-adopts its durable state: recorded pendings resume
	// as transfers, recorded frozen partitions resume as (conservatively
	// partial) surrenders, and the recorded ring version counts as
	// reconciled — if the ring moved while the node was down, the next step
	// reconciles against the recorded owned set.
	if ver, pending, frozen, _, ok := n.st.Ownership(); ok {
		rb.reconciled = ver
		for _, p := range pending {
			rb.transfers[p] = &transfer{started: time.Now()}
		}
		for _, p := range frozen {
			rb.frozen[p] = &surrender{partial: true}
		}
	}
	return rb
}

// step is one rebalance round: fold any ring flip into the durable
// ownership state, try to install every pending partition, and evict every
// surrendered partition whose new owners all confirmed. It reports whether
// partitions are still owed — the ring is not reconciled or installs are
// pending — so the loop retries on its backoff instead of its interval.
func (rb *rebalancer) step(t trigger) bool {
	rb.stepMu.Lock()
	defer rb.stepMu.Unlock()
	rb.steps[t].Inc()
	cur := rb.n.ring.Load()
	rb.mu.Lock()
	ever := rb.reconciled != 0
	rb.mu.Unlock()
	if !ever && len(cur.Members()) <= 1 && len(rb.n.cfg.Join) > 0 {
		// A fresh joiner still sees only itself: adopting that solo ring
		// would vacuously install everything and then never pull. Wait for
		// gossip to deliver the real member set.
		return true
	}
	rb.reconcile(cur)
	pr := &probe{n: rb.n, statuses: make(map[string]*RebalanceStatus), quiet: make(map[string]bool)}
	rb.gateFrozen(pr)
	rb.pull(cur, pr)
	rb.sweep(cur, pr)
	return rb.ready(rb.n.ring.Load().Version()) != nil
}

// reconcile folds a ring flip into the ownership state: classify every
// partition against the last recorded owned set, log one RecOwn, and update
// the in-memory transfer/surrender metadata.
func (rb *rebalancer) reconcile(cur *Ring) {
	ver := cur.Version()
	rb.mu.Lock()
	if rb.reconciled == ver {
		rb.mu.Unlock()
		return
	}
	prev := rb.prevRing
	rb.mu.Unlock()

	st := rb.n.st
	self := rb.n.cfg.Self
	parts := st.Partitions()
	_, recPending, recFrozen, recOwned, ok := st.Ownership()
	pendSet := intSet(recPending)
	frozSet := intSet(recFrozen)
	ownedSet := intSet(recOwned)
	emptyBaseline := false
	if !ok {
		if st.Fresh() {
			// Empty baseline: a fresh store owes itself an install of
			// everything it owns.
			emptyBaseline = true
		} else {
			// Legacy baseline: a store with pre-rebalance data is assumed
			// warm everywhere it ever replicated — partitions it does not
			// own on this ring surrender (and evict) through the normal
			// path.
			for p := 0; p < parts; p++ {
				ownedSet[p] = true
			}
		}
	}

	var newPend, newFroz, newOwned []int
	addPend := make(map[int]bool)
	addFrozPartial := make(map[int]bool)
	addFrozComplete := make(map[int]bool)
	for p := 0; p < parts; p++ {
		owned := cur.Owns(self, p)
		if owned {
			newOwned = append(newOwned, p)
		}
		switch {
		case owned && frozSet[p]:
			// Re-owned before the surrender completed. A complete copy is
			// simply warm again; a partial one never finished its install,
			// so it resumes pending.
			rb.mu.Lock()
			s := rb.frozen[p]
			rb.mu.Unlock()
			if s == nil || s.partial {
				newPend = append(newPend, p)
				addPend[p] = true
			}
		case owned && pendSet[p]:
			newPend = append(newPend, p) // still owed; retarget to this ring
		case owned && !ownedSet[p]:
			newPend = append(newPend, p) // newly owned, cold
			addPend[p] = true
		case owned:
			// Continuing owner; warm.
		case pendSet[p]:
			// Lost mid-install: the registers hold only what this node
			// absorbed while pending — real acknowledged writes that must
			// still reach the new owners, but an incomplete (and possibly
			// overlapping) copy, so it surrenders as partial.
			newFroz = append(newFroz, p)
			addFrozPartial[p] = true
		case ownedSet[p] || frozSet[p]:
			newFroz = append(newFroz, p) // surrendered (or still held) history
			if !frozSet[p] {
				addFrozComplete[p] = true
			}
		}
	}

	if err := st.SetOwnership(ver, newPend, newFroz, newOwned); err != nil {
		rb.n.cfg.Logf("cluster: rebalance: recording ownership epoch %016x: %v", ver, err)
		return
	}

	rb.mu.Lock()
	for p := range addPend {
		rb.transfers[p] = &transfer{started: time.Now(), bootstrap: emptyBaseline}
		delete(rb.frozen, p)
	}
	for p := range addFrozPartial {
		rb.frozen[p] = &surrender{partial: true, oldReplicas: others(cur, p, self)}
		delete(rb.transfers, p)
	}
	for p := range addFrozComplete {
		old := others(cur, p, self)
		if prev != nil {
			old = others(prev, p, self)
		}
		rb.frozen[p] = &surrender{oldReplicas: old}
	}
	// Drop metadata for partitions the new record no longer tracks.
	pendNow := intSet(newPend)
	frozNow := intSet(newFroz)
	for p := range rb.transfers {
		if !pendNow[p] {
			delete(rb.transfers, p)
		}
	}
	for p := range rb.frozen {
		if !frozNow[p] {
			delete(rb.frozen, p)
		}
	}
	rb.reconciled = ver
	rb.prevRing = cur
	pend, froz := len(rb.transfers), len(rb.frozen)
	rb.mu.Unlock()
	if pend+froz > 0 {
		rb.n.cfg.Logf("cluster: rebalance: ring %016x — %d partitions to install, %d to surrender", ver, pend, froz)
	}
}

// gateFrozen re-checks the quiescence gate of every complete frozen copy:
// it is offerable once no replication hints are queued between this node
// and the partition's other old replicas in either direction — after that,
// the copy can no longer grow, so what a puller receives is the complete
// pre-flip history.
func (rb *rebalancer) gateFrozen(pr *probe) {
	rb.mu.Lock()
	type gate struct {
		p     int
		peers []string
	}
	var gates []gate
	for p, s := range rb.frozen {
		if !s.partial {
			gates = append(gates, gate{p, s.oldReplicas})
		}
	}
	rb.mu.Unlock()
	for _, g := range gates {
		peers := g.peers
		if peers == nil {
			peers = rb.n.mem.AlivePeers() // restart lost the old ring; gate wide
		}
		ready := true
		for _, peer := range peers {
			if m, ok := rb.n.mem.State(peer); ok && m.State == StateDead {
				continue // its queued tail is unreachable either way
			}
			if !pr.quiesced(peer) {
				ready = false
				break
			}
		}
		rb.mu.Lock()
		if s := rb.frozen[g.p]; s != nil && !s.partial {
			s.ready = ready
		}
		rb.mu.Unlock()
	}
}

// pull tries to install every pending partition this round. Source
// preference: a warm co-owner (max-join, tolerant of everything), then a
// complete frozen copy (disjoint merge), then a partial frozen copy
// (max-join). A bootstrap pend with no source anywhere resolves vacuously
// at the primary.
func (rb *rebalancer) pull(cur *Ring, pr *probe) {
	ver := cur.Version()
	rb.mu.Lock()
	if rb.reconciled != ver {
		rb.mu.Unlock()
		return
	}
	parts := make([]int, 0, len(rb.transfers))
	for p := range rb.transfers {
		parts = append(parts, p)
	}
	rb.mu.Unlock()
	sort.Ints(parts)
	verHex := fmt.Sprintf("%016x", ver)
	self := rb.n.cfg.Self

	for _, p := range parts {
		if rb.n.ring.Load().Version() != ver {
			// The ring flipped under this plan: every FETCH stamped with ver
			// would be refused, and the flip's wake re-plans at once.
			return
		}
		if !rb.n.st.PendingPartition(p) {
			// Installed out of band (an anti-entropy push landed a full warm
			// copy); just drop the metadata.
			rb.finish(p, 0, false)
			continue
		}
		reps := cur.Replicas(p)
		if len(reps) == 1 && reps[0] == self {
			// Sole member: no peer can hold this ring's history.
			rb.completeVacuous(p, cur)
			continue
		}

		var warm, frozenReady, frozenPartial []string
		coPending := 0
		coOwners := 0
		frozenAnywhere := false
		peersConverged := true
		for _, peer := range reps {
			if peer == self {
				continue
			}
			coOwners++
			s := pr.status(peer)
			if s == nil || s.RingVersion != verHex || !s.Reconciled {
				continue
			}
			if intSetHas(s.Pending, p) {
				coPending++
			} else {
				warm = append(warm, peer)
			}
		}
		for _, peer := range rb.n.mem.AlivePeers() {
			s := pr.status(peer)
			if s == nil || s.RingVersion != verHex || !s.Reconciled {
				// A peer that has not reconciled this ring yet may still be
				// about to freeze (or still hold) this partition's history —
				// its classification is unknown, so the vacuous tie-break
				// below must not fire.
				peersConverged = false
				continue
			}
			if intSetHas(s.Frozen, p) {
				frozenAnywhere = true
			}
			if intSetHas(s.FrozenReady, p) {
				frozenReady = append(frozenReady, peer)
			} else if intSetHas(s.FrozenPartial, p) {
				frozenPartial = append(frozenPartial, peer)
			}
		}

		sources := append(append(warm, frozenReady...), frozenPartial...)
		installed := false
		// A warm co-owner first offers a block delta: when this node re-owns
		// a partition it mostly still holds (a bounce, a brief surrender),
		// only the blocks that moved since transfer. A genuinely cold join
		// fails the divergence threshold inside pullDelta — every non-empty
		// block differs — and takes the full snapshot path below. Frozen
		// sources never delta: their disjoint Remark 2.4 merge has no
		// block-wise max-join spelling.
		for _, src := range warm {
			if !pr.quiesced(src) {
				// State transfer and op replay carry the same history: a
				// max-join of src's blocks while the pair still holds queued
				// replication batches lets the later drain re-apply those
				// events as increments — the ops-before-state double count
				// (docs/CLUSTER.md). Skip the delta; a later round (or the
				// full path's own fences) picks it up.
				continue
			}
			ok, err := rb.pullDelta(src, p)
			if err != nil {
				rb.n.cfg.Logf("cluster: rebalance: delta pull of partition %d from %s: %v", p, src, err)
				continue // transport trouble: another warm source may answer
			}
			if ok {
				installed = true
			}
			// ok==false is the threshold verdict; it would repeat against
			// every warm source, so go straight to the full transfer.
			break
		}
		for _, src := range sources {
			if installed {
				break
			}
			if err := rb.pullFrom(src, p, ver); err != nil {
				rb.n.cfg.Logf("cluster: rebalance: pulling partition %d from %s: %v", p, src, err)
				continue
			}
			installed = true
		}
		if installed {
			continue
		}

		rb.mu.Lock()
		t := rb.transfers[p]
		bootstrap := t != nil && t.bootstrap
		if t != nil {
			t.attempts++
		}
		rb.mu.Unlock()
		// Bootstrap tie-break: a brand-new cluster has every replica pending
		// and nothing frozen anywhere — there is no history, so the primary
		// declares itself installed and becomes the others' warm source. The
		// peersConverged fence matters when a fresh node joins a LOADED ring:
		// until every alive peer has reconciled this ring version, an old
		// owner may not have surrendered (frozen) the partition yet, and a
		// vacuous install now would let the sweep evict that sole copy.
		if bootstrap && cur.Primary(p) == self && coPending == coOwners && coOwners > 0 &&
			peersConverged && !frozenAnywhere {
			rb.completeVacuous(p, cur)
		}
	}
}

// pullDelta tries to warm a pending partition by pulling only its divergent
// blocks from a warm co-owner. Returns (false, nil) when the block diff says
// a full transfer is cheaper — the caller falls through to pullFrom. The
// install commits through MergeMaxDelta's merge record, which clears the
// pending mark exactly like a full InstallPartition; the join is the replica
// max-join, which is what a warm (RoleOwner) source calls for anyway.
func (rb *rebalancer) pullDelta(src string, p int) (bool, error) {
	n := rb.n
	local, err := n.st.PartitionBlockHashes(p)
	if err != nil {
		return false, err
	}
	_, remote, err := n.peerBlockHashes(p, src)
	if err != nil {
		return false, err
	}
	if len(remote) != len(local) {
		return false, nil
	}
	var diff []uint32
	for i := range local {
		if local[i] != remote[i] {
			diff = append(diff, uint32(i))
		}
	}
	if len(diff) == 0 || len(diff)*2 >= len(local) {
		// Identical copies still need the install record a full pull commits
		// (a zero-block delta has nothing to hang it on); majority-divergent
		// copies (cold joins) ship fewer bytes as one full snapshot.
		return false, nil
	}
	blob, err := n.fetchBlockDelta(p, src, diff)
	if err != nil {
		return false, err
	}
	// No version guard: this node is not serving reads for p (it is
	// pending), and a max-join of any block subset is safe regardless of
	// concurrent writes on the source — anti-entropy owns later convergence.
	if err := n.st.MergeMaxDelta(blob, server.VersionAny); err != nil {
		return false, err
	}
	rb.bytes.Add(uint64(len(blob)))
	n.rebDeltaPull.Inc()
	rb.finish(p, len(blob), true)
	return true, nil
}

// pullFrom fetches one partition snapshot from src — over the wire protocol
// when src gossips a wire address (falling back to HTTP if the peer
// predates the handoff frames or the transport fails), over the HTTP
// handoff endpoint otherwise — and installs it under the join the source's
// role declares.
func (rb *rebalancer) pullFrom(src string, p int, ver uint64) error {
	role, blob, err := rb.fetch(src, p, ver)
	if err != nil {
		return err
	}
	if err := rb.n.st.InstallPartition(blob, role == wire.RoleFrozen); err != nil {
		return err
	}
	rb.bytes.Add(uint64(len(blob)))
	rb.finish(p, len(blob), true)
	return nil
}

func (rb *rebalancer) fetch(src string, p int, ver uint64) (byte, []byte, error) {
	if wa := rb.n.mem.WireAddr(src); wa != "" {
		role, blob, err := rb.n.pool.Fetch(wa, p, ver)
		if err == nil {
			return role, blob, nil
		}
		var re *wire.RemoteError
		if errors.As(err, &re) && re.Code != 400 {
			return 0, nil, err // the source answered; HTTP would answer the same
		}
		// A 400 is a peer that predates the FETCH frame; a transport error
		// is a dead wire listener. Both fall back to HTTP.
	}
	return rb.httpFetch(src, p, ver)
}

func (rb *rebalancer) httpFetch(src string, p int, ver uint64) (byte, []byte, error) {
	resp, err := rb.n.client.Get(fmt.Sprintf("%s/v1/cluster/handoff/%d?ring=%016x", src, p, ver))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, nil, fmt.Errorf("handoff: status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	role := wire.RoleOwner
	if resp.Header.Get("X-Handoff-Role") == "frozen" {
		role = wire.RoleFrozen
	}
	blob, err := io.ReadAll(io.LimitReader(resp.Body, 1<<30))
	if err != nil {
		return 0, nil, err
	}
	return role, blob, nil
}

// completeVacuous marks a pending partition installed without a pull — no
// source exists because there is no history. Logged as a fresh ownership
// record so recovery agrees.
func (rb *rebalancer) completeVacuous(p int, cur *Ring) {
	st := rb.n.st
	ver, pending, frozen, owned, ok := st.Ownership()
	if !ok || ver != cur.Version() || !intSetHas(pending, p) {
		return
	}
	kept := pending[:0]
	for _, q := range pending {
		if q != p {
			kept = append(kept, q)
		}
	}
	if err := st.SetOwnership(ver, kept, frozen, owned); err != nil {
		rb.n.cfg.Logf("cluster: rebalance: vacuous install of partition %d: %v", p, err)
		return
	}
	rb.finish(p, 0, true)
}

// finish drops a pending partition's metadata and records the install
// metrics.
func (rb *rebalancer) finish(p, blobLen int, count bool) {
	rb.mu.Lock()
	t := rb.transfers[p]
	delete(rb.transfers, p)
	rb.mu.Unlock()
	if !count {
		return
	}
	rb.moved.Add(1)
	if t != nil {
		rb.cutoverNs.Store(time.Since(t.started).Nanoseconds())
		rb.mCutover.ObserveSince(t.started)
	}
	rb.n.cfg.Logf("cluster: rebalance: installed partition %d (%d bytes)", p, blobLen)
}

// sweep evicts surrendered partitions whose new owners have all confirmed:
// every replica on the current ring reports this ring version reconciled
// with the partition no longer pending. An unreachable or lagging owner
// holds the evict — the frozen copy is the safety net until every owner
// provably has the history.
func (rb *rebalancer) sweep(cur *Ring, pr *probe) {
	ver := cur.Version()
	verHex := fmt.Sprintf("%016x", ver)
	rb.mu.Lock()
	if rb.reconciled != ver {
		rb.mu.Unlock()
		return
	}
	parts := make([]int, 0, len(rb.frozen))
	for p := range rb.frozen {
		parts = append(parts, p)
	}
	rb.mu.Unlock()
	sort.Ints(parts)

	for _, p := range parts {
		confirmed := true
		for _, owner := range cur.Replicas(p) {
			s := pr.status(owner)
			if s == nil || s.RingVersion != verHex || !s.Reconciled || intSetHas(s.Pending, p) {
				confirmed = false
				break
			}
		}
		if !confirmed {
			continue
		}
		if err := rb.n.st.EvictPartition(p); err != nil {
			rb.n.cfg.Logf("cluster: rebalance: evicting partition %d: %v", p, err)
			continue
		}
		rb.mu.Lock()
		delete(rb.frozen, p)
		rb.mu.Unlock()
		rb.evicted.Add(1)
		rb.n.cfg.Logf("cluster: rebalance: evicted surrendered partition %d", p)
	}
}

// reconciledTo reports whether the durable ownership state reflects ring
// version ver.
func (rb *rebalancer) reconciledTo(ver uint64) bool {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	return rb.reconciled == ver
}

// ready is the rebalancer's contribution to /v1/readyz: the durable ownership
// state must reflect ring version ver and no partition may still await its
// install. Frozen copies do not block readiness — the node serves its owned
// set fine while surrendered history drains to the new owners.
func (rb *rebalancer) ready(ver uint64) error {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	if rb.reconciled != ver {
		return fmt.Errorf("cluster: ownership not reconciled to ring %016x", ver)
	}
	if n := len(rb.transfers); n > 0 {
		return fmt.Errorf("cluster: %d partitions awaiting rebalance install", n)
	}
	return nil
}

// idle reports whether the rebalancer owes and is owed nothing at the
// current ring: reconciled, no pending installs, no frozen copies left to
// hand off.
func (rb *rebalancer) idle() bool {
	cur := rb.n.ring.Load()
	rb.mu.Lock()
	defer rb.mu.Unlock()
	return rb.reconciled == cur.Version() && len(rb.transfers) == 0 && len(rb.frozen) == 0
}

// status builds the RebalanceStatus payload.
func (rb *rebalancer) status() RebalanceStatus {
	cur := rb.n.ring.Load()
	ver := cur.Version()
	s := RebalanceStatus{
		Self:          rb.n.cfg.Self,
		RingVersion:   fmt.Sprintf("%016x", ver),
		Moved:         rb.moved.Value(),
		Evicted:       rb.evicted.Value(),
		BytesStreamed: rb.bytes.Value(),
		LastCutoverMs: float64(rb.cutoverNs.Load()) / 1e6,
	}
	rb.mu.Lock()
	s.Reconciled = rb.reconciled == ver
	for p, t := range rb.transfers {
		s.Pending = append(s.Pending, p)
		s.Transfers = append(s.Transfers, TransferStatus{
			Partition: p,
			Attempts:  t.attempts,
			AgeMs:     float64(time.Since(t.started).Nanoseconds()) / 1e6,
		})
	}
	for p, sur := range rb.frozen {
		s.Frozen = append(s.Frozen, p)
		if sur.partial {
			s.FrozenPartial = append(s.FrozenPartial, p)
		} else if sur.ready {
			s.FrozenReady = append(s.FrozenReady, p)
		}
	}
	rb.mu.Unlock()
	sort.Ints(s.Pending)
	sort.Ints(s.Frozen)
	sort.Ints(s.FrozenReady)
	sort.Ints(s.FrozenPartial)
	sort.Slice(s.Transfers, func(i, j int) bool { return s.Transfers[i].Partition < s.Transfers[j].Partition })
	return s
}

// serve answers one handoff request (shared by the wire FETCH frame and the
// HTTP endpoint): validate the puller's ring version against ours, decide
// the role our copy plays, and stream the partition snapshot.
func (rb *rebalancer) serve(p int, ringVer uint64) (role byte, blob []byte, err error) {
	cur := rb.n.ring.Load()
	if p < 0 || p >= rb.n.st.Partitions() {
		return 0, nil, fmt.Errorf("%w: partition %d out of [0, %d)", errBadHandoff, p, rb.n.st.Partitions())
	}
	rb.mu.Lock()
	converged := rb.reconciled == ringVer && cur.Version() == ringVer
	sur := rb.frozen[p]
	var frozenRole byte
	if sur != nil {
		switch {
		case sur.partial:
			frozenRole = wire.RoleOwner // partial copy: max-join only
		case sur.ready:
			frozenRole = wire.RoleFrozen
		}
	}
	rb.mu.Unlock()
	if !converged {
		return 0, nil, fmt.Errorf("%w: ring not converged to %016x", errNotSource, ringVer)
	}
	switch {
	case sur != nil && frozenRole != 0:
		role = frozenRole
	case sur != nil:
		return 0, nil, fmt.Errorf("%w: frozen copy not yet quiescent", errNotSource)
	case cur.Owns(rb.n.cfg.Self, p) && !rb.n.st.PendingPartition(p):
		role = wire.RoleOwner
	default:
		return 0, nil, fmt.Errorf("%w: partition %d", errNotSource, p)
	}
	var buf bytes.Buffer
	if err := rb.n.st.PartitionSnapshotTo(&buf, p); err != nil {
		return 0, nil, err
	}
	return role, buf.Bytes(), nil
}

// errBadHandoff is a caller fault on the handoff surface (bad partition),
// mapped to 400.
var errBadHandoff = errors.New("cluster: bad handoff request")

// probe memoizes one rebalance round's peer lookups: each peer's rebalance
// status and pair quiescence are fetched at most once per step.
type probe struct {
	n        *Node
	statuses map[string]*RebalanceStatus
	quiet    map[string]bool
}

func (pr *probe) status(peer string) *RebalanceStatus {
	if s, ok := pr.statuses[peer]; ok {
		return s
	}
	var s *RebalanceStatus
	resp, err := pr.n.client.Get(peer + "/v1/cluster/rebalance")
	if err == nil {
		func() {
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				io.Copy(io.Discard, resp.Body)
				return
			}
			var got RebalanceStatus
			if json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&got) == nil {
				s = &got
			}
		}()
	}
	pr.statuses[peer] = s
	return s
}

func (pr *probe) quiesced(peer string) bool {
	if q, ok := pr.quiet[peer]; ok {
		return q
	}
	q := pr.n.pairQuiesced(peer)
	pr.quiet[peer] = q
	return q
}

// others returns a partition's replicas on a ring, minus one member.
func others(r *Ring, p int, self string) []string {
	var out []string
	for _, m := range r.Replicas(p) {
		if m != self {
			out = append(out, m)
		}
	}
	return out
}

func intSet(list []int) map[int]bool {
	set := make(map[int]bool, len(list))
	for _, p := range list {
		set[p] = true
	}
	return set
}

func intSetHas(list []int, p int) bool {
	for _, q := range list {
		if q == p {
			return true
		}
	}
	return false
}
