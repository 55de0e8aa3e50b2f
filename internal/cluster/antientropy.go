package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/server"
	"repro/internal/wire"
)

// Anti-entropy: the repair path that makes replicas converge no matter what
// the write path dropped (a crashed coordinator's unsent outbox, a hint log
// lost to power failure, a partition that healed). The exchange unit is a
// snapcodec-compressed partition snapshot, and the join is the
// register-wise maximum (Store.MergeMax) — correct between replicas because
// every replica of a partition applies the same logical increment stream
// (the write path delivers each acknowledged batch to every replica at
// least once) and registers are monotone under increments: the bigger
// register is simply the replica that has absorbed more of the stream. Max
// is idempotent, so repeated rounds settle at identical registers. Remark
// 2.4's distributional merge is NOT used here — between same-stream
// replicas it would double-count; it remains the right join for disjoint
// streams (POST /merge).
//
// When to merge matters as much as how. The replicas absorb the shared
// stream with independent randomness, so at any instant their registers are
// two slightly-diverged random walks; taking the max of in-flight replicas
// keeps the upper envelope of that noise, and doing so every round under
// active load ratchets the registers upward — a measurable estimate bias
// that grows with exchange frequency (see TestClusterReplicationConverges,
// which caught exactly this). So a round only merges a partition when one
// of two gates opens:
//
//  1. Repair: a peer replica has just come back from suspect/dead (or this
//     node just started). Its registers may be missing whole stretches of
//     the stream; merging now is worth a one-time sliver of max-bias.
//  2. Quiescent divergence: the partition has seen no local writes for a
//     full round AND the replicas' register hashes differ. No writes means
//     no replication in flight, so a hash mismatch is real divergence, and
//     merging static registers is ratchet-free (once converged the hashes
//     match and rounds become pure hash checks).
//
// In a healthy, loaded cluster anti-entropy therefore costs one tiny hash
// exchange per partition per round and adds zero bias; the replication
// outbox is what keeps replicas tracking the stream.
//
// Both gates additionally require the PAIR to be op-quiescent: neither side
// may hold queued (undrained) batches for the other. State transfer and op
// replay deliver the same history through different channels — if a node
// max-joins a peer's registers and the peer's hint drain then re-applies
// the same events as increments, they are counted twice (measured at
// 10–20% inflation in the crash/recovery test when repair raced hinted
// handoff). Ordering ops-before-state per pair closes the overlap; the
// residue is at most one in-flight drain window of a third replica.
func (n *Node) antiEntropyRound() {
	ring := n.ring.Load()
	// Ring flips hand off through the rebalancer, not anti-entropy. Until
	// this node has reconciled the current ring (pending/frozen partitions
	// durably classified), its "owned" set is provisional — a round now
	// could push a cold newly-owned partition to a peer as if it were warm.
	if !n.reb.reconciledTo(ring.Version()) {
		return
	}
	parts := n.st.Partitions()
	n.aeRounds.Inc()
	round := n.aeRounds.Value()
	n.noteRecoveries()
	// pairSafe memoizes per-round whether a pair is op-quiescent.
	safeCache := map[string]bool{}
	pairSafe := func(peer string) bool {
		if v, ok := safeCache[peer]; ok {
			return v
		}
		v := n.pairQuiesced(peer)
		safeCache[peer] = v
		return v
	}
	for p := 0; p < parts; p++ {
		reps := ring.Replicas(p)
		mine := false
		var peers []string
		for _, r := range reps {
			if r == n.cfg.Self {
				mine = true
			} else if m, ok := n.mem.State(r); ok && m.State == StateAlive {
				peers = append(peers, r)
			}
		}
		if !mine || len(peers) == 0 {
			continue
		}
		if n.st.PendingPartition(p) {
			// Awaiting a rebalance install: a max-join of a partial pull
			// would commit a merge record and clear the pending mark with
			// incomplete data. The rebalancer is the only transfer path for
			// pending partitions.
			continue
		}

		// Gate 1: repair every freshly-recovered peer replica — once the
		// pair's hint queues are empty in both directions.
		repaired := false
		for _, peer := range peers {
			if !n.needsRepair[peer] {
				continue
			}
			if !pairSafe(peer) {
				// Ops still in flight between us: let the drains finish and
				// retry the repair next round.
				n.repairFailed[peer] = true
				continue
			}
			if err := n.syncPartition(p, peer); err != nil {
				n.repairFailed[peer] = true
				n.cfg.Logf("cluster: repair partition %d with %s: %v", p, peer, err)
			}
			repaired = true
		}
		if repaired {
			n.lastPartVer[p] = n.st.PartitionVersion(p)
			continue
		}

		// Gate 2: quiescent divergence with the round's rotating peer.
		ver := n.st.PartitionVersion(p)
		if ver != n.lastPartVer[p] {
			n.lastPartVer[p] = ver // writes in flight; check again next round
			continue
		}
		peer := peers[(int(round)+p)%len(peers)]
		if !pairSafe(peer) {
			continue // the peer's queued ops for us would double-count
		}
		same, err := n.hashMatches(p, peer)
		if err != nil {
			n.cfg.Logf("cluster: anti-entropy hash of partition %d from %s: %v", p, peer, err)
			continue
		}
		if same {
			continue
		}
		if err := n.syncPartition(p, peer); err != nil {
			n.cfg.Logf("cluster: anti-entropy partition %d with %s: %v", p, peer, err)
		}
		n.lastPartVer[p] = n.st.PartitionVersion(p)
	}
	// A peer is fully repaired once a round touched every shared partition
	// without a failure.
	for peer := range n.needsRepair {
		if !n.repairFailed[peer] {
			delete(n.needsRepair, peer)
		}
		delete(n.repairFailed, peer)
	}
}

// noteRecoveries diffs member states against the previous round and marks
// peers that returned to life (or appeared) as needing repair. Runs only on
// the anti-entropy goroutine; the maps are loop-local state.
func (n *Node) noteRecoveries() {
	for _, m := range n.mem.Snapshot() {
		if m.ID == n.cfg.Self {
			continue
		}
		prev, known := n.prevStates[m.ID]
		if m.State == StateAlive && (!known || prev != StateAlive) {
			n.needsRepair[m.ID] = true
		}
		n.prevStates[m.ID] = m.State
	}
}

// pairQuiesced reports whether no replication ops are queued between this
// node and peer in either direction: our outbox for them is empty, and
// their /cluster/info shows an empty outbox for us. Merging state while
// either queue is non-empty would count the queued events twice (once as
// transferred registers, once when the drain applies them).
func (n *Node) pairQuiesced(peer string) bool {
	n.obMu.Lock()
	o := n.outboxes[peer]
	n.obMu.Unlock()
	if o != nil && o.pending() > 0 {
		return false
	}
	resp, err := n.client.Get(peer + "/cluster/info")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return false
	}
	var info Info
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&info); err != nil {
		return false
	}
	return info.OutboxPending[n.cfg.Self] == 0
}

// hashMatches compares the local register hash of partition p with peer's.
func (n *Node) hashMatches(p int, peer string) (bool, error) {
	local, err := n.st.PartitionHash(p)
	if err != nil {
		return false, err
	}
	resp, err := n.client.Get(fmt.Sprintf("%s/cluster/phash/%d", peer, p))
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return false, fmt.Errorf("status %d", resp.StatusCode)
	}
	var reply struct {
		Hash string `json:"hash"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&reply); err != nil {
		return false, err
	}
	return reply.Hash == fmt.Sprintf("%016x", local), nil
}

// syncPartition converges partition p with peer. It first attempts a block
// delta exchange — shipping only the registers that actually diverged — and
// falls back to the full pull-push snapshot exchange when the delta path
// cannot run (old peer, too many divergent blocks, a version race against
// concurrent writes, or any transport failure). The fallback is always
// correct: the full exchange is what the delta path optimizes, not replaces.
func (n *Node) syncPartition(p int, peer string) error {
	done, err := n.syncPartitionDelta(p, peer)
	if done {
		return nil
	}
	if err != nil {
		n.cfg.Logf("cluster: delta sync partition %d with %s: %v (falling back to full)", p, peer, err)
	}
	return n.syncPartitionFull(p, peer)
}

// syncPartitionDelta runs one block-granular max-join exchange of partition
// p with peer: compare per-block fingerprints, pull the peer's divergent
// blocks as a snapcodec delta, max-join them, then push our (now joined)
// view of the same blocks back. Returns done=false (optionally with an
// error worth logging) when the caller should run the full exchange
// instead.
func (n *Node) syncPartitionDelta(p int, peer string) (done bool, err error) {
	// Read the local version BEFORE the local hashes: it is the optimistic
	// guard on the pull merge. If local writes land between the hash diff
	// and the merge, the version moves, MergeMaxDelta answers ErrConflict,
	// and we fall back to the full exchange rather than merge against a
	// stale diff.
	localVer := n.st.PartitionVersion(p)
	local, err := n.st.PartitionBlockHashes(p)
	if err != nil {
		return false, err
	}
	peerVer, remote, err := n.peerBlockHashes(p, peer)
	if err != nil {
		return false, err
	}
	if len(remote) != len(local) {
		// Different block geometry (mismatched engine config): only the
		// full exchange can reconcile that.
		return false, nil
	}
	var diff []uint32
	for i := range local {
		if local[i] != remote[i] {
			diff = append(diff, uint32(i))
		}
	}
	if len(diff) == 0 {
		// The partition hashes diverged (that is why we are here) but every
		// register block matches now. Usually the peer caught up between
		// the hash check and this exchange: converged, nothing to ship. If
		// the partition hashes still differ, what diverged is not a
		// register — a windowed shard whose ring a merge advanced ahead of
		// the node's own tick keeps stale slot epochs over equal registers —
		// and only the full exchange, which carries the payload, realigns it.
		if same, err := n.hashMatches(p, peer); err == nil && !same {
			return false, nil
		}
		n.aeDeltaSyncs.Inc()
		return true, nil
	}
	if len(diff)*2 >= len(local) {
		// Majority of blocks diverged: the delta framing overhead plus two
		// hash exchanges would cost more than one full snapshot. Typical
		// after long partitions or a cold peer.
		return false, nil
	}

	// What a full exchange would have shipped, for the bytes-saved counter.
	// Encoding to a counting writer costs CPU only; delta syncs are rare
	// (behind the repair/quiescence gates), so this stays off the hot path.
	var full countingWriter
	if err := n.st.PartitionSnapshotTo(&full, p); err != nil {
		return false, err
	}

	// Pull the peer's divergent blocks and fold them in, guarded by the
	// version read above.
	blob, err := n.fetchBlockDelta(p, peer, diff)
	if err != nil {
		return false, err
	}
	if err := n.st.MergeMaxDelta(blob, localVer); err != nil {
		if errors.Is(err, server.ErrConflict) {
			return false, nil // local writes raced the diff; re-diff via full
		}
		return false, fmt.Errorf("pull merge: %w", err)
	}
	saved := int64(full) - int64(len(blob))

	// Push our joined view of the same blocks back, conditional on the
	// version the peer reported with its hashes. A 409 means the peer took
	// writes since; its registers already dominate or will re-diff next
	// round — push the full snapshot so this exchange still converges it.
	var buf bytes.Buffer
	if err := n.st.PartitionDeltaTo(&buf, p, diff); err != nil {
		return false, err
	}
	pushLen := int64(buf.Len())
	status, err := n.postBlob(fmt.Sprintf("%s/cluster/bdelta/%d?ver=%016x", peer, p, peerVer), &buf)
	switch {
	case err != nil:
		return false, err
	case status == http.StatusConflict:
		if err := n.pushFull(p, peer); err != nil {
			return false, fmt.Errorf("push after version race: %w", err)
		}
	case status != http.StatusOK:
		return false, fmt.Errorf("push: status %d", status)
	default:
		saved += int64(full) - pushLen
	}
	if saved > 0 {
		n.aeBytesSaved.Add(uint64(saved))
	}
	n.aeDeltaSyncs.Inc()
	return true, nil
}

// peerBlockHashes fetches peer's (version, per-block hashes) for partition
// p: over the pooled wire connection when the peer gossips a wire address,
// over HTTP otherwise. A wire 400 means the peer predates the BHASH frame —
// its HTTP surface may still answer (?blocks=1 is ignored by builds that
// predate it, which the caller detects as a missing blocks field).
func (n *Node) peerBlockHashes(p int, peer string) (uint64, []uint64, error) {
	if wa := n.mem.WireAddr(peer); wa != "" {
		ver, hashes, err := n.pool.BlockHashes(wa, p)
		if err == nil {
			return ver, hashes, nil
		}
		var re *wire.RemoteError
		if errors.As(err, &re) && re.Code != 400 {
			return 0, nil, err
		}
	}
	resp, err := n.client.Get(fmt.Sprintf("%s/cluster/phash/%d?blocks=1", peer, p))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return 0, nil, fmt.Errorf("phash: status %d", resp.StatusCode)
	}
	var reply struct {
		Version string   `json:"version"`
		Blocks  []string `json:"blocks"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&reply); err != nil {
		return 0, nil, err
	}
	if reply.Blocks == nil {
		return 0, nil, errors.New("peer has no block hashes (pre-delta build)")
	}
	ver, err := strconv.ParseUint(reply.Version, 16, 64)
	if err != nil {
		return 0, nil, fmt.Errorf("bad version %q: %w", reply.Version, err)
	}
	hashes := make([]uint64, len(reply.Blocks))
	for i, s := range reply.Blocks {
		if hashes[i], err = strconv.ParseUint(s, 16, 64); err != nil {
			return 0, nil, fmt.Errorf("bad block hash %q: %w", s, err)
		}
	}
	return ver, hashes, nil
}

// fetchBlockDelta pulls a snapcodec delta of the given blocks of partition
// p from peer, wire first with the usual 400→HTTP fallback.
func (n *Node) fetchBlockDelta(p int, peer string, blocks []uint32) ([]byte, error) {
	if wa := n.mem.WireAddr(peer); wa != "" {
		blob, err := n.pool.BlockDelta(wa, p, blocks)
		if err == nil {
			return blob, nil
		}
		var re *wire.RemoteError
		if errors.As(err, &re) && re.Code != 400 {
			return nil, err
		}
	}
	list := make([]string, len(blocks))
	for i, b := range blocks {
		list[i] = strconv.FormatUint(uint64(b), 10)
	}
	resp, err := n.client.Get(fmt.Sprintf("%s/cluster/bdelta/%d?blocks=%s", peer, p, strings.Join(list, ",")))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("bdelta: status %d", resp.StatusCode)
	}
	return io.ReadAll(io.LimitReader(resp.Body, 1<<30))
}

// postBlob POSTs an octet-stream body and returns the status code (the
// caller distinguishes 409 from other failures).
func (n *Node) postBlob(url string, body io.Reader) (int, error) {
	resp, err := n.client.Post(url, "application/octet-stream", body)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

// pushFull ships our full view of partition p to peer's /mergemax.
func (n *Node) pushFull(p int, peer string) error {
	var buf bytes.Buffer
	if err := n.st.PartitionSnapshotTo(&buf, p); err != nil {
		return err
	}
	pushResp, err := n.client.Post(peer+"/mergemax", "application/octet-stream", &buf)
	if err != nil {
		return err
	}
	defer pushResp.Body.Close()
	if pushResp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(pushResp.Body, 512))
		return fmt.Errorf("push: status %d: %s", pushResp.StatusCode, bytes.TrimSpace(msg))
	}
	io.Copy(io.Discard, pushResp.Body)
	return nil
}

// countingWriter measures an encode without keeping the bytes.
type countingWriter int64

func (w *countingWriter) Write(b []byte) (int, error) {
	*w += countingWriter(len(b))
	return len(b), nil
}

// syncPartitionFull runs one pull-push max-join exchange of partition p
// with peer, full snapshots in both directions.
func (n *Node) syncPartitionFull(p int, peer string) error {
	// Pull the peer's view and fold it in.
	resp, err := n.client.Get(fmt.Sprintf("%s/snapshot/%d", peer, p))
	if err != nil {
		return err
	}
	blob, err := io.ReadAll(io.LimitReader(resp.Body, 1<<30))
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("pull: status %d", resp.StatusCode)
	}
	if err := n.st.MergeMax(blob); err != nil {
		return fmt.Errorf("pull merge: %w", err)
	}

	// Push our (now joined) view back so one exchange converges both sides.
	return n.pushFull(p, peer)
}
