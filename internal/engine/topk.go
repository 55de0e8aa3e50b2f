package engine

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"repro/internal/bank"
	"repro/internal/heavyhitters"
	"repro/internal/snapcodec"
	"repro/internal/xrand"
)

// KindTopK names the heavy-hitters engine.
const KindTopK = "topk"

// maxTopKCap bounds the per-shard slot capacity a payload may declare.
const maxTopKCap = 1 << 20

// TopKEngine is the cluster-wide heavy-hitters engine: ℓ₁ top-k detection
// via SpaceSaving summaries whose slots hold approximate registers — the
// [BDW19] application the paper cites, where Morris+ slot counters cut
// per-slot cost from O(log m) to O(log log m) bits.
//
// The key space [0, n) is striped into `parts` contiguous ranges (the same
// snapcodec.PartitionRange split the cluster replicates by), each owning an
// independent heavyhitters.Summary of capacity k and a seed-derived
// generator stream. Because summaries align one-to-one with serving
// partitions, a partition snapshot is exactly one summary's slot table, a
// replica max-join is Summary.MergeMax, and the cluster-wide top-k is the
// client-side concatenation of per-partition reports (partitions tile the
// key space, so their item sets are disjoint).
//
// Unlike the bank, the engine's state is NOT one register per key, so its
// snapshots ride snapcodec's engine-payload section: an opaque slot-table
// encoding (see topkPayload) under the "topk" kind, with the header's
// algorithm fields describing the slot registers and N/Shards/Seed the key
// space, stripe count, and rng universe.
type TopKEngine struct {
	split
	alg  bank.Algorithm
	seed uint64
	k    int

	shards []*topkShard
}

type topkShard struct {
	mu     sync.Mutex
	lo, hi int
	sum    *heavyhitters.Summary
	xo     *xrand.Xoshiro256
	rng    *xrand.Rand
}

// NewTopK builds a fresh heavy-hitters engine: n keys striped into parts
// summaries of k slots each, register transitions drawn from alg, per-shard
// generator streams derived deterministically from seed (the same SplitMix
// derivation the sharded bank uses, so a fixed seed fixes the replay
// universe).
func NewTopK(n int, alg bank.Algorithm, parts, k int, seed uint64) (*TopKEngine, error) {
	sp, err := newSplit(n, parts)
	if err != nil {
		return nil, err
	}
	if k < 1 || k > maxTopKCap {
		return nil, fmt.Errorf("engine: top-k capacity %d out of [1, %d]", k, maxTopKCap)
	}
	e := &TopKEngine{split: sp, alg: alg, seed: seed, k: k, shards: make([]*topkShard, parts)}
	sm := xrand.NewSplitMix64(seed)
	for s := range e.shards {
		lo, hi := snapcodec.PartitionRange(n, parts, s)
		xo := xrand.New(sm.Uint64())
		e.shards[s] = &topkShard{
			lo: lo, hi: hi,
			sum: heavyhitters.NewSummary(alg, k),
			xo:  xo,
			rng: xrand.NewRand(xo),
		}
	}
	return e, nil
}

// TopKFromSnapshot reconstructs a top-k engine from a (whole) engine
// snapshot, restoring every summary's slot table and, when the payload
// carries them, the per-shard generator states.
func TopKFromSnapshot(snap *snapcodec.Snapshot) (*TopKEngine, error) {
	if snap.Engine != KindTopK {
		return nil, fmt.Errorf("engine: %q snapshot is not a topk snapshot", snap.Engine)
	}
	if snap.IsPartition() {
		return nil, fmt.Errorf("engine: cannot restore a topk engine from partition %d/%d",
			snap.Partition, snap.Parts)
	}
	alg, err := snap.Alg()
	if err != nil {
		return nil, err
	}
	pl, err := parseTopKPayload(snap.Payload, snap.N, snap.Shards, alg.Width())
	if err != nil {
		return nil, err
	}
	e, err := NewTopK(snap.N, alg, snap.Shards, pl.cap, snap.Seed)
	if err != nil {
		return nil, err
	}
	for _, st := range pl.shards {
		sh := e.shards[st.index]
		if err := sh.sum.Restore(st.items, st.regs, st.n); err != nil {
			return nil, err
		}
		if pl.hasRNG {
			sh.xo.SetState(st.rng)
		}
	}
	return e, nil
}

// Kind implements Engine.
func (e *TopKEngine) Kind() string { return KindTopK }

// Seed implements Engine.
func (e *TopKEngine) Seed() uint64 { return e.seed }

// Cap returns the per-shard slot capacity k.
func (e *TopKEngine) Cap() int { return e.k }

// SizeBytes implements Engine: occupied slots × (8-byte item + packed
// register) — the footprint the [BDW19] construction bounds.
func (e *TopKEngine) SizeBytes() int {
	slots := 0
	for _, sh := range e.shards {
		sh.mu.Lock()
		slots += sh.sum.Len()
		sh.mu.Unlock()
	}
	return slots*8 + (slots*e.alg.Width()+7)/8
}

// Algorithm implements Engine.
func (e *TopKEngine) Algorithm() bank.Algorithm { return e.alg }

// shardOf returns the summary owning key k.
func (e *TopKEngine) shardOf(k int) *topkShard {
	return e.shards[snapcodec.PartitionOf(k, e.n, e.parts)]
}

// ApplyBatch implements Engine: keys group by shard (batch order preserved
// within one) and each shard's summary absorbs its run under one lock
// acquisition — the same batch-order determinism contract the sharded
// bank's IncrementBatch keeps, so WAL replay is exact.
func (e *TopKEngine) ApplyBatch(keys []int) {
	e.byShard(keys, func(s int, run []int) {
		sh := e.shards[s]
		sh.mu.Lock()
		for _, k := range run {
			sh.sum.Process(uint64(k), sh.rng)
		}
		sh.mu.Unlock()
	})
}

// Estimate implements Engine: the summary's estimate for tracked keys, 0
// for untracked (the top-k engine deliberately forgets the long tail).
func (e *TopKEngine) Estimate(key int) float64 {
	sh := e.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.sum.Estimate(uint64(key))
}

// EstimateAll implements Engine: tracked keys carry their summary
// estimates, everything else is 0.
func (e *TopKEngine) EstimateAll() []float64 {
	out := make([]float64, e.n)
	for _, sh := range e.shards {
		sh.mu.Lock()
		for _, en := range sh.sum.Top(0) {
			out[int(en.Item)] = en.Count
		}
		sh.mu.Unlock()
	}
	return out
}

// TopK implements Engine: the per-shard summaries overlapping [lo, hi)
// report their slots, ranked by descending estimate (ties toward the
// smaller key). The range must align to the partition split.
func (e *TopKEngine) TopK(k, lo, hi int) ([]Entry, error) {
	s0, s1, err := e.checkAligned(lo, hi)
	if err != nil {
		return nil, err
	}
	if k <= 0 {
		return []Entry{}, nil
	}
	var all []Entry
	for s := s0; s < s1; s++ {
		sh := e.shards[s]
		sh.mu.Lock()
		for _, en := range sh.sum.Top(0) {
			all = append(all, Entry{Key: int(en.Item), Estimate: en.Count})
		}
		sh.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Estimate != all[j].Estimate {
			return all[i].Estimate > all[j].Estimate
		}
		return all[i].Key < all[j].Key
	})
	if len(all) > k {
		all = all[:k]
	}
	return all, nil
}

// HashRange implements Engine: an FNV-1a fold of each covered summary's
// canonical (slot count, items, registers, stream length) export — exactly
// the state a partition snapshot serializes, so "hashes match" implies
// "snapshots byte-match". Stream lengths max-converge under MergeMax just
// like registers, so including them cannot wedge anti-entropy.
func (e *TopKEngine) HashRange(lo, hi int) (uint64, error) {
	s0, s1, err := e.checkAligned(lo, hi)
	if err != nil {
		return 0, err
	}
	h := newFNV()
	for s := s0; s < s1; s++ {
		sh := e.shards[s]
		sh.mu.Lock()
		items, regs := sh.sum.Export()
		n := sh.sum.StreamLen()
		sh.mu.Unlock()
		h.word(uint64(len(items)))
		for i := range items {
			h.word(items[i])
			h.word(regs[i])
		}
		h.word(n)
	}
	return h.sum(), nil
}

// Snapshot implements Engine: the slot tables of all shards (parts == 0)
// or of one partition, as a snapcodec engine snapshot. withState adds the
// per-shard generator states (checkpoints; whole snapshots only).
func (e *TopKEngine) Snapshot(part, parts int, withState bool) (*snapcodec.Snapshot, error) {
	snap, s0, s1, err := e.snapshotHeader(KindTopK, e.alg, e.seed, part, parts, withState)
	if err != nil {
		return nil, err
	}
	pl := topkPayload{cap: e.k, hasRNG: withState}
	for s := s0; s < s1; s++ {
		sh := e.shards[s]
		sh.mu.Lock()
		st := topkShardState{index: s, n: sh.sum.StreamLen()}
		st.items, st.regs = sh.sum.Export()
		if withState {
			st.rng = sh.xo.State()
		}
		sh.mu.Unlock()
		pl.shards = append(pl.shards, st)
	}
	snap.Payload = pl.encode()
	return snap, nil
}

// CheckPeer implements Engine: kind, algorithm, and shape equality plus a
// full payload parse (slot tables sorted, registers within width, items
// within their shard's key range), so a checked snapshot's Merge/MergeMax
// cannot fail after the store WAL-stages it.
func (e *TopKEngine) CheckPeer(snap *snapcodec.Snapshot, disjoint bool) error {
	if err := e.checkPeerHeader(snap, KindTopK, e.alg); err != nil {
		return err
	}
	if disjoint {
		if _, ok := e.alg.(bank.MergeAlgorithm); !ok {
			return fmt.Errorf("algorithm %q does not support merge", e.alg.Name())
		}
	}
	pl, err := parseTopKPayload(snap.Payload, e.n, e.parts, e.alg.Width())
	if err != nil {
		return err
	}
	if snap.IsPartition() {
		if len(pl.shards) != 1 || pl.shards[0].index != snap.Partition {
			return fmt.Errorf("partition %d snapshot carries the wrong shard set", snap.Partition)
		}
	}
	return nil
}

// Merge implements Engine: per-shard SpaceSaving union with Remark 2.4
// register merges, randomness drawn from each shard's own generator in
// ascending item order — deterministic, so WAL replay is exact.
func (e *TopKEngine) Merge(snap *snapcodec.Snapshot) error {
	return e.merge(snap, true)
}

// MergeMax implements Engine: per-shard max takeover (Summary.MergeMax) —
// idempotent, draw-free, the anti-entropy replica join.
func (e *TopKEngine) MergeMax(snap *snapcodec.Snapshot) error {
	return e.merge(snap, false)
}

// ResetRange implements Engine: replaces each aligned shard's summary with
// a fresh empty one — the partition evict after a rebalance handoff. The
// shard generator streams keep their positions (replay determinism: an
// evict draws nothing).
func (e *TopKEngine) ResetRange(lo, hi int) error {
	s0, s1, err := e.checkAligned(lo, hi)
	if err != nil {
		return err
	}
	for s := s0; s < s1; s++ {
		sh := e.shards[s]
		sh.mu.Lock()
		sh.sum = heavyhitters.NewSummary(e.alg, e.k)
		sh.mu.Unlock()
	}
	return nil
}

// TakeDirty implements Engine: the summary state rides the engine payload
// (there is no block-addressable register section), so top-k engines have no
// delta unit — ok is false and every checkpoint is a full snapshot.
func (e *TopKEngine) TakeDirty() ([]uint32, bool) { return nil, false }

// ClearDirty implements Engine (no-op; see TakeDirty).
func (e *TopKEngine) ClearDirty() {}

// MarkDirty implements Engine (no-op; see TakeDirty).
func (e *TopKEngine) MarkDirty([]uint32) {}

// DirtyCount implements Engine (always 0; see TakeDirty).
func (e *TopKEngine) DirtyCount() int { return 0 }

// BlockHashes implements Engine: not supported — the payload-only snapshot
// has no register blocks to diff, so callers fall back to full exchange.
func (e *TopKEngine) BlockHashes(part, parts int) ([]uint64, error) {
	return nil, fmt.Errorf("engine: %q snapshots carry no register blocks", KindTopK)
}

func (e *TopKEngine) merge(snap *snapcodec.Snapshot, disjoint bool) error {
	pl, err := parseTopKPayload(snap.Payload, e.n, e.parts, e.alg.Width())
	if err != nil {
		return err
	}
	for _, st := range pl.shards {
		sh := e.shards[st.index]
		sh.mu.Lock()
		if disjoint {
			err = sh.sum.MergeDisjoint(st.items, st.regs, st.n, sh.rng)
		} else {
			err = sh.sum.MergeMax(st.items, st.regs, st.n)
		}
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// --- payload codec ------------------------------------------------------

// topkPayload is the engine-payload encoding of a slot-table set:
//
//	version (1) | uvarint cap | flags (bit 0: rng states) |
//	uvarint shardCount | shards…
//
// and each shard, in ascending index order:
//
//	uvarint index | uvarint slots | slots × uvarint item (ascending) |
//	slots × uvarint register | uvarint streamLen | [flags&1] 4 × u64 rng
//
// Everything is length- and range-validated on parse against the engine
// shape, so a parsed payload merges and restores without failure.
type topkPayload struct {
	cap    int
	hasRNG bool
	shards []topkShardState
}

type topkShardState struct {
	index int
	items []uint64
	regs  []uint64
	n     uint64
	rng   [4]uint64
}

const topkPayloadVersion = 1

func (p *topkPayload) encode() []byte {
	var buf []byte
	buf = append(buf, topkPayloadVersion)
	buf = binary.AppendUvarint(buf, uint64(p.cap))
	var flags byte
	if p.hasRNG {
		flags = 1
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(len(p.shards)))
	for _, st := range p.shards {
		buf = binary.AppendUvarint(buf, uint64(st.index))
		buf = binary.AppendUvarint(buf, uint64(len(st.items)))
		for _, it := range st.items {
			buf = binary.AppendUvarint(buf, it)
		}
		for _, r := range st.regs {
			buf = binary.AppendUvarint(buf, r)
		}
		buf = binary.AppendUvarint(buf, st.n)
		if p.hasRNG {
			for _, w := range st.rng {
				buf = binary.LittleEndian.AppendUint64(buf, w)
			}
		}
	}
	return buf
}

// parseTopKPayload decodes and fully validates a payload against the
// engine shape (n keys, parts shards, width-bit registers).
func parseTopKPayload(data []byte, n, parts, width int) (*topkPayload, error) {
	d := &payloadReader{data: data}
	if v := d.byte(); v != topkPayloadVersion {
		return nil, fmt.Errorf("engine: topk payload version %d unsupported", v)
	}
	p := &topkPayload{cap: int(d.uvarint())}
	if p.cap < 1 || p.cap > maxTopKCap {
		return nil, fmt.Errorf("engine: topk payload capacity %d out of [1, %d]", p.cap, maxTopKCap)
	}
	flags := d.byte()
	if flags&^byte(1) != 0 {
		return nil, fmt.Errorf("engine: topk payload has unknown flags %#02x", flags)
	}
	p.hasRNG = flags&1 != 0
	count := int(d.uvarint())
	if count < 0 || count > parts {
		return nil, fmt.Errorf("engine: topk payload has %d shards for a %d-way engine", count, parts)
	}
	maxReg := ^uint64(0) >> uint(64-width)
	prev := -1
	for i := 0; i < count; i++ {
		st := topkShardState{index: int(d.uvarint())}
		if st.index <= prev || st.index >= parts {
			return nil, fmt.Errorf("engine: topk payload shard index %d invalid (prev %d, parts %d)",
				st.index, prev, parts)
		}
		prev = st.index
		slots := int(d.uvarint())
		if slots < 0 || slots > p.cap {
			return nil, fmt.Errorf("engine: shard %d has %d slots for capacity %d", st.index, slots, p.cap)
		}
		lo, hi := snapcodec.PartitionRange(n, parts, st.index)
		st.items = make([]uint64, slots)
		for j := range st.items {
			st.items[j] = d.uvarint()
			if j > 0 && st.items[j] <= st.items[j-1] {
				return nil, fmt.Errorf("engine: shard %d slot items not strictly ascending", st.index)
			}
			if st.items[j] < uint64(lo) || st.items[j] >= uint64(hi) {
				return nil, fmt.Errorf("engine: shard %d tracks key %d outside its range [%d, %d)",
					st.index, st.items[j], lo, hi)
			}
		}
		st.regs = make([]uint64, slots)
		for j := range st.regs {
			st.regs[j] = d.uvarint()
			if st.regs[j] > maxReg {
				return nil, fmt.Errorf("engine: shard %d register %d exceeds %d-bit width",
					st.index, st.regs[j], width)
			}
		}
		st.n = d.uvarint()
		if p.hasRNG {
			for w := range st.rng {
				st.rng[w] = d.u64()
			}
		}
		if d.err != nil {
			return nil, fmt.Errorf("engine: topk payload: %w", d.err)
		}
		p.shards = append(p.shards, st)
	}
	if err := d.done(KindTopK); err != nil {
		return nil, err
	}
	return p, nil
}
