package engine

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/bank"
	"repro/internal/shardbank"
	"repro/internal/snapcodec"
)

// MaxWindowBuckets bounds the bucket ring length a windowed engine (or a
// peer payload) may declare — enough for a day of minute buckets, small
// enough that per-bucket loops and B×n register allocations stay sane.
const MaxWindowBuckets = 1 << 12

// Windowed is the optional Engine extension for sliding-window sketches.
// The store type-asserts it to drive logical-clock rotation (WAL tick
// records) and to serve the ?window= query surface.
//
// Time is a logical bucket epoch: the wall clock divided by the bucket
// width, computed exactly once (by the store's clock, at live-write time)
// and then carried through the WAL as an explicit RecTick value — the
// engine itself never reads a wall clock, which is what keeps replay
// byte-identical no matter when it runs.
type Windowed interface {
	Engine
	// Advance moves the logical clock to epoch, rotating (zeroing and
	// re-labelling) every ring slot whose epoch expired. Epochs at or below
	// the current clock are no-ops; rotation is a pure function of
	// (state, epoch).
	Advance(epoch uint64)
	// Epoch returns the engine's logical clock: the newest bucket epoch any
	// shard has rotated or merged to.
	Epoch() uint64
	// WindowBuckets returns the ring length B — the widest queryable window,
	// in buckets.
	WindowBuckets() int
	// BucketNanos returns the wall-clock width of one bucket (metadata
	// carried for the serving layer's epoch derivation and ?window= parsing;
	// the engine itself only ever compares epochs).
	BucketNanos() int64
	// ApplyBatchEpoch counts keys at the bucket still labelled with epoch,
	// dropping keys whose origin bucket rotated out — the receive half of
	// epoch-tagged replication drains. Returns the number of keys applied.
	ApplyBatchEpoch(keys []int, epoch uint64) int
	// EstimateWindow returns N̂ for one key over the trailing w buckets
	// (1 ≤ w ≤ WindowBuckets).
	EstimateWindow(key, w int) (float64, error)
	// EstimateAllWindow returns all n estimates over the trailing w buckets.
	EstimateAllWindow(w int) ([]float64, error)
	// TopKWindow is TopK restricted to the trailing w buckets.
	TopKWindow(k, lo, hi, w int) ([]Entry, error)
}

// cellType is one sketch family on the bucket ring: the shape of what a
// bucket stores, its snapshot header vocabulary, and the two codec hooks
// that are about the family rather than one shard — everything else a ring
// engine does differently lives in the per-shard cells it builds. The ring
// never asks which family it is serving.
type cellType interface {
	// kind and alg are the snapshot header's engine kind and register
	// algorithm.
	kind() string
	alg() bank.Algorithm
	// seed derives the family's hash and generator material for a parts-way
	// engine in seed's replay universe. Called once, by newRing.
	seed(seed uint64, parts int)
	// bucketRegs is the number of snapshot-register-section registers one
	// bucket of a span-key shard occupies (0: the sketch is payload-only).
	bucketRegs(span int) int
	// shardBytes is the in-memory footprint of a span-key shard's buckets.
	shardBytes(span, buckets int) int
	// appendShape appends the payload's flags byte and shape prefix;
	// parseShape reads them back, bounds-checked, as the (unseeded) cell type
	// the payload declares. Bit 0 of the flags byte is the family's to define
	// (windowed, or generator state present).
	appendShape(buf []byte, windowed, state bool) []byte
	parseShape(d *payloadReader) (ct cellType, windowed, state bool, err error)
	// checkPeer is the family's share of CheckPeer: the declared peer shape
	// must equal the local one, plus whatever the join itself requires (a
	// shared hash seed, a merge-capable algorithm).
	checkPeer(snap *snapcodec.Snapshot, peer cellType, disjoint bool) error
	// newCells allocates one shard's empty buckets, whose registers (if any)
	// occupy regs of the whole-snapshot layout.
	newCells(sh *ringShard, regs regSpan) cells
	// decode reads one peer shard's cell bytes off a payload and validates
	// them and the shard's registers (exactly buckets × bucketRegs of them),
	// returning the peer's buckets in the form the family's join and load
	// take. It allocates no more than the payload bytes still unread: a
	// header must not make the engine allocate what the peer never sent.
	decode(d *payloadReader, regs []uint64, buckets int, state bool) (peer any, err error)
}

// cells is one shard's B buckets of one sketch family. The ring calls it
// once per (shard, bucket, run of keys), per bucket join and per shard
// read, always holding the shard lock; the per-key loops stay inside the
// implementation, monomorphic over its own storage.
type cells interface {
	// apply counts keys (the shard's, in batch order) into bucket j.
	apply(j int, keys []int)
	// zero empties bucket j — rotation.
	zero(j int)
	// reset empties every bucket — the partition evict.
	reset()
	// join folds bucket j of a decoded peer shard (same family, same shape)
	// into bucket j: the disjoint-stream fold, or the idempotent same-stream
	// replica join. load installs a decoded shard wholesale — the restore.
	join(j int, peer any, disjoint bool)
	load(peer any)
	// scan answers for keys [klo, khi) over the live slots (oldest first; cur
	// is the shard clock): visit(key, n, v) says v is the estimate of the n
	// keys starting at key, and returns the caller's floor — the estimate a
	// key must exceed to matter to it (the k-th best of a ranking, 0 for a
	// reader of every key). A per-key sketch visits its keys in ascending
	// order and may skip any it can prove estimates at or below the floor
	// visit last returned (0 before the first visit); a per-partition sketch
	// visits once, for the whole shard.
	scan(slots []int, cur uint64, klo, khi int, visit func(key, n int, v float64) float64)
	// hash folds the buckets exactly as a snapshot serializes them.
	hash(h *fnv1a64)
	// emit appends the shard's cell bytes to the payload and its registers to
	// the register section — what the family's decode reads back.
	emit(payload []byte, regs []uint64, state bool) ([]byte, []uint64)
}

// ring is the bucket ring every windowed and per-partition sketch engine is
// built on: per partition shard, B time buckets of a cellType's cells,
// rotated by a logical clock. It owns everything that is about time buckets
// and partitions — rotation, the shard router, epoch-tagged applies, the
// trailing-window walk, the epoch-aligned joins, evicts, hashing, dirty
// tracking and the snapshot payload codec — and an engine is its cell type
// plus an estimator. A cumulative engine is the degenerate ring: one
// bucket, epoch 0, never rotated.
//
// The determinism contract is every engine's, with one twist: rotation is
// driven by bucket epochs that arrive as explicit operations (Advance, fed
// by WAL RecTick records), never by reading a clock, so a replayed log
// rotates at exactly the same points in the operation order and recovery is
// byte-identical.
//
// Both joins align buckets on their epoch: the local shard first advances
// to the union clock, then every live peer bucket either matches a local
// slot epoch exactly (the ring invariant makes the live epoch sets
// congruent) and is joined, or is expired under the merged clock and
// dropped — a windowed sketch only ever answers about the live window.
type ring struct {
	split
	ct          cellType
	seed        uint64
	windowed    bool
	buckets     int
	bucketNanos int64

	clock  atomic.Uint64 // newest epoch advanced/merged to, for Epoch()
	shards []*ringShard
	// bases[s] is where shard s's registers start in the whole-snapshot
	// register layout; bases[parts] is the layout size, 0 for payload-only
	// cell types — which therefore have no dirty set.
	bases []int
	dirty *shardbank.DirtySet
}

// ringShard is one partition's ring: B buckets over the key range [lo, hi)
// and their epochs.
//
// Ring invariant: slot j is live iff epochs[j]%B == j — the slot for epoch
// e is always e%B, so after any advance each slot holds the unique epoch in
// (cur−B, cur] congruent to its index (or the initial zero value, which is
// live only at slot 0). Rotation zeroes a slot as it relabels it, so a
// slot's cells always belong to exactly the epoch it is labelled with — the
// property that makes the serialized (epochs, cells) pair canonical and
// lets replicas converge to byte-identical snapshots.
type ringShard struct {
	mu     sync.Mutex
	index  int
	lo, hi int
	cur    uint64
	epochs []uint64
	cells  cells
	slots  []int // live's scratch
}

// regSpan is one shard's section of the whole-snapshot register layout
// (sections tile in shard order, bucket banks in slot order within one) and
// the dirty set tracking that layout; offsets are relative to the section.
type regSpan struct {
	base  int
	dirty *shardbank.DirtySet
}

func (s regSpan) mark(i int)           { s.dirty.Mark(s.base + i) }
func (s regSpan) markRange(lo, hi int) { s.dirty.MarkRange(s.base+lo, s.base+hi) }

// newRing validates an engine shape and returns its ring without shards;
// the caller fills them.
func newRing(ct cellType, n, parts, buckets int, windowed bool, bucketNanos int64, seed uint64) (*ring, error) {
	sp, err := newSplit(n, parts)
	if err != nil {
		return nil, err
	}
	if !windowed && (buckets != 1 || bucketNanos != 0) {
		return nil, fmt.Errorf("engine: cumulative %s engine carries %d buckets of %dns", ct.kind(), buckets, bucketNanos)
	}
	if buckets < 1 || buckets > MaxWindowBuckets {
		return nil, fmt.Errorf("engine: window bucket count %d out of [1, %d]", buckets, MaxWindowBuckets)
	}
	if bucketNanos < 0 {
		return nil, fmt.Errorf("engine: negative bucket width %d", bucketNanos)
	}
	r := &ring{
		split: sp, ct: ct, seed: seed,
		windowed: windowed, buckets: buckets, bucketNanos: bucketNanos,
		shards: make([]*ringShard, parts),
		bases:  make([]int, parts+1),
	}
	for s := 0; s < parts; s++ {
		lo, hi := snapcodec.PartitionRange(n, parts, s)
		r.bases[s+1] = r.bases[s] + buckets*ct.bucketRegs(hi-lo)
	}
	// The whole ring must stay serializable: discovering at the first
	// checkpoint that the codec rejects the register count would brick
	// checkpointing (and grow the WAL forever) on a daemon that happily
	// serves writes.
	if regs := r.bases[parts]; regs > snapcodec.MaxRegisters {
		return nil, fmt.Errorf("engine: %d keys in %d shards × %d buckets need %d snapshot registers, over the codec's %d",
			n, parts, buckets, regs, snapcodec.MaxRegisters)
	} else if regs > 0 {
		r.dirty = shardbank.NewDirtySet(regs)
	}
	ct.seed(seed, parts)
	return r, nil
}

// fill gives every shard fresh, empty buckets.
func (r *ring) fill() *ring {
	for s := range r.shards {
		r.shards[s] = r.newShard(s)
	}
	return r
}

func (r *ring) newShard(s int) *ringShard {
	lo, hi := snapcodec.PartitionRange(r.n, r.parts, s)
	sh := &ringShard{index: s, lo: lo, hi: hi, epochs: make([]uint64, r.buckets)}
	sh.cells = r.ct.newCells(sh, regSpan{r.bases[s], r.dirty})
	return sh
}

// ringFromSnapshot reconstructs a ring from a whole engine snapshot whose
// payload declares a cell type of proto's family.
func ringFromSnapshot(snap *snapcodec.Snapshot, proto cellType) (*ring, error) {
	kind := proto.kind()
	if snap.Engine != kind {
		return nil, fmt.Errorf("engine: %q snapshot is not a %s snapshot", snap.Engine, kind)
	}
	if snap.IsPartition() {
		return nil, fmt.Errorf("engine: cannot restore a %s engine from partition %d/%d",
			kind, snap.Partition, snap.Parts)
	}
	alg, err := snap.Alg()
	if err != nil {
		return nil, err
	}
	d := &payloadReader{data: snap.Payload}
	h, err := parseRingHeader(d, proto)
	if err != nil {
		return nil, err
	}
	if want := h.ct.alg(); alg != want {
		return nil, fmt.Errorf("engine: %s snapshot header carries %s/%d-bit, want %s/%d-bit",
			kind, snap.AlgName, snap.Width, want.Name(), want.Width())
	}
	r, err := newRing(h.ct, snap.N, snap.Shards, h.buckets, h.windowed, h.bucketNanos, snap.Seed)
	if err != nil {
		return nil, err
	}
	peers, err := r.parseShards(d, h, snap.Registers)
	if err != nil {
		return nil, err
	}
	if len(peers) != r.parts {
		return nil, fmt.Errorf("engine: whole %s snapshot carries %d of %d shards", kind, len(peers), r.parts)
	}
	// Parsed first, allocated second: the shards exist only once the payload
	// proved to carry them.
	for s, peer := range peers {
		sh := r.newShard(s)
		sh.epochs, sh.cur = peer.epochs, peer.cur
		sh.cells.load(peer.cells)
		r.shards[s] = sh
		r.bumpClock(sh.cur)
	}
	// The restore rewrote every bucket; conservatively mark the whole layout
	// so the next checkpoint cannot miss restored state. The store's recovery
	// path drains the set once it knows the image is durable.
	if r.dirty != nil {
		r.dirty.MarkRange(0, r.bases[r.parts])
	}
	return r, nil
}

// maxLiveEpoch derives a shard's logical clock from its slot epochs: the
// clock is always the newest live epoch (rotation labels the slot of the
// epoch it moves to), so it needs no serialized field of its own.
func maxLiveEpoch(epochs []uint64) uint64 {
	cur, b := uint64(0), uint64(len(epochs))
	for j, ep := range epochs {
		if ep%b == uint64(j) && ep > cur {
			cur = ep
		}
	}
	return cur
}

// Kind implements Engine.
func (r *ring) Kind() string { return r.ct.kind() }

// Seed implements Engine.
func (r *ring) Seed() uint64 { return r.seed }

// Algorithm implements Engine: the register algorithm the snapshot header
// carries — the configured one for register-bank cells, a pinned placeholder
// for sketches whose cells are not approximate counters.
func (r *ring) Algorithm() bank.Algorithm { return r.ct.alg() }

// SizeBytes implements Engine.
func (r *ring) SizeBytes() int {
	total := 0
	for _, sh := range r.shards {
		total += r.ct.shardBytes(sh.hi-sh.lo, r.buckets)
	}
	return total
}

// PeerRegisterCap implements PeerRegisterCapper: the whole-snapshot register
// layout (B × n for a register bank per bucket, shards × B × 2^p for a
// distinct ring, nothing for a payload-only sketch) — and the codec applies
// the same cap to the header's key-space field, hence the max.
func (r *ring) PeerRegisterCap() int { return max(r.n, r.bases[r.parts]) }

// bumpClock raises the engine-wide clock to epoch (monotone).
func (r *ring) bumpClock(epoch uint64) {
	for {
		old := r.clock.Load()
		if epoch <= old || r.clock.CompareAndSwap(old, epoch) {
			return
		}
	}
}

// advance rotates every shard to epoch.
func (r *ring) advance(epoch uint64) {
	for _, sh := range r.shards {
		sh.mu.Lock()
		sh.advanceLocked(epoch)
		sh.mu.Unlock()
	}
	r.bumpClock(epoch)
}

// advanceLocked rotates the ring to epoch e: every epoch in (cur, e] claims
// its slot (zeroing whatever expired there); a jump of ≥ B buckets relabels
// slot j with the unique epoch in (e−B, e] congruent to j and zeroes the
// whole ring in one pass. Caller holds mu.
func (sh *ringShard) advanceLocked(e uint64) {
	if e <= sh.cur {
		return
	}
	b := uint64(len(sh.epochs))
	if e-sh.cur >= b {
		for j := range sh.epochs {
			sh.epochs[j] = e - (e%b+b-uint64(j))%b
			sh.cells.zero(j)
		}
	} else {
		for ee := sh.cur + 1; ee <= e; ee++ {
			j := int(ee % b)
			sh.epochs[j] = ee
			sh.cells.zero(j)
		}
	}
	sh.cur = e
}

// live returns the slots of the trailing w buckets still labelled with
// their epoch, oldest first, in a scratch slice valid until mu is released.
func (sh *ringShard) live(w int) []int {
	b := uint64(len(sh.epochs))
	slots := sh.slots[:0]
	for d := w - 1; d >= 0; d-- {
		if uint64(d) > sh.cur {
			continue
		}
		ep := sh.cur - uint64(d)
		if j := int(ep % b); sh.epochs[j] == ep {
			slots = append(slots, j)
		}
	}
	sh.slots = slots
	return slots
}

// ApplyBatch implements Engine: keys group by shard and each shard counts
// its run into its current bucket under one lock acquisition — the same
// batch-order determinism contract the bank keeps, so WAL replay is exact.
func (r *ring) ApplyBatch(keys []int) {
	r.byShard(keys, func(s int, run []int) {
		sh := r.shards[s]
		sh.mu.Lock()
		sh.cells.apply(int(sh.cur%uint64(r.buckets)), run)
		sh.mu.Unlock()
	})
}

// applyAt counts keys at the ring bucket still labelled with epoch — the
// receive half of epoch-tagged replication drains. Keys whose origin bucket
// rotated out are dropped rather than smeared into the current bucket: a
// late hint must age exactly like the local write it mirrors, so expiry in
// transit means expiry, not a fresher count. Epochs newer than the clock
// find no labelled bucket and drop the same way — callers advance the ring
// first (the store stages a tick) when they mean to honor a fresher origin
// clock. The slot label (epochs[e%B] == e) is the ground truth for liveness:
// shards rotate together under Advance, but a shard a merge advanced can
// sit ahead, and the label is right either way. Returns the number of keys
// applied; the drop decision is a pure function of ring state, so replay
// stays deterministic.
func (r *ring) applyAt(keys []int, epoch uint64) int {
	applied := 0
	r.byShard(keys, func(s int, run []int) {
		sh := r.shards[s]
		sh.mu.Lock()
		if j := int(epoch % uint64(r.buckets)); sh.epochs[j] == epoch {
			sh.cells.apply(j, run)
			applied += len(run)
		}
		sh.mu.Unlock()
	})
	return applied
}

// checkWindow validates a bucket-count window argument.
func (r *ring) checkWindow(w int) error {
	if w < 1 || w > r.buckets {
		return fmt.Errorf("engine: window of %d buckets out of [1, %d]", w, r.buckets)
	}
	return nil
}

// window validates a read of the aligned key range [lo, hi) over the
// trailing w buckets and returns the shards it covers.
func (r *ring) window(lo, hi, w int) ([]*ringShard, error) {
	if err := r.checkWindow(w); err != nil {
		return nil, err
	}
	s0, s1, err := r.checkAligned(lo, hi)
	if err != nil {
		return nil, err
	}
	return r.shards[s0:s1], nil
}

// scanShards runs the cells' estimator over each shard's trailing w buckets.
func scanShards(shards []*ringShard, w int, visit func(key, n int, v float64) float64) {
	for _, sh := range shards {
		sh.mu.Lock()
		sh.cells.scan(sh.live(w), sh.cur, sh.lo, sh.hi, visit)
		sh.mu.Unlock()
	}
}

// estimate returns one key's estimate over the trailing w buckets.
func (r *ring) estimate(key, w int) (v float64, err error) {
	if err := r.checkWindow(w); err != nil {
		return 0, err
	}
	if key < 0 || key >= r.n {
		return 0, fmt.Errorf("engine: key %d out of range [0,%d)", key, r.n)
	}
	sh := r.shards[snapcodec.PartitionOf(key, r.n, r.parts)]
	sh.mu.Lock()
	sh.cells.scan(sh.live(w), sh.cur, key, key+1, func(_, _ int, est float64) float64 {
		v = est
		return 0
	})
	sh.mu.Unlock()
	return v, nil
}

// estimateAll returns all n estimates over the trailing w buckets.
func (r *ring) estimateAll(w int) ([]float64, error) {
	shards, err := r.window(0, r.n, w)
	if err != nil {
		return nil, err
	}
	out := make([]float64, r.n)
	scanShards(shards, w, func(key, n int, v float64) float64 {
		for i := key; i < key+n; i++ {
			out[i] = v
		}
		return 0
	})
	return out, nil
}

// topK ranks what the shards of [lo, hi) report over the trailing w buckets
// (ties toward the smaller key): keys for a per-key sketch, partitions —
// each keyed by its lowest key — for a per-partition one.
func (r *ring) topK(k, lo, hi, w int) ([]Entry, error) {
	shards, err := r.window(lo, hi, w)
	if err != nil {
		return nil, err
	}
	if k <= 0 {
		return []Entry{}, nil
	}
	// k comes straight off the HTTP query string — cap the buffer at the
	// range size so a hostile k cannot allocate gigabytes.
	k = min(k, hi-lo)
	out := make([]Entry, 0, k+1)
	// Shards and the keys within one arrive in ascending order, so a later
	// key never wins a tie: only an estimate strictly above the k-th best
	// (above 0 until there are k) can still rank, and that is the floor the
	// cells may skip under.
	floor := 0.0
	scanShards(shards, w, func(key, _ int, v float64) float64 {
		if v > floor {
			if out = topkPush(out, k, key, v); len(out) == k {
				floor = out[k-1].Estimate
			}
		}
		return floor
	})
	return out, nil
}

// rangeEstimate sums the shards' answers over [lo, hi) and the trailing w
// buckets — the scalar of a per-partition sketch, additive because
// partitions tile disjoint key ranges.
func (r *ring) rangeEstimate(lo, hi, w int) (float64, error) {
	shards, err := r.window(lo, hi, w)
	if err != nil {
		return 0, err
	}
	total := 0.0
	scanShards(shards, w, func(_, _ int, v float64) float64 {
		total += v
		return 0
	})
	return total, nil
}

// Estimate implements Engine: the full-window estimate.
func (r *ring) Estimate(key int) float64 {
	v, _ := r.estimate(key, r.buckets)
	return v
}

// EstimateAll implements Engine: full-window estimates.
func (r *ring) EstimateAll() []float64 {
	out, _ := r.estimateAll(r.buckets)
	return out
}

// TopK implements Engine: the full-window ranking.
func (r *ring) TopK(k, lo, hi int) ([]Entry, error) { return r.topK(k, lo, hi, r.buckets) }

// HashRange implements Engine: an FNV-1a fold of each covered shard's
// (epochs, cells) exactly as a partition snapshot serializes them, so
// "hashes match" implies "snapshots byte-match" — the anti-entropy
// pre-check.
func (r *ring) HashRange(lo, hi int) (uint64, error) {
	s0, s1, err := r.checkAligned(lo, hi)
	if err != nil {
		return 0, err
	}
	h := newFNV()
	for _, sh := range r.shards[s0:s1] {
		sh.mu.Lock()
		for _, ep := range sh.epochs {
			h.word(ep)
		}
		sh.cells.hash(&h)
		sh.mu.Unlock()
	}
	return h.sum(), nil
}

// ResetRange implements Engine: empties every bucket of the aligned shard
// range — the partition evict after a rebalance handoff. The ring structure
// (slot epochs, logical clock) and any generator streams are preserved: an
// emptied shard at epoch e is a valid state, and the evict draws no
// randomness, so WAL replay is exact.
func (r *ring) ResetRange(lo, hi int) error {
	s0, s1, err := r.checkAligned(lo, hi)
	if err != nil {
		return err
	}
	for _, sh := range r.shards[s0:s1] {
		sh.mu.Lock()
		sh.cells.reset()
		sh.mu.Unlock()
	}
	return nil
}

// TakeDirty implements Engine over the whole-snapshot register layout; ok
// is false for payload-only cell types, which always checkpoint in full.
func (r *ring) TakeDirty() ([]uint32, bool) {
	if r.dirty == nil {
		return nil, false
	}
	return r.dirty.Take(), true
}

// MarkDirty implements Engine.
func (r *ring) MarkDirty(blocks []uint32) {
	if r.dirty != nil {
		r.dirty.Rearm(blocks)
	}
}

// DirtyCount implements Engine.
func (r *ring) DirtyCount() int {
	if r.dirty == nil {
		return 0
	}
	return r.dirty.Count()
}

// BlockHashes implements Engine: per-block FNV-1a fingerprints of the
// register section a partition (or whole) snapshot would carry. Slot epochs
// ride the payload, not the registers, so equal block hashes with divergent
// clocks still identify which registers need to move. Payload-only cell
// types have no blocks to diff; anti-entropy falls back to whole-partition
// snapshots.
func (r *ring) BlockHashes(part, parts int) ([]uint64, error) {
	if r.dirty == nil {
		return nil, fmt.Errorf("engine: %s snapshots are payload-only; no block-addressable registers", r.ct.kind())
	}
	s0, s1, err := r.shardRange(part, parts)
	if err != nil {
		return nil, err
	}
	_, regs := r.emit(nil, s0, s1, false)
	return blockHashes(snapcodec.RegisterSlice(regs)), nil
}

// Snapshot implements Engine: ring metadata and the cell type's payload
// bytes in the engine payload (see emit), registers — when the cell type has
// any — in the version-4 engine register section, block-packed. Whole
// snapshots (parts == 0) carry all shards; partition snapshots exactly one.
func (r *ring) Snapshot(part, parts int, withState bool) (*snapcodec.Snapshot, error) {
	snap, s0, s1, err := r.snapshotHeader(r.ct.kind(), r.ct.alg(), r.seed, part, parts, withState)
	if err != nil {
		return nil, err
	}
	payload := r.ct.appendShape([]byte{ringPayloadVersion}, r.windowed, withState)
	payload = binary.AppendUvarint(payload, uint64(r.buckets))
	payload = binary.AppendUvarint(payload, uint64(r.bucketNanos))
	payload = binary.AppendUvarint(payload, uint64(s1-s0))
	snap.Payload, snap.Registers = r.emit(payload, s0, s1, withState)
	return snap, nil
}

// CheckPeer implements Engine: kind, header algorithm and key-space shape,
// then a full payload parse against the local ring (sketch shape, ring
// length and bucket width equal; slot epochs congruent to their ring index;
// cells valid; the register section exactly tiling the covered shards), so
// a checked snapshot's Merge/MergeMax cannot fail after the store
// WAL-stages it.
func (r *ring) CheckPeer(snap *snapcodec.Snapshot, disjoint bool) error {
	if err := r.checkPeerHeader(snap, r.ct.kind(), r.ct.alg()); err != nil {
		return err
	}
	shards, err := r.parsePeer(snap, disjoint)
	if err != nil {
		return err
	}
	if snap.IsPartition() && (len(shards) != 1 || shards[0].index != snap.Partition) {
		return fmt.Errorf("partition %d snapshot carries the wrong shard set", snap.Partition)
	}
	return nil
}

// Merge implements Engine: the epoch-aligned disjoint-stream fold, bucket
// by bucket in ascending slot order, so any randomness a cell type draws
// comes from the shard's own generator in a fixed order and WAL replay is
// exact.
func (r *ring) Merge(snap *snapcodec.Snapshot) error { return r.merge(snap, true) }

// MergeMax implements Engine: the same epoch alignment with the cell
// type's idempotent replica join — draw-free, the anti-entropy join.
func (r *ring) MergeMax(snap *snapcodec.Snapshot) error { return r.merge(snap, false) }

func (r *ring) merge(snap *snapcodec.Snapshot, disjoint bool) error {
	peers, err := r.parsePeer(snap, disjoint)
	if err != nil {
		return err
	}
	b := uint64(r.buckets)
	for _, peer := range peers {
		sh := r.shards[peer.index]
		sh.mu.Lock()
		// Union clock first, then align.
		sh.advanceLocked(peer.cur)
		for j, pe := range peer.epochs {
			if pe%b != uint64(j) || pe > sh.cur || pe+b <= sh.cur || sh.epochs[j] != pe {
				continue
			}
			sh.cells.join(j, peer.cells, disjoint)
		}
		cur := sh.cur
		sh.mu.Unlock()
		r.bumpClock(cur)
	}
	return nil
}

// --- payload codec ------------------------------------------------------
//
// Every ring engine's payload is
//
//	version (1) | flags | <shape prefix> | uvarint buckets B |
//	uvarint bucketNanos | uvarint shardCount | shards…
//
// and each shard, in ascending index order:
//
//	uvarint index | B × uvarint slot epoch | <cell bytes>
//
// with the flags byte, shape prefix and cell bytes the cell type's (see
// docs/FORMAT.md for each). Registers, for cell types that have them, ride
// the snapshot's version-4 engine register section: per payload shard, B
// buckets in slot order. Cumulative engines must carry exactly one bucket
// of width 0 whose epoch is 0.

const ringPayloadVersion = 1

// emit appends shards [s0, s1) to a payload and collects their registers.
func (r *ring) emit(payload []byte, s0, s1 int, state bool) ([]byte, []uint64) {
	var regs []uint64
	if n := r.bases[s1] - r.bases[s0]; n > 0 {
		regs = make([]uint64, 0, n)
	}
	for _, sh := range r.shards[s0:s1] {
		sh.mu.Lock()
		payload = binary.AppendUvarint(payload, uint64(sh.index))
		for _, ep := range sh.epochs {
			payload = binary.AppendUvarint(payload, ep)
		}
		payload, regs = sh.cells.emit(payload, regs, state)
		sh.mu.Unlock()
	}
	return payload, regs
}

// ringHeader is what a payload declares ahead of its shards.
type ringHeader struct {
	ct              cellType
	windowed, state bool
	buckets         int
	bucketNanos     int64
	count           int
}

func parseRingHeader(d *payloadReader, proto cellType) (h ringHeader, err error) {
	kind := proto.kind()
	if v := d.byte(); v != ringPayloadVersion {
		return h, fmt.Errorf("engine: %s payload version %d unsupported", kind, v)
	}
	if h.ct, h.windowed, h.state, err = proto.parseShape(d); err != nil {
		return h, err
	}
	h.buckets = int(d.uvarint())
	bn := d.uvarint()
	h.bucketNanos = int64(bn)
	h.count = int(d.uvarint())
	switch {
	case d.err != nil:
		return h, fmt.Errorf("engine: %s payload: %w", kind, d.err)
	case h.buckets < 1 || h.buckets > MaxWindowBuckets:
		return h, fmt.Errorf("engine: %s payload bucket count %d out of [1, %d]", kind, h.buckets, MaxWindowBuckets)
	case bn > 1<<62:
		return h, fmt.Errorf("engine: %s payload bucket width %d overflows", kind, bn)
	case !h.windowed && (h.buckets != 1 || bn != 0):
		return h, fmt.Errorf("engine: cumulative %s payload carries %d buckets of %dns", kind, h.buckets, bn)
	}
	return h, nil
}

// readFlag reads a payload's flags byte, of which only bit 0 is defined.
func readFlag(d *payloadReader, kind string) (bool, error) {
	flags := d.byte()
	if flags&^1 != 0 {
		return false, fmt.Errorf("engine: %s payload has unknown flags %#02x", kind, flags)
	}
	return flags == 1, nil
}

func appendFlag(buf []byte, set bool) []byte {
	if set {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// peerShard is one decoded shard of a peer (or checkpoint) snapshot.
type peerShard struct {
	index  int
	cur    uint64
	epochs []uint64
	cells  any // what the cell type's decode returned
}

// parsePeer decodes and fully validates a peer snapshot's payload and
// register section against this ring, returning the peer's shards.
func (r *ring) parsePeer(snap *snapcodec.Snapshot, disjoint bool) ([]peerShard, error) {
	d := &payloadReader{data: snap.Payload}
	h, err := parseRingHeader(d, r.ct)
	if err != nil {
		return nil, err
	}
	// Shape before shards: nothing is decoded for a shape that is not this
	// ring's own.
	if err := r.ct.checkPeer(snap, h.ct, disjoint); err != nil {
		return nil, err
	}
	switch {
	case h.windowed != r.windowed:
		return nil, fmt.Errorf("window mismatch: peer windowed=%v, local windowed=%v", h.windowed, r.windowed)
	case h.buckets != r.buckets:
		return nil, fmt.Errorf("window ring mismatch: peer %d buckets, local %d", h.buckets, r.buckets)
	case h.bucketNanos != r.bucketNanos:
		return nil, fmt.Errorf("bucket width mismatch: peer %dns, local %dns", h.bucketNanos, r.bucketNanos)
	}
	return r.parseShards(d, h, snap.Registers)
}

// parseShards decodes the shards of a payload whose header h matches r's
// shape: indices ascending and in range, slot epochs congruent to their
// ring index (or the zero placeholder of a never-rotated slot), cells valid,
// the register section exactly tiling the covered shards, nothing trailing.
func (r *ring) parseShards(d *payloadReader, h ringHeader, regs []uint64) ([]peerShard, error) {
	kind := r.ct.kind()
	if h.count < 0 || h.count > r.parts {
		return nil, fmt.Errorf("engine: %s payload has %d shards for a %d-way engine", kind, h.count, r.parts)
	}
	b := uint64(r.buckets)
	shards := make([]peerShard, 0, h.count)
	prev := -1
	for i := 0; i < h.count; i++ {
		s := int(d.uvarint())
		// Each epoch is at least one payload byte, so the bytes still unread
		// bound the slice the header asks for.
		if d.err != nil || s <= prev || s >= r.parts || r.buckets > len(d.data)-d.pos {
			return nil, fmt.Errorf("engine: %s payload shard index %d invalid or truncated (prev %d, parts %d)", kind, s, prev, r.parts)
		}
		prev = s
		need := r.bases[s+1] - r.bases[s]
		if len(regs) < need {
			return nil, fmt.Errorf("engine: %s snapshot register section short: shard %d needs %d, %d left",
				kind, s, need, len(regs))
		}
		peer := peerShard{index: s, epochs: make([]uint64, r.buckets)}
		for j := range peer.epochs {
			ep := d.uvarint()
			if ep != 0 && (ep%b != uint64(j) || !r.windowed) {
				return nil, fmt.Errorf("engine: shard %d slot %d cannot hold epoch %d", s, j, ep)
			}
			peer.epochs[j] = ep
		}
		peer.cur = maxLiveEpoch(peer.epochs)
		var err error
		if peer.cells, err = r.ct.decode(d, regs[:need], r.buckets, h.state); err != nil {
			return nil, fmt.Errorf("engine: %s payload shard %d: %w", kind, s, err)
		}
		if d.err != nil {
			return nil, fmt.Errorf("engine: %s payload: %w", kind, d.err)
		}
		regs = regs[need:]
		shards = append(shards, peer)
	}
	if err := d.done(kind); err != nil {
		return nil, err
	}
	if len(regs) != 0 {
		return nil, fmt.Errorf("engine: %s snapshot register section has %d trailing registers", kind, len(regs))
	}
	return shards, nil
}

// --- the Windowed method set ---------------------------------------------

// ringWindow is the Windowed (and windowed range) method set over a ring.
// Only the *Window* engines embed it: the store type-asserts Windowed to
// decide whether to stage WAL tick records, so a cumulative engine must
// never pick these methods up.
type ringWindow struct{ r *ring }

// Advance implements Windowed: every shard rotates to epoch.
func (w ringWindow) Advance(epoch uint64) { w.r.advance(epoch) }

// Epoch implements Windowed.
func (w ringWindow) Epoch() uint64 { return w.r.clock.Load() }

// WindowBuckets implements Windowed.
func (w ringWindow) WindowBuckets() int { return w.r.buckets }

// BucketNanos implements Windowed.
func (w ringWindow) BucketNanos() int64 { return w.r.bucketNanos }

// ApplyBatchEpoch implements Windowed: keys land in the bucket still
// labelled with epoch, or age out exactly like the local writes they mirror.
func (w ringWindow) ApplyBatchEpoch(keys []int, epoch uint64) int { return w.r.applyAt(keys, epoch) }

// EstimateWindow implements Windowed.
func (w ringWindow) EstimateWindow(key, n int) (float64, error) { return w.r.estimate(key, n) }

// EstimateAllWindow implements Windowed.
func (w ringWindow) EstimateAllWindow(n int) ([]float64, error) { return w.r.estimateAll(n) }

// TopKWindow implements Windowed.
func (w ringWindow) TopKWindow(k, lo, hi, n int) ([]Entry, error) { return w.r.topK(k, lo, hi, n) }
