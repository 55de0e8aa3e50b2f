package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/bank"
	"repro/internal/bitpack"
	"repro/internal/snapcodec"
	"repro/internal/xrand"
)

// KindWindow names the sliding-window engine.
const KindWindow = "window"

// MaxWindowBuckets bounds the bucket ring length a window engine (or a
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

// WindowEngine answers "how many in the last N minutes" with the same
// register vocabulary the bank uses for "how many ever": per partition, a
// ring of B time-bucket register banks (one packed register per key per
// bucket), rotated by a logical clock. An increment steps the key's
// register in the current bucket; a windowed query combines the trailing w
// live buckets — via the paper's Remark 2.4 register merge when the
// algorithm supports it (Morris), falling back to summing the per-bucket
// estimates (exact, Csűrös) — and an expired bucket simply rotates out of
// the ring, which is how old traffic is forgotten.
//
// The determinism contract is the same as every engine's, with one twist:
// rotation is driven by bucket epochs that arrive as explicit operations
// (Advance, fed by WAL RecTick records), never by reading a clock, so a
// replayed log rotates at exactly the same points in the operation order
// and recovery is byte-identical. Query-time register folds draw from a
// throwaway generator derived from (seed, key, clock) — never from the
// replay streams — so reads cannot perturb replay.
//
// Both joins align buckets on their epoch. Merge (disjoint streams, e.g.
// two sites) advances the local clock to the peer's, then Remark 2.4-folds
// bucket-by-bucket; MergeMax (replicas of the same stream) does the same
// with a register-wise max — idempotent, so cluster replication, hinted
// handoff, and hash-gated anti-entropy work unchanged. Peer buckets that
// are expired under the merged clock are dropped: a windowed sketch only
// ever answers about the live window.
type WindowEngine struct {
	n           int
	alg         bank.Algorithm
	ma          bank.MergeAlgorithm // nil when alg has no Remark 2.4 merge
	seed        uint64
	buckets     int
	parts       int
	bucketNanos int64

	clock  atomic.Uint64 // newest epoch advanced/merged to, for Epoch()
	shards []*windowShard
	dirty  *dirtySet // changed blocks of the B×n whole-snapshot layout
}

var _ Windowed = (*WindowEngine)(nil)

// windowShard is one partition's ring: B bucket banks over the key range
// [lo, hi), their epochs, and the shard's replay generator stream.
//
// Ring invariant: slot j is live iff epochs[j]%B == j — the slot for epoch
// e is always e%B, so after any advance each slot holds the unique epoch in
// (cur−B, cur] congruent to its index (or the initial zero value, which is
// live only at slot 0). Rotation zeroes a slot before relabelling it, so a
// slot's registers always belong to exactly the epoch it is labelled with —
// the property that makes the serialized (epochs, registers) pair canonical
// and lets replicas converge to byte-identical snapshots.
type windowShard struct {
	mu     sync.Mutex
	lo, hi int
	cur    uint64
	epochs []uint64
	regs   []*bitpack.Array
	xo     *xrand.Xoshiro256
	rng    *xrand.Rand
	// Dirty tracking: the shard's bucket registers occupy
	// [regBase, regBase + B·span) of the whole-snapshot register layout
	// (regBase = B·lo — partition sections tile in shard order), bucket j at
	// offset j·span. Rotation marks through ds so advanceLocked, which has
	// no engine receiver, can reach the bitmap.
	regBase int
	ds      *dirtySet
}

// NewWindow builds a fresh sliding-window engine: n keys striped into parts
// partition shards, each a ring of buckets packed register banks stepped by
// alg, with per-shard generator streams derived deterministically from seed
// (the same SplitMix derivation the bank and top-k engines use).
// bucketNanos is the wall-clock bucket width carried as metadata.
func NewWindow(n int, alg bank.Algorithm, parts, buckets int, bucketNanos int64, seed uint64) (*WindowEngine, error) {
	if n <= 0 {
		return nil, errors.New("engine: non-positive key-space size")
	}
	if buckets < 1 || buckets > MaxWindowBuckets {
		return nil, fmt.Errorf("engine: window bucket count %d out of [1, %d]", buckets, MaxWindowBuckets)
	}
	if parts < 1 || parts > snapcodec.MaxPartitions {
		return nil, fmt.Errorf("engine: partition count %d out of [1, %d]", parts, snapcodec.MaxPartitions)
	}
	if parts > n {
		return nil, fmt.Errorf("engine: %d partitions exceed %d keys", parts, n)
	}
	// The whole ring must stay serializable: a snapshot carries B × n
	// registers, and discovering at the first checkpoint that the codec
	// rejects the count would brick checkpointing (and grow the WAL
	// forever) on a daemon that happily serves writes.
	if int64(n)*int64(buckets) > snapcodec.MaxRegisters {
		return nil, fmt.Errorf("engine: %d keys × %d buckets exceeds %d snapshot registers — shrink -n or the -window/-bucket ratio",
			n, buckets, snapcodec.MaxRegisters)
	}
	if bucketNanos < 0 {
		return nil, fmt.Errorf("engine: negative bucket width %d", bucketNanos)
	}
	e := &WindowEngine{
		n: n, alg: alg, seed: seed, buckets: buckets, parts: parts,
		bucketNanos: bucketNanos,
		shards:      make([]*windowShard, parts),
	}
	e.ma, _ = alg.(bank.MergeAlgorithm)
	e.dirty = newDirtySet(n * buckets)
	sm := xrand.NewSplitMix64(seed)
	for s := range e.shards {
		lo, hi := snapcodec.PartitionRange(n, parts, s)
		xo := xrand.New(sm.Uint64())
		sh := &windowShard{
			lo: lo, hi: hi,
			epochs:  make([]uint64, buckets),
			regs:    make([]*bitpack.Array, buckets),
			xo:      xo,
			rng:     xrand.NewRand(xo),
			regBase: buckets * lo,
			ds:      e.dirty,
		}
		for j := range sh.regs {
			sh.regs[j] = bitpack.NewArray(hi-lo, alg.Width())
		}
		e.shards[s] = sh
	}
	return e, nil
}

// WindowFromSnapshot reconstructs a window engine from a (whole) engine
// snapshot, restoring every shard's bucket epochs and registers and, when
// the payload carries them, the per-shard generator states.
func WindowFromSnapshot(snap *snapcodec.Snapshot) (*WindowEngine, error) {
	if snap.Engine != KindWindow {
		return nil, fmt.Errorf("engine: %q snapshot is not a window snapshot", snap.Engine)
	}
	if snap.IsPartition() {
		return nil, fmt.Errorf("engine: cannot restore a window engine from partition %d/%d",
			snap.Partition, snap.Parts)
	}
	alg, err := snap.Alg()
	if err != nil {
		return nil, err
	}
	pl, err := parseWindowPayload(snap, snap.N, snap.Shards)
	if err != nil {
		return nil, err
	}
	if len(pl.shards) != snap.Shards {
		return nil, fmt.Errorf("engine: whole window snapshot carries %d of %d shards",
			len(pl.shards), snap.Shards)
	}
	e, err := NewWindow(snap.N, alg, snap.Shards, pl.buckets, pl.bucketNanos, snap.Seed)
	if err != nil {
		return nil, err
	}
	for _, st := range pl.shards {
		sh := e.shards[st.index]
		copy(sh.epochs, st.epochs)
		sh.cur = maxLiveEpoch(st.epochs, pl.buckets)
		span := sh.hi - sh.lo
		for j := 0; j < pl.buckets; j++ {
			arr := sh.regs[j]
			for i, v := range st.regs[j*span : (j+1)*span] {
				arr.Set(i, v)
			}
		}
		if pl.hasRNG {
			sh.xo.SetState(st.rng)
		}
		if sh.cur > e.clock.Load() {
			e.clock.Store(sh.cur)
		}
	}
	// The restore rewrote every bucket bank; conservatively mark the whole
	// layout so the next checkpoint cannot miss restored state. The store's
	// recovery path drains the set once it knows the image is durable.
	e.dirty.markRange(0, e.n*e.buckets)
	return e, nil
}

// maxLiveEpoch derives a shard's logical clock from its serialized slot
// epochs: the clock is always the newest live epoch (Advance labels the
// slot of the epoch it moves to), so it needs no field of its own.
func maxLiveEpoch(epochs []uint64, b int) uint64 {
	cur := uint64(0)
	for j, ep := range epochs {
		if ep%uint64(b) == uint64(j) && ep > cur {
			cur = ep
		}
	}
	return cur
}

// Kind implements Engine.
func (e *WindowEngine) Kind() string { return KindWindow }

// Len implements Engine.
func (e *WindowEngine) Len() int { return e.n }

// Seed implements Engine.
func (e *WindowEngine) Seed() uint64 { return e.seed }

// Shards implements Engine.
func (e *WindowEngine) Shards() int { return e.parts }

// WindowBuckets implements Windowed.
func (e *WindowEngine) WindowBuckets() int { return e.buckets }

// BucketNanos implements Windowed.
func (e *WindowEngine) BucketNanos() int64 { return e.bucketNanos }

// Epoch implements Windowed.
func (e *WindowEngine) Epoch() uint64 { return e.clock.Load() }

// SizeBytes implements Engine: B packed bucket banks per shard.
func (e *WindowEngine) SizeBytes() int {
	total := 0
	for _, sh := range e.shards {
		for _, arr := range sh.regs {
			total += arr.SizeBytes()
		}
	}
	return total
}

// Algorithm implements Engine.
func (e *WindowEngine) Algorithm() bank.Algorithm { return e.alg }

// AlignPartitions implements Engine: bucket rings are per-partition, so the
// serving split must match the engine's stripe count.
func (e *WindowEngine) AlignPartitions() int { return e.parts }

// bumpClock raises the engine-wide clock to epoch (monotone).
func (e *WindowEngine) bumpClock(epoch uint64) {
	for {
		old := e.clock.Load()
		if epoch <= old || e.clock.CompareAndSwap(old, epoch) {
			return
		}
	}
}

// Advance implements Windowed: every shard rotates to epoch.
func (e *WindowEngine) Advance(epoch uint64) {
	for _, sh := range e.shards {
		sh.mu.Lock()
		sh.advanceLocked(e.buckets, epoch)
		sh.mu.Unlock()
	}
	e.bumpClock(epoch)
}

// advanceLocked rotates the ring to epoch e: every epoch in (cur, e] claims
// its slot (zeroing whatever expired there); a jump of ≥ B buckets zeroes
// the whole ring in one pass. Caller holds mu.
func (sh *windowShard) advanceLocked(b int, e uint64) {
	if e <= sh.cur {
		return
	}
	if e-sh.cur >= uint64(b) {
		// Every old bucket expired: relabel slot j with the unique epoch in
		// (e−B, e] congruent to j.
		r := e % uint64(b)
		for j := range sh.epochs {
			diff := (r + uint64(b) - uint64(j)) % uint64(b)
			sh.epochs[j] = e - diff
			sh.zeroBucket(j)
		}
	} else {
		for ee := sh.cur + 1; ee <= e; ee++ {
			j := int(ee % uint64(b))
			sh.epochs[j] = ee
			sh.zeroBucket(j)
		}
	}
	sh.cur = e
}

func (sh *windowShard) zeroBucket(j int) {
	words := sh.regs[j].Words()
	for _, w := range words {
		if w != 0 {
			// The rotation changes register bytes, so the bucket's span of
			// the snapshot layout is dirty; an already-zero bucket is not.
			span := sh.hi - sh.lo
			sh.ds.markRange(sh.regBase+j*span, sh.regBase+(j+1)*span)
			break
		}
	}
	clear(words)
}

// shardOf returns the shard owning key k.
func (e *WindowEngine) shardOf(k int) *windowShard {
	return e.shards[snapcodec.PartitionOf(k, e.n, e.parts)]
}

// ApplyBatch implements Engine: keys group by shard (stable counting sort,
// preserving batch order within a shard) and each shard steps its current
// bucket's registers under one lock acquisition — the same batch-order
// determinism contract the bank keeps, so WAL replay is exact.
func (e *WindowEngine) ApplyBatch(keys []int) {
	if len(keys) == 0 {
		return
	}
	if e.parts == 1 {
		e.shards[0].applyRun(e, keys)
		return
	}
	counts := make([]int, e.parts+1)
	for _, k := range keys {
		counts[snapcodec.PartitionOf(k, e.n, e.parts)+1]++
	}
	for s := 1; s <= e.parts; s++ {
		counts[s] += counts[s-1]
	}
	sorted := make([]int, len(keys))
	offsets := append([]int(nil), counts[:e.parts]...)
	for _, k := range keys {
		s := snapcodec.PartitionOf(k, e.n, e.parts)
		sorted[offsets[s]] = k
		offsets[s]++
	}
	for s := 0; s < e.parts; s++ {
		lo, hi := counts[s], counts[s+1]
		if lo == hi {
			continue
		}
		e.shards[s].applyRun(e, sorted[lo:hi])
	}
}

func (sh *windowShard) applyRun(e *WindowEngine, keys []int) {
	sh.mu.Lock()
	j := int(sh.cur % uint64(e.buckets))
	arr := sh.regs[j]
	base := sh.regBase + j*(sh.hi-sh.lo)
	for _, k := range keys {
		i := k - sh.lo
		reg := arr.Get(i)
		if next := e.alg.Step(reg, sh.rng); next != reg {
			arr.Set(i, next)
			sh.ds.mark(base + i)
		}
	}
	sh.mu.Unlock()
}

// ApplyBatchEpoch counts keys at the ring bucket still labelled with epoch —
// the receive half of epoch-tagged replication drains. Keys whose origin
// bucket rotated out are dropped rather than smeared into the current
// bucket: a late hint must age exactly like the local write it mirrors, so
// expiry in transit means expiry, not a fresher count. Epochs newer than
// the clock find no labelled bucket and drop the same way — callers advance
// the ring first (the store stages a tick) when they mean to honor a
// fresher origin clock. Returns the number of keys applied; rng draws
// happen only for applied keys, so the drop decision — a pure function of
// ring state — keeps replay deterministic.
func (e *WindowEngine) ApplyBatchEpoch(keys []int, epoch uint64) int {
	if len(keys) == 0 {
		return 0
	}
	if e.parts == 1 {
		return e.shards[0].applyRunAt(e, keys, epoch)
	}
	counts := make([]int, e.parts+1)
	for _, k := range keys {
		counts[snapcodec.PartitionOf(k, e.n, e.parts)+1]++
	}
	for s := 1; s <= e.parts; s++ {
		counts[s] += counts[s-1]
	}
	sorted := make([]int, len(keys))
	offsets := append([]int(nil), counts[:e.parts]...)
	for _, k := range keys {
		s := snapcodec.PartitionOf(k, e.n, e.parts)
		sorted[offsets[s]] = k
		offsets[s]++
	}
	applied := 0
	for s := 0; s < e.parts; s++ {
		lo, hi := counts[s], counts[s+1]
		if lo == hi {
			continue
		}
		applied += e.shards[s].applyRunAt(e, sorted[lo:hi], epoch)
	}
	return applied
}

// applyRunAt steps one shard's bucket for epoch, if the ring still holds
// it. The slot check (epochs[e%B] == e) is the ground truth for liveness:
// shards rotate together under Advance, but a shard restored from a merge
// can sit ahead, and the slot label is right either way.
func (sh *windowShard) applyRunAt(e *WindowEngine, keys []int, epoch uint64) int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	j := int(epoch % uint64(e.buckets))
	if sh.epochs[j] != epoch {
		return 0
	}
	arr := sh.regs[j]
	base := sh.regBase + j*(sh.hi-sh.lo)
	for _, k := range keys {
		i := k - sh.lo
		reg := arr.Get(i)
		if next := e.alg.Step(reg, sh.rng); next != reg {
			arr.Set(i, next)
			sh.ds.mark(base + i)
		}
	}
	return len(keys)
}

// queryRand returns the throwaway generator a windowed fold for one key
// draws from: deterministic in (seed, key, clock) — so replicas with equal
// state and seed answer identically — and disjoint from the replay streams,
// so reads never perturb recovery.
func (e *WindowEngine) queryRand(key int, cur uint64) *xrand.Rand {
	h := e.seed
	h ^= (cur + 1) * 0x9E3779B97F4A7C15
	h ^= (uint64(key) + 1) * 0xBF58476D1CE4E5B9
	return xrand.NewRand(xrand.New(h))
}

// foldLocked combines key's registers over the trailing w live buckets:
// a Remark 2.4 register fold (ascending epoch order) when the algorithm
// merges, a sum of per-bucket estimates otherwise. Caller holds sh.mu.
func (e *WindowEngine) foldLocked(sh *windowShard, key, w int) float64 {
	i := key - sh.lo
	b := uint64(e.buckets)
	if e.ma != nil {
		var rng *xrand.Rand
		reg := uint64(0)
		for d := w - 1; d >= 0; d-- {
			if uint64(d) > sh.cur {
				continue
			}
			ep := sh.cur - uint64(d)
			j := int(ep % b)
			if sh.epochs[j] != ep {
				continue
			}
			v := sh.regs[j].Get(i)
			if v == 0 {
				continue // merging an empty counter is the identity
			}
			if reg == 0 {
				reg = v
				continue
			}
			if rng == nil {
				rng = e.queryRand(key, sh.cur)
			}
			reg = e.ma.MergeRegs(reg, v, rng)
		}
		return e.alg.Estimate(reg)
	}
	sum := 0.0
	for d := w - 1; d >= 0; d-- {
		if uint64(d) > sh.cur {
			continue
		}
		ep := sh.cur - uint64(d)
		j := int(ep % b)
		if sh.epochs[j] != ep {
			continue
		}
		if v := sh.regs[j].Get(i); v != 0 {
			sum += e.alg.Estimate(v)
		}
	}
	return sum
}

// checkWindow validates a bucket-count window argument.
func (e *WindowEngine) checkWindow(w int) error {
	if w < 1 || w > e.buckets {
		return fmt.Errorf("engine: window of %d buckets out of [1, %d]", w, e.buckets)
	}
	return nil
}

// EstimateWindow implements Windowed.
func (e *WindowEngine) EstimateWindow(key, w int) (float64, error) {
	if err := e.checkWindow(w); err != nil {
		return 0, err
	}
	if key < 0 || key >= e.n {
		return 0, fmt.Errorf("engine: key %d out of range [0,%d)", key, e.n)
	}
	sh := e.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return e.foldLocked(sh, key, w), nil
}

// Estimate implements Engine: the full-window estimate.
func (e *WindowEngine) Estimate(key int) float64 {
	v, _ := e.EstimateWindow(key, e.buckets)
	return v
}

// EstimateAllWindow implements Windowed.
func (e *WindowEngine) EstimateAllWindow(w int) ([]float64, error) {
	if err := e.checkWindow(w); err != nil {
		return nil, err
	}
	out := make([]float64, e.n)
	for _, sh := range e.shards {
		sh.mu.Lock()
		for k := sh.lo; k < sh.hi; k++ {
			out[k] = e.foldLocked(sh, k, w)
		}
		sh.mu.Unlock()
	}
	return out, nil
}

// EstimateAll implements Engine: full-window estimates.
func (e *WindowEngine) EstimateAll() []float64 {
	out, _ := e.EstimateAllWindow(e.buckets)
	return out
}

// checkAligned validates that [lo, hi) tiles exactly onto engine shards and
// returns their index range [s0, s1).
func (e *WindowEngine) checkAligned(lo, hi int) (int, int, error) {
	if lo < 0 || hi > e.n || lo >= hi {
		return 0, 0, fmt.Errorf("engine: key range [%d, %d) outside [0, %d)", lo, hi, e.n)
	}
	s0 := snapcodec.PartitionOf(lo, e.n, e.parts)
	s1 := snapcodec.PartitionOf(hi-1, e.n, e.parts) + 1
	if e.shards[s0].lo != lo || e.shards[s1-1].hi != hi {
		return 0, 0, fmt.Errorf("engine: key range [%d, %d) not aligned to the %d-way partition split",
			lo, hi, e.parts)
	}
	return s0, s1, nil
}

// TopKWindow implements Windowed: an O(range × w) scan ranking the range's
// windowed estimates (ties toward the smaller key) — the bank tracks every
// key per bucket, so the ranking is exact w.r.t. the registers.
func (e *WindowEngine) TopKWindow(k, lo, hi, w int) ([]Entry, error) {
	if err := e.checkWindow(w); err != nil {
		return nil, err
	}
	s0, s1, err := e.checkAligned(lo, hi)
	if err != nil {
		return nil, err
	}
	if k <= 0 {
		return []Entry{}, nil
	}
	// k comes straight off the HTTP query string — cap the buffer at the
	// range size so a hostile k cannot allocate gigabytes.
	if k > hi-lo {
		k = hi - lo
	}
	out := make([]Entry, 0, k+1)
	for s := s0; s < s1; s++ {
		sh := e.shards[s]
		sh.mu.Lock()
		for key := sh.lo; key < sh.hi; key++ {
			if v := e.foldLocked(sh, key, w); v > 0 {
				out = topkPush(out, k, key, v)
			}
		}
		sh.mu.Unlock()
	}
	return out, nil
}

// TopK implements Engine: the full-window ranking.
func (e *WindowEngine) TopK(k, lo, hi int) ([]Entry, error) {
	return e.TopKWindow(k, lo, hi, e.buckets)
}

// HashRange implements Engine: an FNV-1a fold of each covered shard's
// (epochs, bucket registers) exactly as a partition snapshot serializes
// them, so "hashes match" implies "snapshots byte-match" — the anti-entropy
// pre-check.
func (e *WindowEngine) HashRange(lo, hi int) (uint64, error) {
	s0, s1, err := e.checkAligned(lo, hi)
	if err != nil {
		return 0, err
	}
	h := newFNV()
	for s := s0; s < s1; s++ {
		sh := e.shards[s]
		sh.mu.Lock()
		for _, ep := range sh.epochs {
			h.word(ep)
		}
		span := sh.hi - sh.lo
		for _, arr := range sh.regs {
			for i := 0; i < span; i++ {
				h.word(arr.Get(i))
			}
		}
		sh.mu.Unlock()
	}
	return h.sum(), nil
}

// Snapshot implements Engine: bucket epochs (and rng states, for
// checkpoints) in the engine payload, every bucket's registers in the
// version-4 engine register section — block-packed, so the mostly-small
// window registers compress like bank registers do. Whole snapshots
// (parts == 0) carry all shards; partition snapshots exactly one.
func (e *WindowEngine) Snapshot(part, parts int, withState bool) (*snapcodec.Snapshot, error) {
	snap := &snapcodec.Snapshot{
		N:      e.n,
		Shards: e.parts,
		Seed:   e.seed,
		Engine: KindWindow,
	}
	if err := snap.SetAlg(e.alg); err != nil {
		return nil, err
	}
	s0, s1 := 0, e.parts
	if parts != 0 {
		if withState {
			return nil, errors.New("engine: partition snapshots cannot carry generator state")
		}
		if parts != e.parts {
			return nil, fmt.Errorf("engine: %d-way snapshot of a %d-way window engine", parts, e.parts)
		}
		if part < 0 || part >= parts {
			return nil, fmt.Errorf("engine: partition %d out of [0, %d)", part, parts)
		}
		snap.Partition = part
		snap.Parts = parts
		s0, s1 = part, part+1
	}
	pl := windowPayload{buckets: e.buckets, bucketNanos: e.bucketNanos, hasRNG: withState}
	totalSpan := 0
	for s := s0; s < s1; s++ {
		totalSpan += e.shards[s].hi - e.shards[s].lo
	}
	regs := make([]uint64, 0, e.buckets*totalSpan)
	for s := s0; s < s1; s++ {
		sh := e.shards[s]
		sh.mu.Lock()
		st := windowShardState{index: s, epochs: append([]uint64(nil), sh.epochs...)}
		span := sh.hi - sh.lo
		for _, arr := range sh.regs {
			for i := 0; i < span; i++ {
				regs = append(regs, arr.Get(i))
			}
		}
		if withState {
			st.rng = sh.xo.State()
		}
		sh.mu.Unlock()
		pl.shards = append(pl.shards, st)
	}
	snap.Payload = pl.encode()
	snap.Registers = regs
	return snap, nil
}

// CheckPeer implements Engine: kind, algorithm, shape, ring-length, and
// bucket-width equality plus a full payload parse (slot epochs congruent to
// their ring index, register count exactly tiling the covered shards), so a
// checked snapshot's Merge/MergeMax cannot fail after the store WAL-stages
// it. The register values themselves were already width-checked by the
// codec, and the algorithm equality above pins that width to the engine's.
func (e *WindowEngine) CheckPeer(snap *snapcodec.Snapshot, disjoint bool) error {
	if snap.Engine != KindWindow {
		kind := snap.Engine
		if kind == "" {
			kind = KindBank
		}
		return fmt.Errorf("engine kind mismatch: peer %q, local %q", kind, KindWindow)
	}
	if disjoint && e.ma == nil {
		return fmt.Errorf("algorithm %q does not support merge", e.alg.Name())
	}
	alg, err := snap.Alg()
	if err != nil {
		return err
	}
	if alg != e.alg {
		return fmt.Errorf("algorithm mismatch: peer %s/%d-bit, local %s/%d-bit",
			snap.AlgName, snap.Width, e.alg.Name(), e.alg.Width())
	}
	if snap.N != e.n || snap.Shards != e.parts {
		return fmt.Errorf("shape mismatch: peer %d keys/%d shards, local %d/%d",
			snap.N, snap.Shards, e.n, e.parts)
	}
	if snap.IsPartition() && snap.Parts != e.parts {
		return fmt.Errorf("partition split mismatch: peer %d-way, local %d-way", snap.Parts, e.parts)
	}
	pl, err := parseWindowPayload(snap, e.n, e.parts)
	if err != nil {
		return err
	}
	if pl.buckets != e.buckets {
		return fmt.Errorf("window ring mismatch: peer %d buckets, local %d", pl.buckets, e.buckets)
	}
	if pl.bucketNanos != e.bucketNanos {
		return fmt.Errorf("bucket width mismatch: peer %dns, local %dns", pl.bucketNanos, e.bucketNanos)
	}
	if snap.IsPartition() {
		if len(pl.shards) != 1 || pl.shards[0].index != snap.Partition {
			return fmt.Errorf("partition %d snapshot carries the wrong shard set", snap.Partition)
		}
	}
	return nil
}

// Merge implements Engine: epoch-aligned bucket-by-bucket Remark 2.4 folds
// of a DISJOINT stream's window, randomness drawn from each shard's own
// generator in ascending key order — deterministic, so WAL replay is exact.
// The local clock first advances to the peer's newest epoch; peer buckets
// expired under the merged clock are dropped.
func (e *WindowEngine) Merge(snap *snapcodec.Snapshot) error {
	return e.merge(snap, true)
}

// MergeMax implements Engine: the same epoch alignment with a register-wise
// maximum — draw-free and idempotent, the anti-entropy replica join.
func (e *WindowEngine) MergeMax(snap *snapcodec.Snapshot) error {
	return e.merge(snap, false)
}

// ResetRange implements Engine: zeroes every bucket's registers for the
// aligned shard range — the partition evict after a rebalance handoff. The
// bucket ring structure (slot epochs, logical clock) and the generator
// streams are preserved: an emptied shard at epoch e is a valid state, and
// the evict draws no randomness, so WAL replay is exact.
func (e *WindowEngine) ResetRange(lo, hi int) error {
	s0, s1, err := e.checkAligned(lo, hi)
	if err != nil {
		return err
	}
	for s := s0; s < s1; s++ {
		sh := e.shards[s]
		sh.mu.Lock()
		span := sh.hi - sh.lo
		for j, arr := range sh.regs {
			base := sh.regBase + j*span
			for i := 0; i < span; i++ {
				if arr.Get(i) != 0 {
					arr.Set(i, 0)
					sh.ds.mark(base + i)
				}
			}
		}
		sh.mu.Unlock()
	}
	return nil
}

// TakeDirty implements Engine over the B×n whole-snapshot register layout
// (shard sections in shard order, bucket banks in slot order within one).
func (e *WindowEngine) TakeDirty() ([]uint32, bool) { return e.dirty.take(), true }

// MarkDirty implements Engine.
func (e *WindowEngine) MarkDirty(blocks []uint32) { e.dirty.rearm(blocks) }

// DirtyCount implements Engine.
func (e *WindowEngine) DirtyCount() int { return e.dirty.count() }

// BlockHashes implements Engine: per-block FNV-1a fingerprints of the
// register section a partition (or whole) snapshot would carry — the
// shard's B bucket banks in slot order, key order within a bucket. Slot
// epochs ride the payload, not the registers, so equal block hashes with
// divergent clocks still identify which registers need to move.
func (e *WindowEngine) BlockHashes(part, parts int) ([]uint64, error) {
	s0, s1 := 0, e.parts
	if parts != 0 {
		if parts != e.parts {
			return nil, fmt.Errorf("engine: %d-way block hashes of a %d-way window engine", parts, e.parts)
		}
		if part < 0 || part >= parts {
			return nil, fmt.Errorf("engine: partition %d out of [0, %d)", part, parts)
		}
		s0, s1 = part, part+1
	}
	totalSpan := 0
	for s := s0; s < s1; s++ {
		totalSpan += e.shards[s].hi - e.shards[s].lo
	}
	regs := make([]uint64, 0, e.buckets*totalSpan)
	for s := s0; s < s1; s++ {
		sh := e.shards[s]
		sh.mu.Lock()
		span := sh.hi - sh.lo
		for _, arr := range sh.regs {
			for i := 0; i < span; i++ {
				regs = append(regs, arr.Get(i))
			}
		}
		sh.mu.Unlock()
	}
	return blockHashes(snapcodec.RegisterSlice(regs)), nil
}

func (e *WindowEngine) merge(snap *snapcodec.Snapshot, disjoint bool) error {
	pl, err := parseWindowPayload(snap, e.n, e.parts)
	if err != nil {
		return err
	}
	if pl.buckets != e.buckets {
		return fmt.Errorf("engine: window ring mismatch: peer %d buckets, local %d", pl.buckets, e.buckets)
	}
	b := uint64(e.buckets)
	for _, st := range pl.shards {
		sh := e.shards[st.index]
		sh.mu.Lock()
		// Advance to the union clock first: every live peer bucket then
		// either matches a local slot epoch exactly (the ring invariant
		// makes the live epoch sets congruent) or is expired and dropped.
		newCur := sh.cur
		for j, pe := range st.epochs {
			if pe%b == uint64(j) && pe > newCur {
				newCur = pe
			}
		}
		sh.advanceLocked(e.buckets, newCur)
		span := sh.hi - sh.lo
		for j, pe := range st.epochs {
			if pe%b != uint64(j) || pe > sh.cur || pe+b <= sh.cur || sh.epochs[j] != pe {
				continue
			}
			pregs := st.regs[j*span : (j+1)*span]
			arr := sh.regs[j]
			base := sh.regBase + j*span
			if disjoint {
				for i, pv := range pregs {
					lv := arr.Get(i)
					// Folding an empty counter in is the identity and draws
					// nothing, on either side.
					switch {
					case pv == 0:
					case lv == 0:
						arr.Set(i, pv)
						sh.ds.mark(base + i)
					default:
						if merged := e.ma.MergeRegs(lv, pv, sh.rng); merged != lv {
							arr.Set(i, merged)
							sh.ds.mark(base + i)
						}
					}
				}
			} else {
				for i, pv := range pregs {
					if pv > arr.Get(i) {
						arr.Set(i, pv)
						sh.ds.mark(base + i)
					}
				}
			}
		}
		cur := sh.cur
		sh.mu.Unlock()
		e.bumpClock(cur)
	}
	return nil
}

// --- payload codec ------------------------------------------------------

// windowPayload is the engine-payload encoding of the ring metadata:
//
//	version (1) | flags (bit 0: rng states) | uvarint buckets B |
//	uvarint bucketNanos | uvarint shardCount | shards…
//
// and each shard, in ascending index order:
//
//	uvarint index | B × uvarint slot epoch | [flags&1] 4 × u64 rng
//
// The bucket registers themselves ride the snapshot's version-4 engine
// register section (block-packed): for each payload shard, B buckets of
// span = hi−lo registers, slot-index order, key order within a bucket.
type windowPayload struct {
	buckets     int
	bucketNanos int64
	hasRNG      bool
	shards      []windowShardState
}

type windowShardState struct {
	index  int
	epochs []uint64
	regs   []uint64 // B × span, sliced out of Snapshot.Registers on parse
	rng    [4]uint64
}

const windowPayloadVersion = 1

func (p *windowPayload) encode() []byte {
	var buf []byte
	buf = append(buf, windowPayloadVersion)
	var flags byte
	if p.hasRNG {
		flags = 1
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(p.buckets))
	buf = binary.AppendUvarint(buf, uint64(p.bucketNanos))
	buf = binary.AppendUvarint(buf, uint64(len(p.shards)))
	for _, st := range p.shards {
		buf = binary.AppendUvarint(buf, uint64(st.index))
		for _, ep := range st.epochs {
			buf = binary.AppendUvarint(buf, ep)
		}
		if p.hasRNG {
			for _, w := range st.rng {
				buf = binary.LittleEndian.AppendUint64(buf, w)
			}
		}
	}
	return buf
}

// parseWindowPayload decodes and fully validates a window snapshot's
// payload and register section against an (n keys, parts shards) engine
// shape: shard indices ascending and in range, slot epochs congruent to
// their ring index (or the zero placeholder), and the register section
// exactly tiling the covered shards' B × span bucket banks.
func parseWindowPayload(snap *snapcodec.Snapshot, n, parts int) (*windowPayload, error) {
	d := &payloadReader{data: snap.Payload}
	if v := d.byte(); v != windowPayloadVersion {
		return nil, fmt.Errorf("engine: window payload version %d unsupported", v)
	}
	flags := d.byte()
	if flags&^byte(1) != 0 {
		return nil, fmt.Errorf("engine: window payload has unknown flags %#02x", flags)
	}
	p := &windowPayload{hasRNG: flags&1 != 0}
	p.buckets = int(d.uvarint())
	if p.buckets < 1 || p.buckets > MaxWindowBuckets {
		return nil, fmt.Errorf("engine: window payload bucket count %d out of [1, %d]", p.buckets, MaxWindowBuckets)
	}
	bn := d.uvarint()
	if bn > 1<<62 {
		return nil, fmt.Errorf("engine: window payload bucket width %d overflows", bn)
	}
	p.bucketNanos = int64(bn)
	count := int(d.uvarint())
	if count < 0 || count > parts {
		return nil, fmt.Errorf("engine: window payload has %d shards for a %d-way engine", count, parts)
	}
	b := uint64(p.buckets)
	regs := snap.Registers
	prev := -1
	for i := 0; i < count; i++ {
		st := windowShardState{index: int(d.uvarint())}
		if st.index <= prev || st.index >= parts {
			return nil, fmt.Errorf("engine: window payload shard index %d invalid (prev %d, parts %d)",
				st.index, prev, parts)
		}
		prev = st.index
		st.epochs = make([]uint64, p.buckets)
		for j := range st.epochs {
			ep := d.uvarint()
			// A slot is either live (its epoch is congruent to its ring
			// index) or the zero placeholder of a never-rotated ring.
			if ep%b != uint64(j) && ep != 0 {
				return nil, fmt.Errorf("engine: shard %d slot %d epoch %d not congruent to its ring index",
					st.index, j, ep)
			}
			st.epochs[j] = ep
		}
		if p.hasRNG {
			for w := range st.rng {
				st.rng[w] = d.u64()
			}
		}
		if d.err != nil {
			return nil, fmt.Errorf("engine: window payload: %w", d.err)
		}
		lo, hi := snapcodec.PartitionRange(n, parts, st.index)
		need := p.buckets * (hi - lo)
		if len(regs) < need {
			return nil, fmt.Errorf("engine: window snapshot register section short: shard %d needs %d, %d left",
				st.index, need, len(regs))
		}
		st.regs = regs[:need]
		regs = regs[need:]
		p.shards = append(p.shards, st)
	}
	if d.err != nil {
		return nil, fmt.Errorf("engine: window payload: %w", d.err)
	}
	if d.pos != len(d.data) {
		return nil, fmt.Errorf("engine: window payload has %d trailing bytes", len(d.data)-d.pos)
	}
	if len(regs) != 0 {
		return nil, fmt.Errorf("engine: window snapshot register section has %d trailing registers", len(regs))
	}
	return p, nil
}
