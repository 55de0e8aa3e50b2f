package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/bank"
	"repro/internal/snapcodec"
	"repro/internal/xrand"
)

// KindDistinct names the distinct-count (cardinality) engine.
const KindDistinct = "distinct"

// Distinct precision bounds: the register bank has m = 2^p registers per
// partition bucket. p ≥ 4 keeps the classical HLL bias constants valid
// (and the max rho of 64−p+1 within the 6-bit register width); p ≤ 16 caps
// one bank at 64 Ki registers.
const (
	MinDistinctPrecision = 4
	MaxDistinctPrecision = 16
)

// distinctRegWidth is the packed width of one HLL register in the snapshot
// register section: rho values are at most 64−p+1 ≤ 61, so 6 bits always
// fit, and the codec's width check bounds hostile payload registers for us.
const distinctRegWidth = 6

// distinctAlg is the canonical register algorithm a distinct snapshot
// header carries. HLL registers are exact rank-maxima, not randomized
// counters, so the engine pins its own exact/6-bit header instead of the
// configured counting algorithm — every distinct engine agrees on it, which
// is what CheckPeer's algorithm-equality test wants.
func distinctAlg() bank.Algorithm { return bank.NewExactAlg(distinctRegWidth) }

// distinctCore is the shared implementation behind both distinct engine
// flavors. DistinctEngine exposes it cumulatively (a single never-rotating
// bucket); DistinctWindowEngine adds the Windowed methods over a ring of B
// time buckets, exactly like WindowEngine's ring over the bank.
//
// Per partition shard, each bucket is an m = 2^p register HLL bank: a key
// hashes once (a seed-keyed 64-bit mix), the top p bits pick a register,
// and the register keeps the maximum rho (leading-zero rank + 1) of the
// remaining bits ever seen. Everything is a pure function of (seed, key) —
// the engine draws no randomness at all — so ApplyBatch, Merge, and replay
// are trivially deterministic, and the two joins coincide: the register-wise
// maximum IS the exact HLL union, for disjoint streams and replicas alike.
type distinctCore struct {
	n           int
	parts       int
	precision   int // p
	m           int // 1 << p registers per bucket
	seed        uint64
	seedMix     uint64 // splitmix-derived hash key
	windowed    bool
	buckets     int
	bucketNanos int64

	clock  atomic.Uint64
	shards []*distinctShard
	dirty  *dirtySet // changed blocks of the parts × B × m register layout
	alg    bank.Algorithm
}

// distinctShard is one partition's ring: B bucket banks of m registers over
// the key range [lo, hi). The ring invariant is WindowEngine's: slot j is
// live iff epochs[j]%B == j, and rotation zeroes before relabelling, so the
// serialized (epochs, registers) pair is canonical.
type distinctShard struct {
	mu     sync.Mutex
	lo, hi int
	cur    uint64
	epochs []uint64
	regs   []uint8 // B × m, bucket j at [j·m, (j+1)·m)
	// The shard's registers occupy [regBase, regBase + B·m) of the
	// whole-snapshot register layout (sections tile in shard order).
	regBase int
	ds      *dirtySet
}

// DistinctEngine is the cumulative distinct-count engine ("how many unique
// keys ever"). Estimate/EstimateAll/TopK answer per partition — a
// cardinality sketch has no per-key counts, so a key's "estimate" is its
// owning partition's unique count and TopK ranks partitions (each entry
// keyed by the partition's lowest key). RangeEstimate serves the scalar
// query surface directly.
type DistinctEngine struct{ *distinctCore }

// DistinctWindowEngine is the sliding-window flavor: a ring of B bucket
// banks per partition rotated by the store's logical clock, answering
// "how many uniques in the last w buckets" — the windowed union is a
// register-wise max over the trailing live buckets, which is the exact HLL
// merge, so windowed answers carry the same 1.04/√m error as cumulative
// ones.
type DistinctWindowEngine struct{ *distinctCore }

var (
	_ Engine               = (*DistinctEngine)(nil)
	_ RangeEstimator       = (*DistinctEngine)(nil)
	_ Windowed             = (*DistinctWindowEngine)(nil)
	_ WindowRangeEstimator = (*DistinctWindowEngine)(nil)
	_ PeerRegisterCapper   = (*DistinctEngine)(nil)
)

// NewDistinct builds a cumulative distinct engine: n keys striped into
// parts partition shards, each one HLL bank of 2^precision registers,
// hashed by a deterministic seed-keyed mix.
func NewDistinct(n, parts, precision int, seed uint64) (*DistinctEngine, error) {
	c, err := newDistinctCore(n, parts, precision, 1, false, 0, seed)
	if err != nil {
		return nil, err
	}
	return &DistinctEngine{c}, nil
}

// NewDistinctWindow builds the sliding-window flavor: per shard a ring of
// buckets banks rotated by the logical bucket clock (see Windowed).
// bucketNanos is the wall-clock bucket width carried as metadata.
func NewDistinctWindow(n, parts, precision, buckets int, bucketNanos int64, seed uint64) (*DistinctWindowEngine, error) {
	c, err := newDistinctCore(n, parts, precision, buckets, true, bucketNanos, seed)
	if err != nil {
		return nil, err
	}
	return &DistinctWindowEngine{c}, nil
}

func newDistinctCore(n, parts, precision, buckets int, windowed bool, bucketNanos int64, seed uint64) (*distinctCore, error) {
	if n <= 0 {
		return nil, errors.New("engine: non-positive key-space size")
	}
	if parts < 1 || parts > snapcodec.MaxPartitions {
		return nil, fmt.Errorf("engine: partition count %d out of [1, %d]", parts, snapcodec.MaxPartitions)
	}
	if parts > n {
		return nil, fmt.Errorf("engine: %d partitions exceed %d keys", parts, n)
	}
	if precision < MinDistinctPrecision || precision > MaxDistinctPrecision {
		return nil, fmt.Errorf("engine: distinct precision %d out of [%d, %d]",
			precision, MinDistinctPrecision, MaxDistinctPrecision)
	}
	if windowed {
		if buckets < 1 || buckets > MaxWindowBuckets {
			return nil, fmt.Errorf("engine: window bucket count %d out of [1, %d]", buckets, MaxWindowBuckets)
		}
	} else if buckets != 1 {
		return nil, fmt.Errorf("engine: cumulative distinct engine needs exactly 1 bucket, got %d", buckets)
	}
	if bucketNanos < 0 {
		return nil, fmt.Errorf("engine: negative bucket width %d", bucketNanos)
	}
	m := 1 << precision
	// The whole layout must stay serializable — same guard as the window
	// engine: finding out at the first checkpoint would brick the daemon.
	if int64(parts)*int64(buckets)*int64(m) > snapcodec.MaxRegisters {
		return nil, fmt.Errorf("engine: %d shards × %d buckets × %d registers exceeds %d snapshot registers",
			parts, buckets, m, snapcodec.MaxRegisters)
	}
	c := &distinctCore{
		n: n, parts: parts, precision: precision, m: m,
		seed: seed, seedMix: xrand.NewSplitMix64(seed).Uint64(),
		windowed: windowed, buckets: buckets, bucketNanos: bucketNanos,
		shards: make([]*distinctShard, parts),
		alg:    distinctAlg(),
	}
	c.dirty = newDirtySet(parts * buckets * m)
	for s := range c.shards {
		lo, hi := snapcodec.PartitionRange(n, parts, s)
		c.shards[s] = &distinctShard{
			lo: lo, hi: hi,
			epochs:  make([]uint64, buckets),
			regs:    make([]uint8, buckets*m),
			regBase: s * buckets * m,
			ds:      c.dirty,
		}
	}
	return c, nil
}

// DistinctFromSnapshot reconstructs a distinct engine (either flavor) from
// a whole engine snapshot.
func DistinctFromSnapshot(snap *snapcodec.Snapshot) (Engine, error) {
	if snap.Engine != KindDistinct {
		return nil, fmt.Errorf("engine: %q snapshot is not a distinct snapshot", snap.Engine)
	}
	if snap.IsPartition() {
		return nil, fmt.Errorf("engine: cannot restore a distinct engine from partition %d/%d",
			snap.Partition, snap.Parts)
	}
	alg, err := snap.Alg()
	if err != nil {
		return nil, err
	}
	if alg != distinctAlg() {
		return nil, fmt.Errorf("engine: distinct snapshot header carries %s/%d-bit, want exact/%d-bit",
			snap.AlgName, snap.Width, distinctRegWidth)
	}
	pl, err := parseDistinctPayload(snap, snap.N, snap.Shards)
	if err != nil {
		return nil, err
	}
	if len(pl.shards) != snap.Shards {
		return nil, fmt.Errorf("engine: whole distinct snapshot carries %d of %d shards",
			len(pl.shards), snap.Shards)
	}
	c, err := newDistinctCore(snap.N, snap.Shards, pl.precision, pl.buckets, pl.windowed, pl.bucketNanos, snap.Seed)
	if err != nil {
		return nil, err
	}
	for _, st := range pl.shards {
		sh := c.shards[st.index]
		copy(sh.epochs, st.epochs)
		sh.cur = maxLiveEpoch(st.epochs, pl.buckets)
		for i, v := range st.regs {
			sh.regs[i] = uint8(v)
		}
		if sh.cur > c.clock.Load() {
			c.clock.Store(sh.cur)
		}
	}
	// Conservatively mark everything restored; the store drains the set once
	// the recovered image is known durable.
	c.dirty.markRange(0, c.parts*c.buckets*c.m)
	if pl.windowed {
		return &DistinctWindowEngine{c}, nil
	}
	return &DistinctEngine{c}, nil
}

// hash mixes a key through the seed-keyed splitmix finalizer — the whole
// randomness budget of the engine, fixed at construction.
func (c *distinctCore) hash(key int) uint64 {
	x := uint64(key) ^ c.seedMix
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// cell splits a key's hash into its register index (top p bits) and rho
// (leading-zero rank of the remaining bits + 1, capped at 64−p+1).
func (c *distinctCore) cell(key int) (int, uint8) {
	h := c.hash(key)
	idx := int(h >> (64 - c.precision))
	rho := bits.LeadingZeros64(h<<c.precision) + 1
	if hi := 64 - c.precision + 1; rho > hi {
		rho = hi
	}
	return idx, uint8(rho)
}

// hllAlpha is the standard bias-correction constant for m registers.
func hllAlpha(m int) float64 {
	switch m {
	case 16:
		return 0.673
	case 32:
		return 0.697
	case 64:
		return 0.709
	}
	return 0.7213 / (1 + 1.079/float64(m))
}

// hllEstimate is the classical HLL estimator over one m-register bank,
// with the small-range (linear counting) correction.
func hllEstimate(regs []uint8, m int) float64 {
	sum := 0.0
	zeros := 0
	for _, v := range regs {
		sum += 1 / float64(uint64(1)<<v)
		if v == 0 {
			zeros++
		}
	}
	e := hllAlpha(m) * float64(m) * float64(m) / sum
	if e <= 2.5*float64(m) && zeros > 0 {
		e = float64(m) * math.Log(float64(m)/float64(zeros))
	}
	return e
}

// Kind implements Engine.
func (c *distinctCore) Kind() string { return KindDistinct }

// Len implements Engine.
func (c *distinctCore) Len() int { return c.n }

// Seed implements Engine.
func (c *distinctCore) Seed() uint64 { return c.seed }

// Shards implements Engine.
func (c *distinctCore) Shards() int { return c.parts }

// SizeBytes implements Engine: one byte per HLL register.
func (c *distinctCore) SizeBytes() int { return c.parts * c.buckets * c.m }

// Algorithm implements Engine: the pinned exact/6-bit header algorithm (see
// distinctAlg) — the configured counting algorithm does not apply to rank
// registers.
func (c *distinctCore) Algorithm() bank.Algorithm { return c.alg }

// AlignPartitions implements Engine: one HLL bank (ring) per partition.
func (c *distinctCore) AlignPartitions() int { return c.parts }

// Precision returns p: each partition bucket holds 2^p registers.
func (c *distinctCore) Precision() int { return c.precision }

// PeerRegisterCapper implements the decode-cap hint: the register layout is
// parts × B × m, unrelated to the key-space size — and the codec applies
// the same cap to the header's key-space field, hence the max.
func (c *distinctCore) PeerRegisterCap() int { return max(c.n, c.parts*c.buckets*c.m) }

func (c *distinctCore) shardOf(k int) *distinctShard {
	return c.shards[snapcodec.PartitionOf(k, c.n, c.parts)]
}

func (c *distinctCore) bumpClock(epoch uint64) {
	for {
		old := c.clock.Load()
		if epoch <= old || c.clock.CompareAndSwap(old, epoch) {
			return
		}
	}
}

// ApplyBatch implements Engine: keys group by shard and each shard folds
// its keys' (register, rho) cells into the current bucket under one lock
// acquisition. Order-independent and draw-free, so replay is exact by
// construction.
func (c *distinctCore) ApplyBatch(keys []int) {
	if len(keys) == 0 {
		return
	}
	if c.parts == 1 {
		c.shards[0].applyRun(c, keys)
		return
	}
	counts := make([]int, c.parts+1)
	for _, k := range keys {
		counts[snapcodec.PartitionOf(k, c.n, c.parts)+1]++
	}
	for s := 1; s <= c.parts; s++ {
		counts[s] += counts[s-1]
	}
	sorted := make([]int, len(keys))
	offsets := append([]int(nil), counts[:c.parts]...)
	for _, k := range keys {
		s := snapcodec.PartitionOf(k, c.n, c.parts)
		sorted[offsets[s]] = k
		offsets[s]++
	}
	for s := 0; s < c.parts; s++ {
		lo, hi := counts[s], counts[s+1]
		if lo == hi {
			continue
		}
		c.shards[s].applyRun(c, sorted[lo:hi])
	}
}

func (sh *distinctShard) applyRun(c *distinctCore, keys []int) {
	sh.mu.Lock()
	j := int(sh.cur % uint64(c.buckets))
	base := j * c.m
	for _, k := range keys {
		idx, rho := c.cell(k)
		if rho > sh.regs[base+idx] {
			sh.regs[base+idx] = rho
			sh.ds.mark(sh.regBase + base + idx)
		}
	}
	sh.mu.Unlock()
}

// estimateLocked returns the cardinality estimate of the trailing w live
// buckets: their register-wise maximum (the exact HLL union) fed through
// the estimator. Caller holds sh.mu.
func (c *distinctCore) estimateLocked(sh *distinctShard, w int) float64 {
	if c.buckets == 1 {
		return hllEstimate(sh.regs, c.m)
	}
	union := make([]uint8, c.m)
	b := uint64(c.buckets)
	for d := 0; d < w; d++ {
		if uint64(d) > sh.cur {
			continue
		}
		ep := sh.cur - uint64(d)
		j := int(ep % b)
		if sh.epochs[j] != ep {
			continue
		}
		bucket := sh.regs[j*c.m : (j+1)*c.m]
		for i, v := range bucket {
			if v > union[i] {
				union[i] = v
			}
		}
	}
	return hllEstimate(union, c.m)
}

// Estimate implements Engine. A cardinality sketch tracks no per-key
// counts; a key's estimate is its owning partition's unique count over the
// full window — the scalar the /distinct surface sums across partitions.
func (c *distinctCore) Estimate(key int) float64 {
	sh := c.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return c.estimateLocked(sh, c.buckets)
}

// EstimateAll implements Engine: every key reports its owning partition's
// cardinality (computed once per shard).
func (c *distinctCore) EstimateAll() []float64 {
	out, _ := c.estimateAllWindow(c.buckets)
	return out
}

func (c *distinctCore) estimateAllWindow(w int) ([]float64, error) {
	out := make([]float64, c.n)
	for _, sh := range c.shards {
		sh.mu.Lock()
		est := c.estimateLocked(sh, w)
		sh.mu.Unlock()
		for k := sh.lo; k < sh.hi; k++ {
			out[k] = est
		}
	}
	return out, nil
}

// checkAligned validates that [lo, hi) tiles exactly onto engine shards and
// returns their index range [s0, s1).
func (c *distinctCore) checkAligned(lo, hi int) (int, int, error) {
	if lo < 0 || hi > c.n || lo >= hi {
		return 0, 0, fmt.Errorf("engine: key range [%d, %d) outside [0, %d)", lo, hi, c.n)
	}
	s0 := snapcodec.PartitionOf(lo, c.n, c.parts)
	s1 := snapcodec.PartitionOf(hi-1, c.n, c.parts) + 1
	if c.shards[s0].lo != lo || c.shards[s1-1].hi != hi {
		return 0, 0, fmt.Errorf("engine: key range [%d, %d) not aligned to the %d-way partition split",
			lo, hi, c.parts)
	}
	return s0, s1, nil
}

// TopK implements Engine: partitions ranked by unique count, each entry
// keyed by its partition's lowest key — "which key ranges hold the most
// uniques", the only ranking a cardinality sketch can answer.
func (c *distinctCore) TopK(k, lo, hi int) ([]Entry, error) {
	return c.topKWindow(k, lo, hi, c.buckets)
}

func (c *distinctCore) topKWindow(k, lo, hi, w int) ([]Entry, error) {
	s0, s1, err := c.checkAligned(lo, hi)
	if err != nil {
		return nil, err
	}
	if k <= 0 {
		return []Entry{}, nil
	}
	if k > s1-s0 {
		k = s1 - s0
	}
	out := make([]Entry, 0, k+1)
	for s := s0; s < s1; s++ {
		sh := c.shards[s]
		sh.mu.Lock()
		est := c.estimateLocked(sh, w)
		sh.mu.Unlock()
		if est > 0 {
			out = topkPush(out, k, sh.lo, est)
		}
	}
	return out, nil
}

// RangeEstimate implements RangeEstimator: the estimated unique count of
// keys [lo, hi) over the full window. Partitions tile disjoint key ranges,
// so cardinalities are additive across shards — and across the cluster.
func (c *distinctCore) RangeEstimate(lo, hi int) (float64, error) {
	return c.rangeEstimateWindow(lo, hi, c.buckets)
}

func (c *distinctCore) rangeEstimateWindow(lo, hi, w int) (float64, error) {
	s0, s1, err := c.checkAligned(lo, hi)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for s := s0; s < s1; s++ {
		sh := c.shards[s]
		sh.mu.Lock()
		total += c.estimateLocked(sh, w)
		sh.mu.Unlock()
	}
	return total, nil
}

// HashRange implements Engine: an FNV-1a fold of each covered shard's
// (epochs, registers) exactly as a partition snapshot serializes them.
func (c *distinctCore) HashRange(lo, hi int) (uint64, error) {
	s0, s1, err := c.checkAligned(lo, hi)
	if err != nil {
		return 0, err
	}
	h := newFNV()
	for s := s0; s < s1; s++ {
		sh := c.shards[s]
		sh.mu.Lock()
		for _, ep := range sh.epochs {
			h.word(ep)
		}
		for _, v := range sh.regs {
			h.word(uint64(v))
		}
		sh.mu.Unlock()
	}
	return h.sum(), nil
}

// Snapshot implements Engine: ring metadata in the engine payload, every
// bucket's registers in the version-4 register section (block-packed at 6
// bits). The engine has no generator state, so withState changes nothing —
// a checkpoint and a plain whole snapshot are byte-identical.
func (c *distinctCore) Snapshot(part, parts int, withState bool) (*snapcodec.Snapshot, error) {
	snap := &snapcodec.Snapshot{
		N:      c.n,
		Shards: c.parts,
		Seed:   c.seed,
		Engine: KindDistinct,
	}
	if err := snap.SetAlg(c.alg); err != nil {
		return nil, err
	}
	s0, s1 := 0, c.parts
	if parts != 0 {
		if withState {
			return nil, errors.New("engine: partition snapshots cannot carry generator state")
		}
		if parts != c.parts {
			return nil, fmt.Errorf("engine: %d-way snapshot of a %d-way distinct engine", parts, c.parts)
		}
		if part < 0 || part >= parts {
			return nil, fmt.Errorf("engine: partition %d out of [0, %d)", part, parts)
		}
		snap.Partition = part
		snap.Parts = parts
		s0, s1 = part, part+1
	}
	pl := distinctPayload{
		precision: c.precision, windowed: c.windowed,
		buckets: c.buckets, bucketNanos: c.bucketNanos,
	}
	regs := make([]uint64, 0, (s1-s0)*c.buckets*c.m)
	for s := s0; s < s1; s++ {
		sh := c.shards[s]
		sh.mu.Lock()
		st := distinctShardState{index: s, epochs: append([]uint64(nil), sh.epochs...)}
		for _, v := range sh.regs {
			regs = append(regs, uint64(v))
		}
		sh.mu.Unlock()
		pl.shards = append(pl.shards, st)
	}
	snap.Payload = pl.encode()
	snap.Registers = regs
	return snap, nil
}

// CheckPeer implements Engine: kind, header algorithm, hash seed, shape,
// and sketch-shape equality plus a full payload parse, so a checked
// snapshot's Merge/MergeMax cannot fail after the store WAL-stages it.
// Unlike counter engines, distinct requires seed equality: the registers
// live in the seed-keyed hash universe, and maxing banks from different
// universes is meaningless, for replicas and disjoint sites alike.
func (c *distinctCore) CheckPeer(snap *snapcodec.Snapshot, disjoint bool) error {
	if snap.Engine != KindDistinct {
		kind := snap.Engine
		if kind == "" {
			kind = KindBank
		}
		return fmt.Errorf("engine kind mismatch: peer %q, local %q", kind, KindDistinct)
	}
	alg, err := snap.Alg()
	if err != nil {
		return err
	}
	if alg != c.alg {
		return fmt.Errorf("algorithm mismatch: peer %s/%d-bit, local %s/%d-bit",
			snap.AlgName, snap.Width, c.alg.Name(), c.alg.Width())
	}
	if snap.Seed != c.seed {
		return fmt.Errorf("hash seed mismatch: peer %d, local %d (distinct banks only join within one seed universe)",
			snap.Seed, c.seed)
	}
	if snap.N != c.n || snap.Shards != c.parts {
		return fmt.Errorf("shape mismatch: peer %d keys/%d shards, local %d/%d",
			snap.N, snap.Shards, c.n, c.parts)
	}
	if snap.IsPartition() && snap.Parts != c.parts {
		return fmt.Errorf("partition split mismatch: peer %d-way, local %d-way", snap.Parts, c.parts)
	}
	pl, err := parseDistinctPayload(snap, c.n, c.parts)
	if err != nil {
		return err
	}
	if pl.precision != c.precision {
		return fmt.Errorf("distinct precision mismatch: peer 2^%d registers, local 2^%d", pl.precision, c.precision)
	}
	if pl.windowed != c.windowed {
		return fmt.Errorf("window mismatch: peer windowed=%v, local windowed=%v", pl.windowed, c.windowed)
	}
	if pl.buckets != c.buckets {
		return fmt.Errorf("window ring mismatch: peer %d buckets, local %d", pl.buckets, c.buckets)
	}
	if pl.bucketNanos != c.bucketNanos {
		return fmt.Errorf("bucket width mismatch: peer %dns, local %dns", pl.bucketNanos, c.bucketNanos)
	}
	if snap.IsPartition() {
		if len(pl.shards) != 1 || pl.shards[0].index != snap.Partition {
			return fmt.Errorf("partition %d snapshot carries the wrong shard set", snap.Partition)
		}
	}
	return nil
}

// Merge implements Engine. The register-wise maximum is the exact HLL
// union — for disjoint streams AND replicas of the same stream — so both
// joins are the same epoch-aligned max, draw-free and idempotent.
func (c *distinctCore) Merge(snap *snapcodec.Snapshot) error { return c.maxJoin(snap) }

// MergeMax implements Engine (see Merge: the joins coincide).
func (c *distinctCore) MergeMax(snap *snapcodec.Snapshot) error { return c.maxJoin(snap) }

func (c *distinctCore) maxJoin(snap *snapcodec.Snapshot) error {
	pl, err := parseDistinctPayload(snap, c.n, c.parts)
	if err != nil {
		return err
	}
	if pl.precision != c.precision || pl.buckets != c.buckets {
		return fmt.Errorf("engine: distinct shape mismatch: peer 2^%d×%d, local 2^%d×%d",
			pl.precision, pl.buckets, c.precision, c.buckets)
	}
	b := uint64(c.buckets)
	for _, st := range pl.shards {
		sh := c.shards[st.index]
		sh.mu.Lock()
		// Advance to the union clock first (windowed rings only); every live
		// peer bucket then matches a local slot epoch or is expired.
		newCur := sh.cur
		for j, pe := range st.epochs {
			if pe%b == uint64(j) && pe > newCur {
				newCur = pe
			}
		}
		sh.advanceLocked(c, newCur)
		for j, pe := range st.epochs {
			if pe%b != uint64(j) || pe > sh.cur || pe+b <= sh.cur || sh.epochs[j] != pe {
				continue
			}
			pregs := st.regs[j*c.m : (j+1)*c.m]
			base := j * c.m
			for i, pv := range pregs {
				if v := uint8(pv); v > sh.regs[base+i] {
					sh.regs[base+i] = v
					sh.ds.mark(sh.regBase + base + i)
				}
			}
		}
		cur := sh.cur
		sh.mu.Unlock()
		c.bumpClock(cur)
	}
	return nil
}

// advanceLocked rotates the shard's ring to epoch e — WindowEngine's
// rotation over register-bank buckets, here over m-register HLL banks.
// Caller holds sh.mu.
func (sh *distinctShard) advanceLocked(c *distinctCore, e uint64) {
	if e <= sh.cur {
		return
	}
	b := c.buckets
	if e-sh.cur >= uint64(b) {
		r := e % uint64(b)
		for j := range sh.epochs {
			diff := (r + uint64(b) - uint64(j)) % uint64(b)
			sh.epochs[j] = e - diff
			sh.zeroBucket(c, j)
		}
	} else {
		for ee := sh.cur + 1; ee <= e; ee++ {
			j := int(ee % uint64(b))
			sh.epochs[j] = ee
			sh.zeroBucket(c, j)
		}
	}
	sh.cur = e
}

func (sh *distinctShard) zeroBucket(c *distinctCore, j int) {
	bucket := sh.regs[j*c.m : (j+1)*c.m]
	for _, v := range bucket {
		if v != 0 {
			sh.ds.markRange(sh.regBase+j*c.m, sh.regBase+(j+1)*c.m)
			clear(bucket)
			return
		}
	}
}

// ResetRange implements Engine: zeroes every bucket's registers of the
// covered shards — the rebalance evict. Ring structure (epochs, clock) is
// preserved; no randomness, so replay is exact.
func (c *distinctCore) ResetRange(lo, hi int) error {
	s0, s1, err := c.checkAligned(lo, hi)
	if err != nil {
		return err
	}
	for s := s0; s < s1; s++ {
		sh := c.shards[s]
		sh.mu.Lock()
		for i, v := range sh.regs {
			if v != 0 {
				sh.regs[i] = 0
				sh.ds.mark(sh.regBase + i)
			}
		}
		sh.mu.Unlock()
	}
	return nil
}

// TakeDirty implements Engine over the parts × B × m register layout.
func (c *distinctCore) TakeDirty() ([]uint32, bool) { return c.dirty.take(), true }

// MarkDirty implements Engine.
func (c *distinctCore) MarkDirty(blocks []uint32) { c.dirty.rearm(blocks) }

// DirtyCount implements Engine.
func (c *distinctCore) DirtyCount() int { return c.dirty.count() }

// BlockHashes implements Engine: per-block fingerprints of the register
// section a partition (or whole) snapshot would carry — bucket banks in
// slot order, register order within a bank.
func (c *distinctCore) BlockHashes(part, parts int) ([]uint64, error) {
	s0, s1 := 0, c.parts
	if parts != 0 {
		if parts != c.parts {
			return nil, fmt.Errorf("engine: %d-way block hashes of a %d-way distinct engine", parts, c.parts)
		}
		if part < 0 || part >= parts {
			return nil, fmt.Errorf("engine: partition %d out of [0, %d)", part, parts)
		}
		s0, s1 = part, part+1
	}
	regs := make([]uint64, 0, (s1-s0)*c.buckets*c.m)
	for s := s0; s < s1; s++ {
		sh := c.shards[s]
		sh.mu.Lock()
		for _, v := range sh.regs {
			regs = append(regs, uint64(v))
		}
		sh.mu.Unlock()
	}
	return blockHashes(snapcodec.RegisterSlice(regs)), nil
}

// --- Windowed methods (DistinctWindowEngine only) ------------------------

// Advance implements Windowed.
func (e *DistinctWindowEngine) Advance(epoch uint64) {
	for _, sh := range e.shards {
		sh.mu.Lock()
		sh.advanceLocked(e.distinctCore, epoch)
		sh.mu.Unlock()
	}
	e.bumpClock(epoch)
}

// Epoch implements Windowed.
func (e *DistinctWindowEngine) Epoch() uint64 { return e.clock.Load() }

// WindowBuckets implements Windowed.
func (e *DistinctWindowEngine) WindowBuckets() int { return e.buckets }

// BucketNanos implements Windowed.
func (e *DistinctWindowEngine) BucketNanos() int64 { return e.bucketNanos }

// ApplyBatchEpoch implements Windowed: keys land in the bucket still
// labelled with epoch, or age out exactly like the local writes they
// mirror (the epoch-tagged hint-drain contract).
func (e *DistinctWindowEngine) ApplyBatchEpoch(keys []int, epoch uint64) int {
	c := e.distinctCore
	if len(keys) == 0 {
		return 0
	}
	applied := 0
	if c.parts == 1 {
		return c.shards[0].applyRunAt(c, keys, epoch)
	}
	counts := make([]int, c.parts+1)
	for _, k := range keys {
		counts[snapcodec.PartitionOf(k, c.n, c.parts)+1]++
	}
	for s := 1; s <= c.parts; s++ {
		counts[s] += counts[s-1]
	}
	sorted := make([]int, len(keys))
	offsets := append([]int(nil), counts[:c.parts]...)
	for _, k := range keys {
		s := snapcodec.PartitionOf(k, c.n, c.parts)
		sorted[offsets[s]] = k
		offsets[s]++
	}
	for s := 0; s < c.parts; s++ {
		lo, hi := counts[s], counts[s+1]
		if lo == hi {
			continue
		}
		applied += c.shards[s].applyRunAt(c, sorted[lo:hi], epoch)
	}
	return applied
}

func (sh *distinctShard) applyRunAt(c *distinctCore, keys []int, epoch uint64) int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	j := int(epoch % uint64(c.buckets))
	if sh.epochs[j] != epoch {
		return 0
	}
	base := j * c.m
	for _, k := range keys {
		idx, rho := c.cell(k)
		if rho > sh.regs[base+idx] {
			sh.regs[base+idx] = rho
			sh.ds.mark(sh.regBase + base + idx)
		}
	}
	return len(keys)
}

func (e *DistinctWindowEngine) checkWindow(w int) error {
	if w < 1 || w > e.buckets {
		return fmt.Errorf("engine: window of %d buckets out of [1, %d]", w, e.buckets)
	}
	return nil
}

// EstimateWindow implements Windowed: the owning partition's unique count
// over the trailing w buckets.
func (e *DistinctWindowEngine) EstimateWindow(key, w int) (float64, error) {
	if err := e.checkWindow(w); err != nil {
		return 0, err
	}
	if key < 0 || key >= e.n {
		return 0, fmt.Errorf("engine: key %d out of range [0,%d)", key, e.n)
	}
	sh := e.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return e.estimateLocked(sh, w), nil
}

// EstimateAllWindow implements Windowed.
func (e *DistinctWindowEngine) EstimateAllWindow(w int) ([]float64, error) {
	if err := e.checkWindow(w); err != nil {
		return nil, err
	}
	return e.estimateAllWindow(w)
}

// TopKWindow implements Windowed: partitions ranked by windowed uniques.
func (e *DistinctWindowEngine) TopKWindow(k, lo, hi, w int) ([]Entry, error) {
	if err := e.checkWindow(w); err != nil {
		return nil, err
	}
	return e.topKWindow(k, lo, hi, w)
}

// RangeEstimateWindow implements WindowRangeEstimator: uniques of [lo, hi)
// over the trailing w buckets.
func (e *DistinctWindowEngine) RangeEstimateWindow(lo, hi, w int) (float64, error) {
	if err := e.checkWindow(w); err != nil {
		return 0, err
	}
	return e.rangeEstimateWindow(lo, hi, w)
}

// --- payload codec ------------------------------------------------------

// distinctPayload is the engine-payload encoding of the sketch shape and
// ring metadata:
//
//	version (1) | flags (bit 0: windowed) | uvarint precision p |
//	uvarint buckets B | uvarint bucketNanos | uvarint shardCount | shards…
//
// and each shard, in ascending index order:
//
//	uvarint index | B × uvarint slot epoch
//
// The registers ride the snapshot's version-4 engine register section: for
// each payload shard, B buckets of 2^p registers, slot order, register
// order within a bucket. Cumulative engines (windowed flag clear) must
// carry exactly one bucket whose epoch is 0.
type distinctPayload struct {
	precision   int
	windowed    bool
	buckets     int
	bucketNanos int64
	shards      []distinctShardState
}

type distinctShardState struct {
	index  int
	epochs []uint64
	regs   []uint64 // B × m, sliced out of Snapshot.Registers on parse
}

const distinctPayloadVersion = 1

func (p *distinctPayload) encode() []byte {
	var buf []byte
	buf = append(buf, distinctPayloadVersion)
	var flags byte
	if p.windowed {
		flags = 1
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(p.precision))
	buf = binary.AppendUvarint(buf, uint64(p.buckets))
	buf = binary.AppendUvarint(buf, uint64(p.bucketNanos))
	buf = binary.AppendUvarint(buf, uint64(len(p.shards)))
	for _, st := range p.shards {
		buf = binary.AppendUvarint(buf, uint64(st.index))
		for _, ep := range st.epochs {
			buf = binary.AppendUvarint(buf, ep)
		}
	}
	return buf
}

// parseDistinctPayload decodes and fully validates a distinct snapshot's
// payload and register section against an (n keys, parts shards) shape:
// precision and ring bounds, shard indices ascending and in range, slot
// epochs congruent to their ring index (or zero), rho values within the
// precision's cap, and the register section exactly tiling the covered
// shards.
func parseDistinctPayload(snap *snapcodec.Snapshot, n, parts int) (*distinctPayload, error) {
	d := &payloadReader{data: snap.Payload}
	if v := d.byte(); v != distinctPayloadVersion {
		return nil, fmt.Errorf("engine: distinct payload version %d unsupported", v)
	}
	flags := d.byte()
	if flags&^byte(1) != 0 {
		return nil, fmt.Errorf("engine: distinct payload has unknown flags %#02x", flags)
	}
	p := &distinctPayload{windowed: flags&1 != 0}
	p.precision = int(d.uvarint())
	if p.precision < MinDistinctPrecision || p.precision > MaxDistinctPrecision {
		return nil, fmt.Errorf("engine: distinct payload precision %d out of [%d, %d]",
			p.precision, MinDistinctPrecision, MaxDistinctPrecision)
	}
	m := 1 << p.precision
	maxRho := uint64(64 - p.precision + 1)
	p.buckets = int(d.uvarint())
	if p.windowed {
		if p.buckets < 1 || p.buckets > MaxWindowBuckets {
			return nil, fmt.Errorf("engine: distinct payload bucket count %d out of [1, %d]", p.buckets, MaxWindowBuckets)
		}
	} else if p.buckets != 1 {
		return nil, fmt.Errorf("engine: cumulative distinct payload carries %d buckets", p.buckets)
	}
	bn := d.uvarint()
	if bn > 1<<62 {
		return nil, fmt.Errorf("engine: distinct payload bucket width %d overflows", bn)
	}
	p.bucketNanos = int64(bn)
	if !p.windowed && p.bucketNanos != 0 {
		return nil, fmt.Errorf("engine: cumulative distinct payload carries bucket width %d", p.bucketNanos)
	}
	count := int(d.uvarint())
	if count < 0 || count > parts {
		return nil, fmt.Errorf("engine: distinct payload has %d shards for a %d-way engine", count, parts)
	}
	b := uint64(p.buckets)
	regs := snap.Registers
	prev := -1
	for i := 0; i < count; i++ {
		st := distinctShardState{index: int(d.uvarint())}
		if st.index <= prev || st.index >= parts {
			return nil, fmt.Errorf("engine: distinct payload shard index %d invalid (prev %d, parts %d)",
				st.index, prev, parts)
		}
		prev = st.index
		st.epochs = make([]uint64, p.buckets)
		for j := range st.epochs {
			ep := d.uvarint()
			if ep%b != uint64(j) && ep != 0 {
				return nil, fmt.Errorf("engine: shard %d slot %d epoch %d not congruent to its ring index",
					st.index, j, ep)
			}
			if !p.windowed && ep != 0 {
				return nil, fmt.Errorf("engine: cumulative distinct shard %d carries epoch %d", st.index, ep)
			}
			st.epochs[j] = ep
		}
		if d.err != nil {
			return nil, fmt.Errorf("engine: distinct payload: %w", d.err)
		}
		need := p.buckets * m
		if len(regs) < need {
			return nil, fmt.Errorf("engine: distinct snapshot register section short: shard %d needs %d, %d left",
				st.index, need, len(regs))
		}
		st.regs = regs[:need]
		regs = regs[need:]
		for _, v := range st.regs {
			if v > maxRho {
				return nil, fmt.Errorf("engine: shard %d register value %d exceeds max rho %d for precision %d",
					st.index, v, maxRho, p.precision)
			}
		}
		p.shards = append(p.shards, st)
	}
	if d.err != nil {
		return nil, fmt.Errorf("engine: distinct payload: %w", d.err)
	}
	if d.pos != len(d.data) {
		return nil, fmt.Errorf("engine: distinct payload has %d trailing bytes", len(d.data)-d.pos)
	}
	if len(regs) != 0 {
		return nil, fmt.Errorf("engine: distinct snapshot register section has %d trailing registers", len(regs))
	}
	return p, nil
}
