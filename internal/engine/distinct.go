package engine

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

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

// distinctCore is the shared surface of both distinct engine flavors: the
// bucket ring (see ring) over HLL cells, plus the scalar query.
// DistinctEngine is the cumulative ring (a single never-rotating bucket);
// DistinctWindowEngine adds the Windowed methods over B time buckets.
//
// Per partition shard, each bucket is an m = 2^p register HLL bank: a key
// hashes once (a seed-keyed 64-bit mix), the top p bits pick a register,
// and the register keeps the maximum rho (leading-zero rank + 1) of the
// remaining bits ever seen. Everything is a pure function of (seed, key) —
// the engine draws no randomness at all — so ApplyBatch, Merge, and replay
// are trivially deterministic, and the two joins coincide: the register-wise
// maximum IS the exact HLL union, for disjoint streams and replicas alike.
//
// A cardinality sketch tracks no per-key counts: a key's Estimate is its
// owning partition's unique count — the scalar the /v1/distinct surface sums
// across partitions — and TopK ranks partitions (each entry keyed by the
// partition's lowest key), "which key ranges hold the most uniques".
type distinctCore struct {
	*ring
	hll *hllType
}

// DistinctEngine is the cumulative distinct-count engine ("how many unique
// keys ever").
type DistinctEngine struct{ distinctCore }

// DistinctWindowEngine is the sliding-window flavor: a ring of B bucket
// banks per partition rotated by the store's logical clock, answering
// "how many uniques in the last w buckets" — the windowed union is a
// register-wise max over the trailing live buckets, which is the exact HLL
// merge, so windowed answers carry the same 1.04/√m error as cumulative
// ones.
type DistinctWindowEngine struct {
	distinctCore
	ringWindow
}

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
	return &DistinctWindowEngine{c, ringWindow{c.ring}}, nil
}

func newDistinctCore(n, parts, precision, buckets int, windowed bool, bucketNanos int64, seed uint64) (distinctCore, error) {
	t, err := newHLLType(precision)
	if err != nil {
		return distinctCore{}, err
	}
	r, err := newRing(t, n, parts, buckets, windowed, bucketNanos, seed)
	if err != nil {
		return distinctCore{}, err
	}
	return distinctCore{r.fill(), t}, nil
}

// DistinctFromSnapshot reconstructs a distinct engine (either flavor) from
// a whole engine snapshot.
func DistinctFromSnapshot(snap *snapcodec.Snapshot) (Engine, error) {
	r, err := ringFromSnapshot(snap, &hllType{})
	if err != nil {
		return nil, err
	}
	c := distinctCore{r, r.ct.(*hllType)}
	if r.windowed {
		return &DistinctWindowEngine{c, ringWindow{r}}, nil
	}
	return &DistinctEngine{c}, nil
}

// Precision returns p: each partition bucket holds 2^p registers.
func (c distinctCore) Precision() int { return c.hll.precision }

// RangeEstimate implements RangeEstimator: the estimated unique count of
// keys [lo, hi) over the full window. Partitions tile disjoint key ranges,
// so cardinalities are additive across shards — and across the cluster.
func (c distinctCore) RangeEstimate(lo, hi int) (float64, error) {
	return c.rangeEstimate(lo, hi, c.buckets)
}

// RangeEstimateWindow implements WindowRangeEstimator: uniques of [lo, hi)
// over the trailing w buckets.
func (e *DistinctWindowEngine) RangeEstimateWindow(lo, hi, w int) (float64, error) {
	return e.rangeEstimate(lo, hi, w)
}

// hllType is the HLL cell type: a bucket is m = 2^p one-byte rank
// registers.
type hllType struct {
	precision int    // p
	m         int    // 1 << p
	hashSeed  uint64 // the engine seed: banks only join within one hash universe
	seedMix   uint64 // splitmix-derived hash key
}

func newHLLType(precision int) (*hllType, error) {
	if precision < MinDistinctPrecision || precision > MaxDistinctPrecision {
		return nil, fmt.Errorf("engine: distinct precision %d out of [%d, %d]",
			precision, MinDistinctPrecision, MaxDistinctPrecision)
	}
	return &hllType{precision: precision, m: 1 << precision}, nil
}

func (t *hllType) kind() string        { return KindDistinct }
func (t *hllType) alg() bank.Algorithm { return distinctAlg() }

func (t *hllType) seed(seed uint64, _ int) {
	t.hashSeed, t.seedMix = seed, xrand.NewSplitMix64(seed).Uint64()
}

func (t *hllType) bucketRegs(int) int            { return t.m }
func (t *hllType) shardBytes(_, buckets int) int { return buckets * t.m }

// appendShape: flag bit 0 is "windowed"; the shape prefix is the precision.
func (t *hllType) appendShape(buf []byte, windowed, _ bool) []byte {
	return binary.AppendUvarint(appendFlag(buf, windowed), uint64(t.precision))
}

func (t *hllType) parseShape(d *payloadReader) (cellType, bool, bool, error) {
	windowed, err := readFlag(d, KindDistinct)
	if err != nil {
		return nil, false, false, err
	}
	peer, err := newHLLType(int(d.uvarint()))
	return peer, windowed, false, err
}

// checkPeer: unlike counter engines, distinct requires seed equality — the
// registers live in the seed-keyed hash universe, and maxing banks from
// different universes is meaningless, for replicas and disjoint sites alike.
func (t *hllType) checkPeer(snap *snapcodec.Snapshot, peer cellType, _ bool) error {
	if snap.Seed != t.hashSeed {
		return fmt.Errorf("hash seed mismatch: peer %d, local %d (distinct banks only join within one seed universe)",
			snap.Seed, t.hashSeed)
	}
	if p := peer.(*hllType).precision; p != t.precision {
		return fmt.Errorf("distinct precision mismatch: peer 2^%d registers, local 2^%d", p, t.precision)
	}
	return nil
}

func (t *hllType) newCells(sh *ringShard, layout regSpan) cells {
	return &hllCells{t: t, lo: sh.lo, span: sh.hi - sh.lo, layout: layout,
		regs: make([]uint8, len(sh.epochs)*t.m)}
}

// cell splits a key's hash — the seed-keyed splitmix finalizer, the whole
// randomness budget of the engine — into its register index (top p bits)
// and rho (leading-zero rank of the remaining bits + 1, capped at 64−p+1).
func (t *hllType) cell(key int) (int, uint8) {
	x := uint64(key) ^ t.seedMix
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	idx := int(x >> (64 - t.precision))
	rho := bits.LeadingZeros64(x<<t.precision) + 1
	return idx, uint8(min(rho, 64-t.precision+1))
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
func hllEstimate(regs []uint8) float64 {
	m := float64(len(regs))
	sum := 0.0
	zeros := 0
	for _, v := range regs {
		sum += 1 / float64(uint64(1)<<v)
		if v == 0 {
			zeros++
		}
	}
	e := hllAlpha(len(regs)) * m * m / sum
	if e <= 2.5*m && zeros > 0 {
		e = m * math.Log(m/float64(zeros))
	}
	return e
}

// hllCells is one shard's B HLL banks: bucket j at regs[j·m, (j+1)·m), and
// at the same offsets of the shard's section of the register layout.
type hllCells struct {
	t        *hllType
	lo, span int
	layout   regSpan
	regs     []uint8
}

func (c *hllCells) bucket(j int) []uint8 { return c.regs[j*c.t.m : (j+1)*c.t.m] }

// apply is order-independent and draw-free, so replay is exact by
// construction.
func (c *hllCells) apply(j int, keys []int) {
	base := j * c.t.m
	for _, k := range keys {
		idx, rho := c.t.cell(k)
		if rho > c.regs[base+idx] {
			c.regs[base+idx] = rho
			c.layout.mark(base + idx)
		}
	}
}

func (c *hllCells) zero(j int) {
	bucket := c.bucket(j)
	for _, v := range bucket {
		if v != 0 {
			c.layout.markRange(j*c.t.m, (j+1)*c.t.m)
			clear(bucket)
			return
		}
	}
}

func (c *hllCells) reset() {
	for i, v := range c.regs {
		if v != 0 {
			c.regs[i] = 0
			c.layout.mark(i)
		}
	}
}

// join is the register-wise maximum either way: the exact HLL union, for
// disjoint streams and replicas alike.
func (c *hllCells) join(j int, peer any, _ bool) {
	base := j * c.t.m
	for i, pv := range peer.([]uint64)[base : base+c.t.m] {
		if v := uint8(pv); v > c.regs[base+i] {
			c.regs[base+i] = v
			c.layout.mark(base + i)
		}
	}
}

// scan reports the shard's cardinality over the live slots: their
// register-wise maximum (the exact HLL union) fed through the estimator.
func (c *hllCells) scan(slots []int, _, _ int, visit func(key, n int, v float64) float64) {
	union := c.bucket(slots[0])
	if len(slots) > 1 {
		union = append([]uint8(nil), union...)
		for _, j := range slots[1:] {
			for i, v := range c.bucket(j) {
				union[i] = max(union[i], v)
			}
		}
	}
	visit(c.lo, c.span, hllEstimate(union))
}

func (c *hllCells) hash(h *fnv1a64) {
	for _, v := range c.regs {
		h.word(uint64(v))
	}
}

// emit: no cell bytes — the registers ride the register section (block-
// packed at 6 bits), slot order, register order within a bucket. There is no
// generator state, so a checkpoint and a plain whole snapshot are
// byte-identical.
func (c *hllCells) emit(payload []byte, regs []uint64, _ bool) ([]byte, []uint64) {
	for _, v := range c.regs {
		regs = append(regs, uint64(v))
	}
	return payload, regs
}

// decode: a peer shard is its registers, each within the precision's rho
// cap.
func (t *hllType) decode(_ *payloadReader, regs []uint64, _ int, _ bool) (any, error) {
	maxRho := uint64(64 - t.precision + 1)
	for _, v := range regs {
		if v > maxRho {
			return nil, fmt.Errorf("register value %d exceeds max rho %d for precision %d", v, maxRho, t.precision)
		}
	}
	return regs, nil
}

func (c *hllCells) load(peer any) {
	for i, v := range peer.([]uint64) {
		c.regs[i] = uint8(v)
	}
}
