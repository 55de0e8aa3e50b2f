package engine

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bank"
	"repro/internal/bitpack"
	"repro/internal/snapcodec"
	"repro/internal/xrand"
)

// KindWindow names the sliding-window engine.
const KindWindow = "window"

// WindowEngine answers "how many in the last N minutes" with the same
// register vocabulary the bank uses for "how many ever": the bucket ring
// (see ring) over register-bank cells — per partition, B time buckets of one
// packed register per key. An increment steps the key's register in the
// current bucket; a windowed query combines the trailing w live buckets —
// via the paper's Remark 2.4 register merge when the algorithm supports it
// (Morris), falling back to summing the per-bucket estimates (exact,
// Csűrös) — and an expired bucket simply rotates out of the ring, which is
// how old traffic is forgotten.
//
// Query-time register folds draw from a throwaway generator derived from
// (seed, key, clock) — never from the replay streams — so reads cannot
// perturb replay.
//
// Merge (disjoint streams, e.g. two sites) Remark 2.4-folds epoch-aligned
// buckets register by register; MergeMax (replicas of the same stream)
// takes the register-wise max — idempotent, so cluster replication, hinted
// handoff, and hash-gated anti-entropy work unchanged.
type WindowEngine struct {
	*ring
	ringWindow
}

var (
	_ Windowed           = (*WindowEngine)(nil)
	_ PeerRegisterCapper = (*WindowEngine)(nil)
)

// NewWindow builds a fresh sliding-window engine: n keys striped into parts
// partition shards, each a ring of buckets packed register banks stepped by
// alg, with per-shard generator streams derived deterministically from seed
// (the same SplitMix derivation the bank and top-k engines use).
// bucketNanos is the wall-clock bucket width carried as metadata.
func NewWindow(n int, alg bank.Algorithm, parts, buckets int, bucketNanos int64, seed uint64) (*WindowEngine, error) {
	r, err := newRing(newWindowType(alg), n, parts, buckets, true, bucketNanos, seed)
	if err != nil {
		return nil, err
	}
	return &WindowEngine{r.fill(), ringWindow{r}}, nil
}

// WindowFromSnapshot reconstructs a window engine from a (whole) engine
// snapshot, restoring every shard's bucket epochs and registers and, when
// the payload carries them, the per-shard generator states.
func WindowFromSnapshot(snap *snapcodec.Snapshot) (*WindowEngine, error) {
	alg, err := snap.Alg()
	if err != nil {
		return nil, err
	}
	r, err := ringFromSnapshot(snap, newWindowType(alg))
	if err != nil {
		return nil, err
	}
	return &WindowEngine{r, ringWindow{r}}, nil
}

// windowType is the register-bank cell type: a bucket is one packed
// register per key of the shard, stepped by alg from the shard's generator
// stream.
type windowType struct {
	a          bank.Algorithm
	ma         bank.MergeAlgorithm // nil when the algorithm has no Remark 2.4 merge
	rngSeed    uint64
	shardSeeds []uint64
}

func newWindowType(alg bank.Algorithm) *windowType {
	t := &windowType{a: alg}
	t.ma, _ = alg.(bank.MergeAlgorithm)
	return t
}

func (t *windowType) kind() string        { return KindWindow }
func (t *windowType) alg() bank.Algorithm { return t.a }

func (t *windowType) seed(seed uint64, parts int) {
	t.rngSeed = seed
	sm := xrand.NewSplitMix64(seed)
	t.shardSeeds = make([]uint64, parts)
	for s := range t.shardSeeds {
		t.shardSeeds[s] = sm.Uint64()
	}
}

func (t *windowType) bucketRegs(span int) int { return span }

func (t *windowType) shardBytes(span, buckets int) int {
	return buckets * ((span*t.a.Width() + 63) / 64 * 8)
}

// appendShape: the window payload has no shape prefix (the register
// algorithm rides the snapshot header) and its flag bit says whether the
// shards carry generator state.
func (t *windowType) appendShape(buf []byte, _, state bool) []byte { return appendFlag(buf, state) }

func (t *windowType) parseShape(d *payloadReader) (cellType, bool, bool, error) {
	state, err := readFlag(d, KindWindow)
	return t, true, state, err
}

// checkPeer: the disjoint fold needs a Remark 2.4 merge.
func (t *windowType) checkPeer(_ *snapcodec.Snapshot, _ cellType, disjoint bool) error {
	if disjoint && t.ma == nil {
		return fmt.Errorf("algorithm %q does not support merge", t.a.Name())
	}
	return nil
}

func (t *windowType) newCells(sh *ringShard, layout regSpan) cells {
	xo := xrand.New(t.shardSeeds[sh.index])
	c := &windowCells{
		t: t, lo: sh.lo, span: sh.hi - sh.lo, layout: layout,
		regs:   make([]*bitpack.Array, len(sh.epochs)),
		runMax: make([][]uint64, len(sh.epochs)),
		xo:     xo, rng: xrand.NewRand(xo),
	}
	for j := range c.regs {
		c.regs[j] = bitpack.NewArray(c.span, t.a.Width())
		c.runMax[j] = make([]uint64, (c.span+runLen-1)/runLen)
	}
	return c
}

// queryRand returns the throwaway generator a windowed fold for one key
// draws from: deterministic in (seed, key, clock) — so replicas with equal
// state and seed answer identically — and disjoint from the replay streams,
// so reads never perturb recovery.
func (t *windowType) queryRand(key int, cur uint64) *xrand.Rand {
	h := t.rngSeed
	h ^= (cur + 1) * 0x9E3779B97F4A7C15
	h ^= (uint64(key) + 1) * 0xBF58476D1CE4E5B9
	return xrand.NewRand(xrand.New(h))
}

// runLen is the key count of one run of a shard's keys — the granule the
// cells keep a register maximum for, the bank's block size (shardbank's
// block-max column is the same idea over a different layout).
const (
	runShift = 7
	runLen   = 1 << runShift
)

// windowCells is one shard's B bucket banks and its replay generator
// stream. Bucket j's registers occupy [j·span, (j+1)·span) of the shard's
// section of the register layout.
//
// runMax[j][r] is the largest register bucket j holds for the shard's keys
// [lo + r·runLen, lo + (r+1)·runLen): every write raises it, rotation and
// evict clear it, a restore rebuilds it — all under the shard lock, so it
// is always exact — and scan uses it to bound a whole run's fold without
// reading a register (see bound).
type windowCells struct {
	t        *windowType
	lo, span int
	layout   regSpan
	regs     []*bitpack.Array
	runMax   [][]uint64
	xo       *xrand.Xoshiro256
	rng      *xrand.Rand
}

// set writes register i of bucket j, a value above its old one.
func (c *windowCells) set(j, i int, v uint64) {
	c.regs[j].Set(i, v)
	c.layout.mark(j*c.span + i)
	if m := &c.runMax[j][i>>runShift]; v > *m {
		*m = v
	}
}

// apply is set per stepped key, with the bucket's addressing hoisted out of
// the loop.
func (c *windowCells) apply(j int, keys []int) {
	arr, alg, base, top := c.regs[j], c.t.a, j*c.span, c.runMax[j]
	for _, k := range keys {
		i := k - c.lo
		reg := arr.Get(i)
		if next := alg.Step(reg, c.rng); next != reg {
			arr.Set(i, next)
			c.layout.mark(base + i)
			top[i>>runShift] = max(top[i>>runShift], next)
		}
	}
}

func (c *windowCells) zero(j int) {
	words := c.regs[j].Words()
	for _, w := range words {
		if w != 0 {
			// The rotation changes register bytes, so the bucket's span of
			// the snapshot layout is dirty; an already-zero bucket is not.
			c.layout.markRange(j*c.span, (j+1)*c.span)
			clear(words)
			clear(c.runMax[j])
			return
		}
	}
}

func (c *windowCells) reset() {
	for j, arr := range c.regs {
		for i := 0; i < c.span; i++ {
			if arr.Get(i) != 0 {
				arr.Set(i, 0)
				c.layout.mark(j*c.span + i)
			}
		}
		clear(c.runMax[j])
	}
}

// join: Remark 2.4 register folds for a disjoint stream — drawing from the
// shard's own generator only when both registers are non-zero (folding an
// empty counter in is the identity, on either side), keys ascending — or
// the register-wise maximum for a replica.
func (c *windowCells) join(j int, peer any, disjoint bool) {
	arr, base := c.regs[j], j*c.span
	for i, pv := range peer.(*windowPeer).regs[base : base+c.span] {
		switch lv := arr.Get(i); {
		case pv == 0:
		case disjoint && lv != 0:
			if merged := c.t.ma.MergeRegs(lv, pv, c.rng); merged != lv {
				c.set(j, i, merged)
			}
		case pv > lv:
			c.set(j, i, pv)
		}
	}
}

// scan visits the fold of every key that can exceed the caller's floor: a
// run whose bound is at or under the floor is skipped whole, so a ranking
// folds the runs that can rank and a full read skips the all-zero ones. The
// bank tracks every key per bucket, so a ranking over it is exact w.r.t.
// the registers.
func (c *windowCells) scan(slots []int, cur uint64, klo, khi int, visit func(key, n int, v float64) float64) {
	floor := 0.0
	for key := klo; key < khi; {
		run := (key - c.lo) >> runShift
		end := min(khi, c.lo+(run+1)<<runShift)
		for bound := c.bound(slots, run); key < end && bound > floor; key++ {
			floor = visit(key, 1, c.fold(slots, cur, key))
		}
		key = end
	}
}

// bound returns an upper bound on the fold of every key of a run over the
// live slots, from the run maxima alone. Estimates increase with the
// register, so for a summing fold Σⱼ Estimate(regⱼ) ≤ Σⱼ Estimate(maxⱼ), term
// by term. A Remark 2.4 fold starts at the larger register and increments at
// most the smaller one's count of times (MergeRegs(a, b) ≤ a + b, pinned by
// TestMergeRegsAtMostSum next to the algorithm), so the folded register is
// at most min(cap, Σⱼ regⱼ) ≤ min(cap, Σⱼ maxⱼ). That is loose on a hot run
// and tight on the cold tail, which is the part worth skipping.
func (c *windowCells) bound(slots []int, run int) float64 {
	t := c.t
	if t.ma == nil {
		sum := 0.0
		for _, j := range slots {
			if m := c.runMax[j][run]; m != 0 {
				sum += t.a.Estimate(m)
			}
		}
		return sum
	}
	limit := uint64(1)<<uint(t.a.Width()) - 1
	sum := uint64(0)
	for _, j := range slots {
		// Saturating: a register is ≤ limit < 2^63, so the sum cannot wrap.
		sum = min(sum+c.runMax[j][run], limit)
	}
	return t.a.Estimate(sum)
}

// fold combines key's registers over the live slots: a Remark 2.4 register
// fold (ascending epoch order) when the algorithm merges, a sum of
// per-bucket estimates otherwise.
func (c *windowCells) fold(slots []int, cur uint64, key int) float64 {
	t, i := c.t, key-c.lo
	if t.ma == nil {
		sum := 0.0
		for _, j := range slots {
			if v := c.regs[j].Get(i); v != 0 {
				sum += t.a.Estimate(v)
			}
		}
		return sum
	}
	var rng *xrand.Rand
	reg := uint64(0)
	for _, j := range slots {
		switch v := c.regs[j].Get(i); {
		case v == 0: // merging an empty counter is the identity
		case reg == 0:
			reg = v
		default:
			if rng == nil {
				rng = t.queryRand(key, cur)
			}
			reg = t.ma.MergeRegs(reg, v, rng)
		}
	}
	return t.a.Estimate(reg)
}

func (c *windowCells) hash(h *fnv1a64) {
	for _, arr := range c.regs {
		for i := 0; i < c.span; i++ {
			h.word(arr.Get(i))
		}
	}
}

// emit: the shard's cell bytes are its generator state (4 × u64, checkpoint
// images only); every bucket's registers ride the register section, key
// order within a bucket.
func (c *windowCells) emit(payload []byte, regs []uint64, state bool) ([]byte, []uint64) {
	for _, arr := range c.regs {
		for i := 0; i < c.span; i++ {
			regs = append(regs, arr.Get(i))
		}
	}
	if state {
		for _, w := range c.xo.State() {
			payload = binary.LittleEndian.AppendUint64(payload, w)
		}
	}
	return payload, regs
}

// windowPeer is a decoded peer shard: its B × span registers as the codec
// delivered them, and its generator state when the payload carried one.
type windowPeer struct {
	regs  []uint64
	state bool
	rng   [4]uint64
}

// decode: nothing to validate in the registers — the codec width-checked
// them, and the header algorithm equality pins that width to the engine's.
func (t *windowType) decode(d *payloadReader, regs []uint64, _ int, state bool) (any, error) {
	p := &windowPeer{regs: regs, state: state}
	if state {
		for w := range p.rng {
			p.rng[w] = d.u64()
		}
	}
	return p, nil
}

func (c *windowCells) load(peer any) {
	p := peer.(*windowPeer)
	for j, arr := range c.regs {
		clear(c.runMax[j])
		for i, v := range p.regs[j*c.span : (j+1)*c.span] {
			arr.Set(i, v)
			c.runMax[j][i>>runShift] = max(c.runMax[j][i>>runShift], v)
		}
	}
	if p.state {
		c.xo.SetState(p.rng)
	}
}
