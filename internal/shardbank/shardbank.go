// Package shardbank is the concurrency-first successor to internal/bank: a
// lock-striped bank of packed approximate counters built to serve heavy
// multi-goroutine increment traffic.
//
// A Bank partitions its key space across P shards (P rounded up to a power
// of two). Register i lives in shard i mod P at local slot i div P, so the
// hottest keys of a skewed workload — the low indices of a Zipf stream —
// spread across all shards instead of piling onto one lock. Each shard owns
// an independent packed bitpack.Array and an independent xrand stream seeded
// deterministically from the bank seed, so single-goroutine runs (and
// batched runs, see below) are exactly replayable; no rng is ever shared
// across shards.
//
// Three things make the hot path fast:
//
//   - Lock striping: an increment takes only its shard's mutex, so
//     concurrent writers rarely collide.
//   - Batched increments: IncrementBatch groups a batch of keys by shard
//     and takes each shard lock once per batch, amortizing lock traffic to
//     near zero. Within a shard, keys are applied in their original batch
//     order against the shard's own rng, so a batched run produces
//     bit-identical registers to the equivalent unbatched run.
//   - Table-driven stepping: for the known register algorithms (Morris,
//     Csűrös, exact) the per-state increment probability is precomputed as
//     a 64-bit fixed-point table indexed by register value, so a step is a
//     table load, one rng word, and a compare — no math.Exp, no float
//     division, no interface call. Unknown algorithms fall back to the
//     generic Algorithm.Step path.
//
// The one thing the hot path pays for the readers is touch (blockmax.go),
// called for each register that actually changed: two atomic loads and
// compares in the common case, never a lock.
//
// Reads come in two sizes. Estimate/Register lock one shard. Bulk readers
// — snapshots, checkpoints, range hashes, top-k — go through the packed read
// path in view.go: Freeze copies the shards' packed words under all locks
// and serves registers off the copy; TopRegisters ranks registers in place,
// and reads only the blocks that can rank. What lets it skip is the second
// of two facts the bank keeps per 128-key block of the global key order,
// both written by the one touch every register write path calls: a dirty
// bit (dirty.go), so checkpoints ship churn instead of keyspace, and an
// upper bound on the block's registers (blockmax.go), so a ranking consults
// one entry per block before it opens any.
//
// Snapshot takes every shard lock simultaneously and emits the registers as
// one contiguous packed payload in global key order — byte-compatible with
// bank.Bank's snapshot format, so the merged view can be restored into a
// single-mutex Bank. Two shard banks of identical shape fold together with
// Merge, register by register, via the paper's Remark 2.4 merge — the merged
// bank is distributed exactly as one that saw both banks' streams.
package shardbank

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/bank"
	"repro/internal/bitpack"
	"repro/internal/xrand"
)

// maxTableWidth bounds the register width for which the fixed-point step
// table is built: 2^16 entries × 8 bytes = 512 KiB, shared by all shards.
// Wider registers use the generic Algorithm.Step path.
const maxTableWidth = 16

// Step-table sentinel values. Probabilities strictly inside (0, 1) are
// represented as ⌊p·2^64⌉ and drawn with one BernoulliFixed word.
const (
	stepNever  = uint64(0)  // saturated: stay, draw nothing
	stepAlways = ^uint64(0) // deterministic increment, draw nothing
)

// stepTable maps a register value to its fixed-point increment probability.
// probs[x] == stepAlways means increment deterministically, stepNever means
// the register is saturated; anything else is Bernoulli(probs[x]/2^64),
// which rounds the true probability to within 2^-64 — finer than the 2^-53
// float path the generic algorithms use.
type stepTable []uint64

// buildStepTable returns the fixed-point table for alg, or nil when alg is
// unknown or too wide to tabulate.
func buildStepTable(alg bank.Algorithm) stepTable {
	if alg.Width() > maxTableWidth {
		return nil
	}
	size := uint64(1) << uint(alg.Width())
	switch a := alg.(type) {
	case bank.MorrisAlg:
		t := make(stepTable, size)
		lnBase := math.Log1p(a.Base())
		for x := uint64(0); x < size-1; x++ {
			t[x] = fixedProb(math.Exp(-float64(x) * lnBase))
		}
		t[size-1] = stepNever
		return t
	case bank.CsurosAlg:
		t := make(stepTable, size)
		d := uint(a.Mantissa())
		for x := uint64(0); x < size-1; x++ {
			e := x >> d
			switch {
			case e == 0:
				t[x] = stepAlways
			case e < 64:
				t[x] = uint64(1) << (64 - e)
			default:
				// p = 2^-e < 2^-64: representable only as the minimum
				// fixed-point step. These states need ≳2^64 events to
				// reach, so the rounding is unobservable.
				t[x] = 1
			}
		}
		t[size-1] = stepNever
		return t
	case bank.ExactAlg:
		t := make(stepTable, size)
		for x := uint64(0); x < size-1; x++ {
			t[x] = stepAlways
		}
		t[size-1] = stepNever
		return t
	default:
		return nil
	}
}

// fixedProb converts p ∈ (0, 1] to its 64-bit fixed-point representation,
// collapsing values that round to 1 into the deterministic sentinel.
func fixedProb(p float64) uint64 {
	v := math.Ldexp(p, 64)
	if v >= math.Ldexp(1, 64) {
		return stepAlways
	}
	if v < 1 {
		return 1
	}
	return uint64(v)
}

// shard is one lock stripe: a packed register array and a private rng. The
// trailing pad keeps adjacent shards off each other's cache line so that
// lock traffic on one stripe does not false-share with its neighbors.
type shard struct {
	mu  sync.Mutex
	arr *bitpack.Array
	// words caches arr.Words() for the fused batch loop in applyKeys.
	words []uint64
	// xo is the shard's raw generator; rng wraps it for the generic
	// Algorithm.Step path and merges. The table path draws from xo
	// directly so the call devirtualizes and inlines.
	xo  *xrand.Xoshiro256
	rng *xrand.Rand
	_   [24]byte
}

// Bank is a lock-striped, batched counter bank. The zero value is not
// usable; call New.
type Bank struct {
	shards  []*shard
	alg     bank.Algorithm
	table   stepTable
	n       int
	seed    uint64    // construction seed, kept for snapshot provenance
	mask    uint64    // len(shards) − 1; len is a power of two
	shift   uint      // log2(len(shards))
	dirty   DirtySet  // changed-block bitmap; see dirty.go
	scratch sync.Pool // *batchScratch, reused across IncrementBatch calls

	// blockMax[bi] bounds every register of block bi from above; see
	// blockmax.go.
	blockMax []atomic.Uint64
}

// New allocates a Bank of n registers striped across the given shard count
// (rounded up to a power of two, capped at n). Per-shard rng streams are
// derived deterministically from seed, so a bank built from (n, alg, shards,
// seed) always replays identically under a fixed operation order.
func New(n int, alg bank.Algorithm, shards int, seed uint64) *Bank {
	if n <= 0 {
		panic("shardbank: non-positive size")
	}
	if int64(n) > math.MaxInt32 {
		// The batch scatter buffer stores keys as int32.
		panic("shardbank: size exceeds 2^31-1 registers")
	}
	if shards <= 0 {
		panic("shardbank: non-positive shard count")
	}
	p := 1
	for p < shards {
		p <<= 1
	}
	for p > n {
		p >>= 1 // every stripe must own at least one register
	}
	b := &Bank{
		shards: make([]*shard, p),
		alg:    alg,
		table:  buildStepTable(alg),
		n:      n,
		seed:   seed,
		mask:   uint64(p - 1),
		shift:  uint(bits.TrailingZeros(uint(p))),
		dirty:  *NewDirtySet(n),

		blockMax: make([]atomic.Uint64, (n+DirtyBlockLen-1)/DirtyBlockLen),
	}
	b.scratch.New = func() any { return new(batchScratch) }
	sm := xrand.NewSplitMix64(seed)
	for s := range b.shards {
		local := (n - s + p - 1) / p // registers i with i mod p == s
		xo := xrand.New(sm.Uint64())
		arr := bitpack.NewArray(local, alg.Width())
		b.shards[s] = &shard{
			arr:   arr,
			words: arr.Words(),
			xo:    xo,
			rng:   xrand.NewRand(xo),
		}
	}
	return b
}

// Len returns the number of registers.
func (b *Bank) Len() int { return b.n }

// Shards returns the number of lock stripes.
func (b *Bank) Shards() int { return len(b.shards) }

// Seed returns the seed the bank was constructed with. Together with the
// construction shape (n, algorithm, shard count) it identifies the bank's
// deterministic replay universe: a fresh New(n, alg, shards, seed) replays
// any logged operation sequence to bit-identical registers.
func (b *Bank) Seed() uint64 { return b.seed }

// Algorithm returns the bank's register algorithm.
func (b *Bank) Algorithm() bank.Algorithm { return b.alg }

// BitsPerCounter returns the per-register width.
func (b *Bank) BitsPerCounter() int { return b.alg.Width() }

// SizeBytes returns the physical footprint of the packed registers, summed
// over shards.
func (b *Bank) SizeBytes() int {
	total := 0
	for _, s := range b.shards {
		total += s.arr.SizeBytes()
	}
	return total
}

func (b *Bank) locate(i int) (*shard, int) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("shardbank: index %d out of range [0,%d)", i, b.n))
	}
	return b.shards[uint64(i)&b.mask], i >> b.shift
}

// step advances one register value by one event using the fixed-point table
// when available, else the generic algorithm path. The table branch draws
// straight from the shard's concrete generator so the whole step inlines.
func (b *Bank) step(reg uint64, s *shard) uint64 {
	if t := b.table; t != nil {
		switch p := t[reg]; p {
		case stepNever:
			return reg
		case stepAlways:
			return reg + 1
		default:
			if s.xo.Uint64() < p {
				return reg + 1
			}
			return reg
		}
	}
	return b.alg.Step(reg, s.rng)
}

// Increment advances register i by one event, taking only i's shard lock.
func (b *Bank) Increment(i int) {
	s, local := b.locate(i)
	s.mu.Lock()
	reg := s.arr.Get(local)
	if next := b.step(reg, s); next != reg {
		s.arr.Set(local, next)
		b.touch(i, next)
	}
	s.mu.Unlock()
}

// IncrementBy advances register i by k events under one lock acquisition.
func (b *Bank) IncrementBy(i int, k uint64) {
	s, local := b.locate(i)
	s.mu.Lock()
	reg0 := s.arr.Get(local)
	reg := reg0
	for j := uint64(0); j < k; j++ {
		reg = b.step(reg, s)
	}
	if reg != reg0 {
		s.arr.Set(local, reg)
		b.touch(i, reg)
	}
	s.mu.Unlock()
}

// IncrementBatch advances one register per key, grouping the batch by shard
// and taking each shard lock exactly once. Within a shard, keys are applied
// in their original batch order, so the final registers are bit-identical
// to calling Increment for each key in sequence (each shard's rng sees the
// same draw order either way). Duplicate keys are fine and count once each.
func (b *Bank) IncrementBatch(keys []int) {
	if len(keys) == 0 {
		return
	}
	p := len(b.shards)
	if p == 1 {
		for _, k := range keys {
			if k < 0 || k >= b.n {
				panic(fmt.Sprintf("shardbank: index %d out of range [0,%d)", k, b.n))
			}
		}
		s := b.shards[0]
		s.mu.Lock()
		applyKeys(b, s, keys)
		s.mu.Unlock()
		return
	}
	// Counting sort by shard: one pass to size the groups, one stable pass
	// to scatter, then one locked pass per non-empty shard. Scratch comes
	// from a pool so a steady stream of batches allocates nothing.
	sc := b.scratch.Get().(*batchScratch)
	counts := sc.counts(p + 1)
	mask := b.mask
	for _, k := range keys {
		if uint(k) >= uint(b.n) {
			b.scratch.Put(sc)
			panic(fmt.Sprintf("shardbank: index %d out of range [0,%d)", k, b.n))
		}
		counts[(uint64(k)&mask)+1]++
	}
	for s := 1; s <= p; s++ {
		counts[s] += counts[s-1]
	}
	sorted := sc.sorted(len(keys))
	offsets := sc.offsets(p)
	copy(offsets, counts[:p])
	for _, k := range keys {
		s := uint64(k) & mask
		sorted[offsets[s]] = int32(k)
		offsets[s]++
	}
	for si := 0; si < p; si++ {
		lo, hi := counts[si], counts[si+1]
		if lo == hi {
			continue
		}
		s := b.shards[si]
		s.mu.Lock()
		applyKeys(b, s, sorted[lo:hi])
		s.mu.Unlock()
	}
	b.scratch.Put(sc)
}

// applyKeys advances one register per key, all keys belonging to shard s,
// under s's already-held lock. This loop is the hot core of the batched
// increment path, so the table branch works on the shard's raw packed words
// (bitpack.Array.Words) with the field addressing computed once per key and
// shared between the read and the write-back; the trailing pad word makes
// the second-word access unconditional. Keys are validated by the caller
// and the table caps registers below 2^width, so the checked Get/Set
// invariants hold by construction — and TestBatchedMatchesUnbatched pins
// this loop bit-for-bit to the checked single-increment path. It is generic
// so the sharded path can feed it the compact int32 scatter buffer while
// the single-shard path passes the caller's []int straight through.
func applyKeys[K int | int32](b *Bank, s *shard, keys []K) {
	t := b.table
	if t == nil {
		for _, k := range keys {
			local := int(k) >> b.shift
			reg := s.arr.Get(local)
			if next := b.alg.Step(reg, s.rng); next != reg {
				s.arr.Set(local, next)
				b.touch(int(k), next)
			}
		}
		return
	}
	words := s.words
	xo := s.xo
	shift := b.shift
	width := uint(b.alg.Width())
	mask := ^uint64(0) >> (64 - width)
	for _, k := range keys {
		pos := uint(int(k)>>shift) * width
		off := pos & 63
		idx := pos >> 6
		// Load the high word first so the compiler proves idx in range
		// once and drops the remaining three bounds checks.
		w1 := words[idx+1]
		w0 := words[idx]
		reg := (w0>>off | w1<<(64-off)) & mask
		p := t[reg]
		if p == stepAlways || (p != stepNever && xo.Uint64() < p) {
			reg++
			words[idx] = w0&^(mask<<off) | reg<<off
			words[idx+1] = w1&^(mask>>(64-off)) | reg>>(64-off)
			b.touch(int(k), reg)
		}
	}
}

// batchScratch holds the reusable counting-sort buffers for IncrementBatch.
// The scatter buffer is int32 — keys are register indices, far below 2^31 —
// halving the sort's memory traffic.
type batchScratch struct {
	countsBuf  []int
	sortedBuf  []int32
	offsetsBuf []int
}

func (sc *batchScratch) counts(n int) []int {
	if cap(sc.countsBuf) < n {
		sc.countsBuf = make([]int, n)
	}
	buf := sc.countsBuf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

func (sc *batchScratch) sorted(n int) []int32 {
	if cap(sc.sortedBuf) < n {
		sc.sortedBuf = make([]int32, n)
	}
	return sc.sortedBuf[:n]
}

func (sc *batchScratch) offsets(n int) []int {
	if cap(sc.offsetsBuf) < n {
		sc.offsetsBuf = make([]int, n)
	}
	return sc.offsetsBuf[:n]
}

// IncrementChunked advances one register per key, splitting keys into
// IncrementBatch calls of at most batch keys — the serving loop every
// driver of this package otherwise re-implements. batch <= 1 degrades to
// per-key Increment (the unbatched path); batch >= len(keys) is a single
// batch.
func (b *Bank) IncrementChunked(keys []int, batch int) {
	if batch <= 1 {
		for _, k := range keys {
			b.Increment(k)
		}
		return
	}
	for lo := 0; lo < len(keys); lo += batch {
		hi := lo + batch
		if hi > len(keys) {
			hi = len(keys)
		}
		b.IncrementBatch(keys[lo:hi])
	}
}

// Estimate returns N̂ for register i.
func (b *Bank) Estimate(i int) float64 {
	s, local := b.locate(i)
	s.mu.Lock()
	reg := s.arr.Get(local)
	s.mu.Unlock()
	return b.alg.Estimate(reg)
}

// Register returns the raw register value (for tests and serialization).
func (b *Bank) Register(i int) uint64 {
	s, local := b.locate(i)
	s.mu.Lock()
	reg := s.arr.Get(local)
	s.mu.Unlock()
	return reg
}

// EstimateAll returns all n estimates in a fresh slice the caller owns.
//
// The view is consistent per shard (each stripe is read under its lock) but
// not a global point-in-time snapshot; use Freeze for that.
func (b *Bank) EstimateAll() []float64 {
	vals := make([]float64, b.n)
	for si, s := range b.shards {
		s.mu.Lock()
		for local, i := 0, si; i < b.n; local, i = local+1, i+len(b.shards) {
			vals[i] = b.alg.Estimate(s.arr.Get(local))
		}
		s.mu.Unlock()
	}
	return vals
}

// lockAll acquires every shard lock in stripe order; unlockAll releases.
func (b *Bank) lockAll() {
	for _, s := range b.shards {
		s.mu.Lock()
	}
}

func (b *Bank) unlockAll() {
	for _, s := range b.shards {
		s.mu.Unlock()
	}
}

// Snapshot returns a globally consistent packed payload of all n registers
// in key order, taken with every shard lock held. The format is exactly
// bank.Bank's snapshot format — SizeBytes of a single-mutex bank of the
// same shape — so the merged view restores into one Bank via
// (*bank.Bank).Restore (see SnapshotBank).
func (b *Bank) Snapshot() []byte {
	b.lockAll()
	defer b.unlockAll()
	w := bitpack.NewWriter()
	for i := 0; i < b.n; i++ {
		s := b.shards[uint64(i)&b.mask]
		w.WriteBits(s.arr.Get(i>>b.shift), s.arr.Width())
	}
	return w.Bytes()
}

// SnapshotBank materializes the consistent merged view as a single-mutex
// bank.Bank (e.g. to hand a stable copy to a slow reader while the sharded
// bank keeps absorbing writes). The rng seeds the new bank's future steps
// only; the copied registers are exact.
func (b *Bank) SnapshotBank(rng *xrand.Rand) (*bank.Bank, error) {
	snap := b.Snapshot()
	out := bank.New(b.n, b.alg, rng)
	if err := out.Restore(snap); err != nil {
		return nil, fmt.Errorf("shardbank: snapshot restore: %w", err)
	}
	return out, nil
}

// Merge folds other into the receiver register by register using the
// paper's Remark 2.4 merge: each merged register is distributed exactly as
// a counter that saw both inputs' streams, so two banks counting disjoint
// slices of a workload fold into one with no loss in (ε, δ). Both banks
// must have the same length, shard count, and a common MergeAlgorithm.
// Like bank.Bank.Merge, concurrent opposite-direction merges of the same
// two banks may deadlock; merge under a single owner.
func (b *Bank) Merge(other *Bank) error {
	ma, ok := b.alg.(bank.MergeAlgorithm)
	if !ok {
		return fmt.Errorf("shardbank: algorithm %q does not support merge", b.alg.Name())
	}
	if other.alg != b.alg {
		return errors.New("shardbank: algorithm mismatch")
	}
	if other.n != b.n || len(other.shards) != len(b.shards) {
		return fmt.Errorf("shardbank: shape mismatch %d/%d vs %d/%d",
			b.n, len(b.shards), other.n, len(other.shards))
	}
	for si, s := range b.shards {
		o := other.shards[si]
		s.mu.Lock()
		o.mu.Lock()
		for local := 0; local < s.arr.Len(); local++ {
			old := s.arr.Get(local)
			if merged := ma.MergeRegs(old, o.arr.Get(local), s.rng); merged != old {
				s.arr.Set(local, merged)
				b.touch(local<<b.shift|si, merged)
			}
		}
		o.mu.Unlock()
		s.mu.Unlock()
	}
	return nil
}
