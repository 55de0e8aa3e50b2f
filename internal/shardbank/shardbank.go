// Package shardbank stores the registers of internal/bank's algorithms: a
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
// A register costs the bits its count needs, not its algorithm's width: a
// shard packs each chunk of 128 of its registers at the narrowest of 2, 4,
// 8 and the algorithm's width that holds them (slab.go), so a 4 M-key
// node's 14-bit Morris registers after a couple of events per key take
// about 2 MB instead of 7. The shards' slabs are cut from one allocation
// sized for every register at full width (arena.go). From 4 MiB up it is mapped
// outside the Go heap, so the garbage collector's heap goal, twice the
// live heap, does not double it, and a page of it becomes resident only
// when a slab reaches it; a smaller bank keeps its slabs on the heap, at
// full width, under the goal's 4 MiB floor.
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
//   - Table-driven stepping: for every register algorithm up to 16 bits
//     wide, the per-state increment probability (Algorithm.StepProb) is
//     precomputed as a 64-bit fixed-point table indexed by register value,
//     so a step is a table load, one rng word, and a compare — no math.Exp,
//     no float division, no interface call. Wider registers fall back to
//     the generic Algorithm.Step path. The width a chunk is stored at
//     changes none of this.
//
// What the hot path pays for the readers is touch (blockmax.go), called for
// each register that actually changed — two atomic loads and compares in
// the common case, never a lock — and, just before it, cow (cut.go): one
// branch while no view is open.
//
// Reads come in two sizes. Estimate/Register lock one shard. Bulk readers
// — snapshots, checkpoints, range hashes, top-k — go through the packed read
// path in view.go: Freeze takes a copy-on-write cut under all locks and
// serves the registers of that instant a chunk at a time, copying only what
// writers change while it is open; TopRegisters ranks registers in place,
// and reads only the blocks that can rank. What lets it skip is the second
// of two facts the bank keeps per 128-key block of the global key order,
// both written by the one touch every register write path calls: a dirty
// bit (dirty.go), so checkpoints ship churn instead of keyspace, and an
// upper bound on the block's registers (blockmax.go), so a ranking consults
// one entry per block before it opens any.
//
// A bank is restored only whole and only new: a Restorer (state.go) fills
// the registers of a fresh bank block by block, under every shard lock, and
// hands the bank out when it is done. Two shard banks of identical shape
// fold together with Merge, register by register, via the paper's Remark
// 2.4 merge — the merged bank is distributed exactly as one that saw both
// banks' streams.
package shardbank

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/bank"
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
// too wide to tabulate.
func buildStepTable(alg bank.Algorithm) stepTable {
	if alg.Width() > maxTableWidth {
		return nil
	}
	t := make(stepTable, 1<<uint(alg.Width()))
	for x := range t {
		t[x] = fixedProb(alg.StepProb(uint64(x)))
	}
	return t
}

// fixedProb converts p ∈ [0, 1] to its 64-bit fixed-point representation:
// 0 (a saturated state) becomes stepNever, values that round to 1 collapse
// into stepAlways, and positive values below 2^-64 round up to the minimum
// step — states that need ≳2^64 events to reach, so the rounding is
// unobservable.
func fixedProb(p float64) uint64 {
	v := math.Ldexp(p, 64)
	switch {
	case p <= 0:
		return stepNever
	case v >= math.Ldexp(1, 64):
		return stepAlways
	case v < 1:
		return 1
	}
	return uint64(v)
}

// shard is one lock stripe: its registers' slab and a private rng. The
// trailing pad keeps adjacent shards off each other's cache line so that
// lock traffic on one stripe does not false-share with its neighbors.
type shard struct {
	mu sync.Mutex
	// The slab (slab.go): chunk c's registers are packed at width
	// tab[c]&widthMask in words from word tab[c]>>offShift.
	words []uint64
	tab   []uint32
	n     int // registers
	max   int // words of every chunk at the algorithm's width
	at    int // word offset of a mapped slab in the bank's mapping
	end   int // words in use: chunks and the holes between them
	live  int // words of chunks
	high  int // the most words ever in use
	// xo is the shard's raw generator; rng wraps it for the generic
	// Algorithm.Step path and merges. The table path draws from xo
	// directly so the call devirtualizes and inlines.
	xo  *xrand.Xoshiro256
	rng *xrand.Rand
	_   [8]byte
}

// Bank is a lock-striped, batched counter bank. The zero value is not
// usable; call New.
type Bank struct {
	shards  []*shard
	alg     bank.Algorithm
	width   int // alg.Width()
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

	// cuts lists the open views' copy-on-write cuts (cut.go); it changes
	// only under every shard lock. cutBytes counts the words they saved.
	cuts     []*cut
	cutBytes atomic.Int64

	mapped int // bytes of the slabs' mapping outside the Go heap, 0 on the heap (arena.go)
}

// New allocates a Bank of n registers striped across the given shard count
// (rounded up to a power of two, capped at n). Per-shard rng streams are
// derived deterministically from seed, so a bank built from (n, alg, shards,
// seed) always replays identically under a fixed operation order.
func New(n int, alg bank.Algorithm, shards int, seed uint64) *Bank {
	b := newBank(n, alg, shards, seed, true)
	for _, s := range b.shards {
		b.settle(s)
	}
	return b
}

// newBank is New with every chunk still without words. Without heap, a
// bank that is not mapped gets no slabs yet: a Restorer's bank, which lays
// them out from its plan, or grows them, and settles them in Finish.
func newBank(n int, alg bank.Algorithm, shards int, seed uint64, heap bool) *Bank {
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
		width:  alg.Width(),
		table:  buildStepTable(alg),
		n:      n,
		seed:   seed,
		mask:   uint64(p - 1),
		shift:  uint(bits.TrailingZeros(uint(p))),
		dirty:  *NewDirtySet(n),

		blockMax: make([]atomic.Uint64, (n+DirtyBlockLen-1)/DirtyBlockLen),
	}
	b.scratch.New = func() any { return new(batchScratch) }
	local := func(s int) int { return (n - s + p - 1) / p } // registers i with i mod p == s
	total := 0
	for s := range p {
		total += lineUp(packedWords(local(s), uint(b.width)))
	}
	words := b.mapRegisters(total)
	if words == nil && heap {
		words = heapWords(total)
	}
	tabs := make([]uint32, (n+chunkLen-1)>>chunkShift+p)
	sm := xrand.NewSplitMix64(seed)
	at := 0
	for si := range b.shards {
		xo := xrand.New(sm.Uint64())
		s := &shard{
			n:   local(si),
			max: packedWords(local(si), uint(b.width)),
			xo:  xo,
			rng: xrand.NewRand(xo),
		}
		if s.max >= maxSlab {
			panic(fmt.Sprintf("shardbank: %d registers of %d bits in one shard; use more shards", s.n, b.width))
		}
		nc := (s.n + chunkLen - 1) >> chunkShift
		s.tab, tabs = tabs[:nc:nc], tabs[nc:]
		if words != nil {
			size := lineUp(s.max)
			s.words, s.at = words[at:at+size:at+size], at
			at += size
		}
		b.shards[si] = s
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

// BitsPerCounter returns the algorithm's register width: the most bits a
// register can need. SizeBytes is what the registers take.
func (b *Bank) BitsPerCounter() int { return b.width }

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
	reg := s.get(local)
	if next := b.step(reg, s); next != reg {
		b.set(int(uint64(i)&b.mask), local, next)
	}
	s.mu.Unlock()
	runtime.KeepAlive(b)
}

// set stores v, above the register's old value, at local register l of
// shard si, for every write path but ResetRange and a Restorer: open cuts
// save the chunk first (cow), the chunk widens if v needs it, and readers
// learn of the change (touch). Caller holds shard si's lock.
func (b *Bank) set(si, l int, v uint64) {
	b.cow(si, l)
	b.put(b.shards[si], l, v)
	b.touch(l<<b.shift|si, v)
}

// IncrementBy advances register i by k events under one lock acquisition.
func (b *Bank) IncrementBy(i int, k uint64) {
	s, local := b.locate(i)
	s.mu.Lock()
	reg0 := s.get(local)
	reg := reg0
	for j := uint64(0); j < k; j++ {
		reg = b.step(reg, s)
	}
	if reg != reg0 {
		b.set(int(uint64(i)&b.mask), local, reg)
	}
	s.mu.Unlock()
	runtime.KeepAlive(b)
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
		applyKeys(b, 0, keys)
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
		applyKeys(b, si, sorted[lo:hi])
		s.mu.Unlock()
	}
	b.scratch.Put(sc)
}

// applyKeys advances one register per key, all keys belonging to shard si,
// under si's already-held lock. This loop is the hot core of the batched
// increment path, so the table branch inlines slab.go's get and put: one
// chunk-table load per key gives the field's bit position and width, which
// the read and the write-back share, and only a register that outgrows its
// chunk leaves the loop, to widen it. Keys are validated by the caller and
// the table caps registers below 2^width — and TestBatchedMatchesUnbatched
// pins this loop bit-for-bit to the checked single-increment path. It is
// generic so the sharded path can feed it the compact int32 scatter buffer
// while the single-shard path passes the caller's []int straight through.
//
// Algorithms without a table, and every run while a view is open (cut.go),
// take the checked path instead: step draws exactly what the fused loop
// draws, and cow runs before each Set. Choosing it costs one branch per
// shard run and keeps the fused loop free of copy-on-write checks.
func applyKeys[K int | int32](b *Bank, si int, keys []K) {
	s := b.shards[si]
	t := b.table
	if t == nil || len(b.cuts) != 0 {
		for _, k := range keys {
			local := int(k) >> b.shift
			reg := s.get(local)
			if next := b.step(reg, s); next != reg {
				b.set(si, local, next)
			}
		}
		runtime.KeepAlive(b)
		return
	}
	words, tab := s.words, s.tab
	xo := s.xo
	shift := b.shift
	for _, k := range keys {
		l := uint(int(k) >> shift)
		loc := tab[l>>chunkShift]
		w := uint(loc) & widthMask
		pos := uint(loc>>offShift)<<6 + (l&chunkMask)*w
		reg := field(words, pos, w)
		p := t[reg]
		if p == stepAlways || (p != stepNever && xo.Uint64() < p) {
			reg++
			if reg>>w == 0 {
				setField(words, pos, w, reg)
			} else {
				b.put(s, int(l), reg)
				words = s.words // a heap slab may have grown
			}
			b.touch(int(k), reg)
		}
	}
	runtime.KeepAlive(b) // words may be mapped: b must outlive the loop (arena.go)
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
	reg := s.get(local)
	s.mu.Unlock()
	runtime.KeepAlive(b)
	return b.alg.Estimate(reg)
}

// Register returns the raw register value (for tests and serialization).
func (b *Bank) Register(i int) uint64 {
	s, local := b.locate(i)
	s.mu.Lock()
	reg := s.get(local)
	s.mu.Unlock()
	runtime.KeepAlive(b)
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
			vals[i] = b.alg.Estimate(s.get(local))
		}
		s.mu.Unlock()
	}
	runtime.KeepAlive(b)
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

// Merge folds other into the receiver register by register using the
// paper's Remark 2.4 merge: each merged register is distributed exactly as
// a counter that saw both inputs' streams, so two banks counting disjoint
// slices of a workload fold into one with no loss in (ε, δ). Both banks
// must have the same length, shard count, and a common MergeAlgorithm.
// Concurrent opposite-direction merges of the same two banks may deadlock;
// merge under a single owner.
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
		for local := 0; local < s.n; local++ {
			old := s.get(local)
			if merged := ma.MergeRegs(old, o.get(local), s.rng); merged != old {
				b.set(si, local, merged)
			}
		}
		o.mu.Unlock()
		s.mu.Unlock()
	}
	runtime.KeepAlive(b)
	runtime.KeepAlive(other)
	return nil
}
