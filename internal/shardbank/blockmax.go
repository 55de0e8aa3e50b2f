// The block-max column: beside the dirty bitmap (dirty.go) the bank keeps a
// second fact per DirtyBlockLen-key block of the global key order — an upper
// bound on every register in the block — so a ranking read consults one
// entry per 128 registers and opens only the blocks that can rank (see
// TopRegisters in view.go).
//
// The invariant is the upper bound: blockMax[bi] ≥ every register of block
// bi, at every instant. Tightness (equality with the block's largest
// register) is the optimisation, and holds whenever no ResetRange or
// RestoreState is in flight: registers only grow under increments and
// merges, every writer raises the entry under the lock of the register it
// raised, and the two operations that lower registers hold every shard lock
// while they recompute the entries they invalidated.
//
// A block's keys interleave across shards exactly as dirty.go describes, so
// writers holding different shard locks raise the same entry: like
// DirtySet.Mark, touch pays one atomic load and a compare per changed
// register and a CAS only on a new block maximum — which a block sees
// O(log count) times, not once per event.
package shardbank

// touch records that key k's register changed to reg, a value above its old
// one: k's block is dirty and bounded by at least reg. It is the one thing
// every register write path calls, under the lock of k's shard.
func (b *Bank) touch(k int, reg uint64) {
	b.dirty.Mark(k)
	for m := &b.blockMax[uint(k)>>dirtyBlockShift]; ; {
		old := m.Load()
		if reg <= old || m.CompareAndSwap(old, reg) {
			return
		}
	}
}

// rebuildBlockMax recomputes the entry of every block overlapping keys
// [lo, hi) from the registers themselves. Caller holds every shard lock, so
// no writer can raise a register between the read and the store.
func (b *Bank) rebuildBlockMax(lo, hi int) {
	for bi := lo >> dirtyBlockShift; bi<<dirtyBlockShift < hi; bi++ {
		top := uint64(0)
		for k, end := bi<<dirtyBlockShift, min((bi+1)<<dirtyBlockShift, b.n); k < end; k++ {
			top = max(top, b.shards[uint64(k)&b.mask].arr.Get(k>>b.shift))
		}
		b.blockMax[bi].Store(top)
	}
}
