// Block-level dirty tracking: the bank records which 128-register blocks
// have changed since the last TakeDirty, so checkpoints and repair can ship
// deltas proportional to churn instead of keyspace (see docs/FORMAT.md,
// "Delta snapshots"). The block unit is pinned to snapcodec.BlockLen — the
// granule the snapshot codec packs independently — so a dirty block maps
// one-to-one onto a splice-able snapshot block.
//
// Keys interleave across shards (key k lives in shard k&mask), so a single
// block spans many shards and no per-shard bitmap would compose; instead the
// bitmap is one shared []atomic.Uint64, marked with a check-then-Or so the
// hot batch loop pays one atomic load per changed key and an atomic Or only
// on the 0→1 transition of a block. Marking is monotone and racy-by-design:
// it may overshoot (a block marked whose registers end up unchanged) but
// never undershoots, because every marker holds the shard lock of the
// register it changed, and TakeDirty callers serialize against appliers at
// a higher level (the store's write lock) when they need an exact cut.
package shardbank

import "math/bits"

// DirtyBlockLen is the register count of one dirty-tracking block. It must
// equal snapcodec.BlockLen (the codec's independently-packed block size);
// the engine package pins the two together in a test rather than importing
// snapcodec here.
const DirtyBlockLen = 128

const dirtyBlockShift = 7 // log2(DirtyBlockLen)

// dirtyWords returns the bitmap word count for an n-register bank.
func dirtyWords(n int) int {
	blocks := (n + DirtyBlockLen - 1) / DirtyBlockLen
	return (blocks + 63) / 64
}

// markDirty records that key k's block changed. Callers hold k's shard lock.
func (b *Bank) markDirty(k int) {
	blk := uint(k) >> dirtyBlockShift
	m := uint64(1) << (blk & 63)
	if w := &b.dirty[blk>>6]; w.Load()&m == 0 {
		w.Or(m)
	}
}

// markDirtyRange marks every block overlapping keys [lo, hi).
func (b *Bank) markDirtyRange(lo, hi int) {
	if lo >= hi {
		return
	}
	first := uint(lo) >> dirtyBlockShift
	last := uint(hi-1) >> dirtyBlockShift
	fw, lw := first>>6, last>>6
	for wi := fw; wi <= lw; wi++ {
		m := ^uint64(0)
		if wi == fw {
			m &= ^uint64(0) << (first & 63)
		}
		if wi == lw {
			m &= ^uint64(0) >> (63 - last&63)
		}
		if w := &b.dirty[wi]; w.Load()&m != m {
			w.Or(m)
		}
	}
}

// TakeDirty atomically drains the dirty bitmap and returns the indices of
// every block marked since the previous drain, strictly ascending. A block
// index bi covers keys [bi·DirtyBlockLen, (bi+1)·DirtyBlockLen) ∩ [0, Len).
// Draining and marking may race benignly (a mark landing mid-drain shows up
// either in this result or the next); callers needing an exact churn cut
// serialize TakeDirty against appliers themselves. Returns nil when clean.
func (b *Bank) TakeDirty() []uint32 {
	var out []uint32
	if n := b.DirtyBlocks(); n > 0 {
		out = make([]uint32, 0, n) // one exact allocation, not a doubling chain
	}
	for wi := range b.dirty {
		w := b.dirty[wi].Swap(0)
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			out = append(out, uint32(wi*64+bit))
			w &= w - 1
		}
	}
	return out
}

// MarkDirtyBlocks re-arms the given blocks — the undo of TakeDirty for a
// checkpoint that failed after draining, so the next attempt still covers
// them. Out-of-range indices are ignored.
func (b *Bank) MarkDirtyBlocks(blocks []uint32) {
	nb := uint((b.n + DirtyBlockLen - 1) / DirtyBlockLen)
	for _, blk := range blocks {
		if uint(blk) >= nb {
			continue
		}
		b.dirty[blk>>6].Or(uint64(1) << (blk & 63))
	}
}

// DirtyBlocks returns the number of currently-marked blocks without
// draining them (the observability gauge behind the checkpoint loop's
// delta-vs-full decision).
func (b *Bank) DirtyBlocks() int {
	total := 0
	for wi := range b.dirty {
		total += bits.OnesCount64(b.dirty[wi].Load())
	}
	return total
}
