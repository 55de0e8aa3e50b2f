// Block-level dirty tracking: a register layout records which 128-register
// blocks have changed since the last drain, so checkpoints and repair can
// ship deltas proportional to churn instead of keyspace (see docs/FORMAT.md,
// "Delta snapshots"). The block unit is pinned to snapcodec.BlockLen — the
// granule the snapshot codec packs independently — so a dirty block maps
// one-to-one onto a splice-able snapshot block.
//
// The bank's keys interleave across shards (key k lives in shard k&mask), so
// a single block spans many shards and no per-shard bitmap would compose;
// instead the bitmap is one shared []atomic.Uint64, marked with a
// check-then-Or so the hot batch loop pays one atomic load per changed key
// and an atomic Or only on the 0→1 transition of a block. Marking is
// monotone and racy-by-design: it may overshoot (a block marked whose
// registers end up unchanged) but never undershoots, because every marker
// holds the lock of the register it changed, and drainers serialize against
// appliers at a higher level (the store's write lock) when they need an
// exact cut. The engine package's bucket ring tracks its own register
// layouts with the same DirtySet.
package shardbank

import (
	"math/bits"
	"sync/atomic"
)

// DirtyBlockLen is the register count of one dirty-tracking block. It must
// equal snapcodec.BlockLen (the codec's independently-packed block size);
// the engine package pins the two together in a test rather than importing
// snapcodec here.
const DirtyBlockLen = 128

const dirtyBlockShift = 7 // log2(DirtyBlockLen)

// DirtySet is a changed-block bitmap over a register layout of a fixed
// size, built by NewDirtySet.
type DirtySet struct {
	words []atomic.Uint64
	regs  int // layout size, for range clamping
}

// NewDirtySet returns a clean set over a layout of regs registers.
func NewDirtySet(regs int) *DirtySet {
	blocks := (regs + DirtyBlockLen - 1) / DirtyBlockLen
	return &DirtySet{words: make([]atomic.Uint64, (blocks+63)/64), regs: regs}
}

// Mark records that register reg's block changed. Callers hold the lock of
// the register they changed.
func (d *DirtySet) Mark(reg int) {
	blk := uint(reg) >> dirtyBlockShift
	m := uint64(1) << (blk & 63)
	if w := &d.words[blk>>6]; w.Load()&m == 0 {
		w.Or(m)
	}
}

// MarkRange marks every block overlapping registers [lo, hi).
func (d *DirtySet) MarkRange(lo, hi int) {
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
		if w := &d.words[wi]; w.Load()&m != m {
			w.Or(m)
		}
	}
}

// Take atomically drains the set and returns the indices of every block
// marked since the previous drain, strictly ascending. A block index bi
// covers registers [bi·DirtyBlockLen, (bi+1)·DirtyBlockLen) of the layout.
// Draining and marking may race benignly (a mark landing mid-drain shows up
// either in this result or the next); callers needing an exact churn cut
// serialize Take against appliers themselves. Returns nil when clean.
func (d *DirtySet) Take() []uint32 {
	var out []uint32
	if n := d.Count(); n > 0 {
		out = make([]uint32, 0, n) // one exact allocation, not a doubling chain
	}
	for wi := range d.words {
		w := d.words[wi].Swap(0)
		for w != 0 {
			out = append(out, uint32(wi*64+bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return out
}

// Clear drains the set without listing what it held: Take for a caller
// that would drop the list.
func (d *DirtySet) Clear() {
	for wi := range d.words {
		d.words[wi].Store(0)
	}
}

// Rearm re-marks the given blocks — the undo of Take for a checkpoint that
// failed after draining, so the next attempt still covers them.
// Out-of-range indices are ignored.
func (d *DirtySet) Rearm(blocks []uint32) {
	nb := uint((d.regs + DirtyBlockLen - 1) / DirtyBlockLen)
	for _, blk := range blocks {
		if uint(blk) >= nb {
			continue
		}
		d.words[blk>>6].Or(uint64(1) << (blk & 63))
	}
}

// Count returns the number of currently-marked blocks without draining
// them (the observability gauge behind the checkpoint loop's delta-vs-full
// decision).
func (d *DirtySet) Count() int {
	total := 0
	for wi := range d.words {
		total += bits.OnesCount64(d.words[wi].Load())
	}
	return total
}

// TakeDirty drains the bank's changed-block set (see DirtySet.Take); block
// bi covers keys [bi·DirtyBlockLen, (bi+1)·DirtyBlockLen) ∩ [0, Len).
func (b *Bank) TakeDirty() []uint32 { return b.dirty.Take() }

// ClearDirty drains the bank's changed-block set without listing it (see
// DirtySet.Clear).
func (b *Bank) ClearDirty() { b.dirty.Clear() }

// MarkDirtyBlocks re-arms blocks drained by TakeDirty (see DirtySet.Rearm).
func (b *Bank) MarkDirtyBlocks(blocks []uint32) { b.dirty.Rearm(blocks) }

// DirtyBlocks returns the bank's marked-block count without draining.
func (b *Bank) DirtyBlocks() int { return b.dirty.Count() }
