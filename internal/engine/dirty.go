// Shared block-level dirty tracking for engines whose snapshot register
// sections support delta checkpoints (see docs/FORMAT.md, "Delta
// snapshots"). The unit is the snapcodec block — BlockLen registers of the
// engine's WHOLE-snapshot register layout — so a drained dirty set maps
// one-to-one onto the blocks a delta snapshot splices. The bank engine
// delegates to shardbank's bitmap (which lives next to its hot loop); the
// window engine embeds a dirtySet directly.
package engine

import (
	"math/bits"
	"sync/atomic"

	"repro/internal/snapcodec"
)

// dirtySet is a monotone changed-block bitmap over a register layout of a
// fixed size. Marking is lock-free (check-then-Or, so the steady state is
// one atomic load per changed register); draining swaps each word to zero.
// Marks may overshoot (a marked block whose registers end up byte-identical)
// but never undershoot, which is the only direction delta correctness needs.
type dirtySet struct {
	words []atomic.Uint64
	regs  int // layout size, for range clamping
}

func newDirtySet(regs int) *dirtySet {
	blocks := (regs + snapcodec.BlockLen - 1) / snapcodec.BlockLen
	return &dirtySet{words: make([]atomic.Uint64, (blocks+63)/64), regs: regs}
}

// mark records that register reg's block changed.
func (d *dirtySet) mark(reg int) {
	blk := uint(reg) / snapcodec.BlockLen
	m := uint64(1) << (blk & 63)
	if w := &d.words[blk>>6]; w.Load()&m == 0 {
		w.Or(m)
	}
}

// markRange marks every block overlapping registers [lo, hi).
func (d *dirtySet) markRange(lo, hi int) {
	if lo >= hi {
		return
	}
	first := uint(lo) / snapcodec.BlockLen
	last := uint(hi-1) / snapcodec.BlockLen
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

// take drains the set, returning the marked block indices ascending.
func (d *dirtySet) take() []uint32 {
	var out []uint32
	for wi := range d.words {
		w := d.words[wi].Swap(0)
		for w != 0 {
			out = append(out, uint32(wi*64+bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return out
}

// rearm re-marks blocks (the undo of take for a failed checkpoint).
func (d *dirtySet) rearm(blocks []uint32) {
	nb := uint((d.regs + snapcodec.BlockLen - 1) / snapcodec.BlockLen)
	for _, blk := range blocks {
		if uint(blk) >= nb {
			continue
		}
		d.words[blk>>6].Or(uint64(1) << (blk & 63))
	}
}

// count returns the marked block count without draining.
func (d *dirtySet) count() int {
	total := 0
	for wi := range d.words {
		total += bits.OnesCount64(d.words[wi].Load())
	}
	return total
}

// blockHashes folds a register section into per-block FNV-1a fingerprints —
// one hash per snapcodec.BlockLen span, the granule the block-diff
// anti-entropy compares across replicas before pulling a delta.
func blockHashes(regs snapcodec.RegisterSource) []uint64 {
	out := make([]uint64, 0, snapcodec.NumBlocks(regs.Len()))
	snapcodec.EachBlock(regs, func(block []uint64) {
		h := newFNV()
		for _, v := range block {
			h.word(v)
		}
		out = append(out, h.sum())
	})
	return out
}
