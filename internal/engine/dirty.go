// Block fingerprints for engines whose snapshot register sections support
// delta checkpoints and block-diff anti-entropy (see docs/FORMAT.md, "Delta
// snapshots"). The unit is the snapcodec block — BlockLen registers of the
// engine's register layout — so a fingerprint, a drained dirty block and a
// block a delta snapshot splices all name the same registers. The changed-
// block bitmap itself is shardbank.DirtySet: the bank engine delegates to
// its bank's, the bucket ring keeps one over its own whole-snapshot layout
// (window, distinct), and payload-only engines (f2, top-k) have none.
package engine

import "repro/internal/snapcodec"

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
