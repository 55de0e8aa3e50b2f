package engine

import (
	"errors"
	"fmt"

	"repro/internal/bank"
	"repro/internal/shardbank"
	"repro/internal/snapcodec"
)

// KindBank names the register-bank engine.
const KindBank = "bank"

// BankEngine serves a sharded register bank (one approximate counter per
// key) through the Engine interface. It is a thin adapter over
// shardbank.Bank, pinned to the pre-engine serving stack bit for bit: WAL
// batches apply through the same IncrementBatch, snapshots carry the same
// snapcodec fields (no engine section — the header is what versions 1 and
// 2 wrote), and range hashes use the same FNV fold, so a store refactored
// onto this engine recovers old data directories and emits byte-identical
// /v1/snapshot streams.
type BankEngine struct {
	b *shardbank.Bank
}

// NewBank wraps an existing sharded bank.
func NewBank(b *shardbank.Bank) *BankEngine { return &BankEngine{b: b} }

// BankRestorer checks that a snapshot header describes a whole register
// bank and returns a restorer of that bank: the sink a checkpoint's register
// blocks decode into (snapcodec.DecodeInto), and the one restore path
// BankFromSnapshot takes too.
func BankRestorer(snap *snapcodec.Snapshot) (*shardbank.Restorer, error) {
	switch {
	case snap.IsEngine():
		return nil, fmt.Errorf("engine: %q snapshot is not a bank snapshot", snap.Engine)
	case snap.IsPartition():
		return nil, fmt.Errorf("engine: cannot restore a bank from partition %d/%d", snap.Partition, snap.Parts)
	case snap.IsDelta():
		return nil, errors.New("engine: cannot restore a bank from a delta snapshot alone")
	case snap.N < 1 || snap.Shards < 1:
		return nil, fmt.Errorf("engine: bank snapshot of %d keys in %d shards", snap.N, snap.Shards)
	}
	alg, err := snap.Alg()
	if err != nil {
		return nil, err
	}
	return shardbank.NewRestorer(snap.N, alg, snap.Shards, snap.Seed), nil
}

// BankFromSnapshot reconstructs a bank engine from a (whole-bank) snapshot,
// restoring registers and, when present, the per-shard generator states.
func BankFromSnapshot(snap *snapcodec.Snapshot) (*BankEngine, error) {
	r, err := BankRestorer(snap)
	if err != nil {
		return nil, err
	}
	if got := snap.Regs().Len(); got != snap.N {
		return nil, fmt.Errorf("engine: bank snapshot of %d keys holds %d registers", snap.N, got)
	}
	for _, sink := range []snapcodec.RegisterSink{r.Plan(), r} {
		at := 0
		snapcodec.EachBlock(snap.Regs(), func(block []uint64) {
			sink.WriteRegisters(block, at)
			at += len(block)
		})
	}
	b, err := r.Finish(snap.RNG)
	if err != nil {
		return nil, err
	}
	return &BankEngine{b: b}, nil
}

// Bank exposes the underlying sharded bank (read-mostly callers: tests,
// examples, tools). Nil-safe only on bank engines — other engines have no
// bank to expose.
func (e *BankEngine) Bank() *shardbank.Bank { return e.b }

// Kind implements Engine.
func (e *BankEngine) Kind() string { return KindBank }

// Len implements Engine.
func (e *BankEngine) Len() int { return e.b.Len() }

// Seed implements Engine.
func (e *BankEngine) Seed() uint64 { return e.b.Seed() }

// Shards implements Engine.
func (e *BankEngine) Shards() int { return e.b.Shards() }

// SizeBytes implements Engine.
func (e *BankEngine) SizeBytes() int { return e.b.SizeBytes() }

// Algorithm implements Engine.
func (e *BankEngine) Algorithm() bank.Algorithm { return e.b.Algorithm() }

// AlignPartitions implements Engine: registers are independently
// addressable, so any partition split of the key space works.
func (e *BankEngine) AlignPartitions() int { return 0 }

// ApplyBatch implements Engine.
func (e *BankEngine) ApplyBatch(keys []int) { e.b.IncrementBatch(keys) }

// Estimate implements Engine.
func (e *BankEngine) Estimate(key int) float64 { return e.b.Estimate(key) }

// EstimateAll implements Engine.
func (e *BankEngine) EstimateAll() []float64 { return e.b.EstimateAll() }

// TopK implements Engine by ranking the range's raw registers in place
// (shardbank.TopRegisters) — every register algorithm's estimate is
// strictly increasing in its register, so the ranking is the ranking by
// estimate — and converting only the k winners. The bank tracks every key,
// so unlike the top-k engine the answer is exact w.r.t. the registers.
func (e *BankEngine) TopK(k, lo, hi int) ([]Entry, error) {
	top, err := e.b.TopRegisters(k, lo, hi)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	alg := e.b.Algorithm()
	out := make([]Entry, len(top))
	for i, t := range top {
		out[i] = Entry{Key: t.Key, Estimate: alg.Estimate(t.Reg)}
	}
	return out, nil
}

// HashRange implements Engine with the FNV-1a register fold the
// pre-engine Store.PartitionHash used, read off a packed view of the range.
func (e *BankEngine) HashRange(lo, hi int) (uint64, error) {
	v, err := e.b.FreezeRange(lo, hi)
	if err != nil {
		return 0, err
	}
	defer v.Release()
	h := newFNV()
	snapcodec.EachBlock(v, func(block []uint64) {
		for _, reg := range block {
			h.word(reg)
		}
	})
	return h.sum(), nil
}

// Snapshot implements Engine. The register section is a copy-on-write cut
// of the bank (shardbank.FreezeRange): the encoder reads the registers of
// the instant of the cut block by block while writers go on, so a snapshot
// costs one chunk buffer plus what writers change while it is open, never
// a copy of the bank. Callers Release the snapshot once they have read it.
func (e *BankEngine) Snapshot(part, parts int, withState bool) (*snapcodec.Snapshot, error) {
	snap := &snapcodec.Snapshot{
		N:      e.b.Len(),
		Shards: e.b.Shards(),
		Seed:   e.b.Seed(),
	}
	if err := snap.SetAlg(e.b.Algorithm()); err != nil {
		return nil, err
	}
	lo, hi := 0, e.b.Len()
	if parts != 0 {
		if withState {
			return nil, fmt.Errorf("engine: partition snapshots cannot carry generator state")
		}
		lo, hi = snapcodec.PartitionRange(e.b.Len(), parts, part)
		snap.Partition = part
		snap.Parts = parts
	}
	v, err := e.b.FreezeRange(lo, hi)
	if err != nil {
		return nil, err
	}
	snap.Source = v
	if withState {
		snap.RNG = v.RNG()
	}
	return snap, nil
}

// CheckPeer implements Engine: the full validate-before-stage pass of the
// pre-engine store — algorithm merge support, algorithm and shape equality,
// and an explicit register-width re-check so a WAL-staged blob can never
// fail the in-bank merge (which would poison recovery replay).
func (e *BankEngine) CheckPeer(snap *snapcodec.Snapshot, disjoint bool) error {
	if snap.IsEngine() {
		return fmt.Errorf("engine kind mismatch: peer %q, local %q", snap.Engine, KindBank)
	}
	if snap.Source != nil {
		// The joins below read snap.Registers; a live view would merge nothing.
		return fmt.Errorf("peer snapshot is a live view, not a decoded snapshot")
	}
	if disjoint {
		if _, ok := e.b.Algorithm().(bank.MergeAlgorithm); !ok {
			return fmt.Errorf("algorithm %q does not support merge", e.b.Algorithm().Name())
		}
	}
	alg, err := snap.Alg()
	if err != nil {
		return err
	}
	if alg != e.b.Algorithm() {
		return fmt.Errorf("algorithm mismatch: peer %s/%d-bit, local %s/%d-bit",
			snap.AlgName, snap.Width, e.b.Algorithm().Name(), e.b.BitsPerCounter())
	}
	if snap.N != e.b.Len() || snap.Shards != e.b.Shards() {
		return fmt.Errorf("shape mismatch: peer %d keys/%d shards, local %d/%d",
			snap.N, snap.Shards, e.b.Len(), e.b.Shards())
	}
	// The codec already rejects registers wider than the header width, and
	// the algorithm equality above pins that width to the bank's — but the
	// no-post-stage-failure invariant is too important to leave implicit in
	// another package: re-check here.
	maxReg := ^uint64(0) >> uint(64-e.b.BitsPerCounter())
	for i, v := range snap.Registers {
		if v > maxReg {
			return fmt.Errorf("register %d = %d exceeds %d-bit width", i, v, e.b.BitsPerCounter())
		}
	}
	return nil
}

// peerRange returns the key offset a peer snapshot's registers apply at.
// The partition count does not have to match the local serving split: the
// range is fully determined by (N, Parts, Partition), all validated by the
// codec, so any consistent split merges correctly.
func peerRange(snap *snapcodec.Snapshot) int {
	if !snap.IsPartition() {
		return 0
	}
	lo, _ := snapcodec.PartitionRange(snap.N, snap.Parts, snap.Partition)
	return lo
}

// Merge implements Engine via the paper's Remark 2.4 register merge
// (shardbank.MergeRange) — the disjoint-stream fold.
func (e *BankEngine) Merge(snap *snapcodec.Snapshot) error {
	return e.b.MergeRange(peerRange(snap), snap.Registers)
}

// MergeMax implements Engine via the register-wise maximum
// (shardbank.MergeMaxRange) — the idempotent same-stream replica join.
func (e *BankEngine) MergeMax(snap *snapcodec.Snapshot) error {
	return e.b.MergeMaxRange(peerRange(snap), snap.Registers)
}

// KeepRaised zeroes, in place, every register of a checked peer snapshot
// that a MergeMax of it would not raise (shardbank.RaisedRange) and
// returns how many non-zero registers it zeroed: a MergeMax of the result
// lands the same registers, and its snapshot logs only the raised ones.
func (e *BankEngine) KeepRaised(snap *snapcodec.Snapshot) (zeroed int, err error) {
	return e.b.RaisedRange(peerRange(snap), snap.Registers)
}

// ResetRange implements Engine: zeroes the registers of [lo, hi)
// (shardbank.ResetRange) — the partition evict after a rebalance handoff.
func (e *BankEngine) ResetRange(lo, hi int) error {
	return e.b.ResetRange(lo, hi)
}

// TakeDirty implements Engine, delegating to the bank's block bitmap: the
// bank's whole-snapshot register layout is its key order, so shardbank's
// dirty blocks are snapcodec blocks verbatim.
func (e *BankEngine) TakeDirty() ([]uint32, bool) { return e.b.TakeDirty(), true }

// ClearDirty implements Engine.
func (e *BankEngine) ClearDirty() { e.b.ClearDirty() }

// MarkDirty implements Engine.
func (e *BankEngine) MarkDirty(blocks []uint32) { e.b.MarkDirtyBlocks(blocks) }

// DirtyCount implements Engine.
func (e *BankEngine) DirtyCount() int { return e.b.DirtyBlocks() }

// BlockHashes implements Engine: per-block FNV-1a fingerprints of the
// partition's registers — the same registers (and the same fold) HashRange
// digests, cut at snapcodec block boundaries.
func (e *BankEngine) BlockHashes(part, parts int) ([]uint64, error) {
	lo, hi := 0, e.b.Len()
	if parts != 0 {
		lo, hi = snapcodec.PartitionRange(e.b.Len(), parts, part)
	}
	v, err := e.b.FreezeRange(lo, hi)
	if err != nil {
		return nil, err
	}
	defer v.Release()
	return blockHashes(v), nil
}
