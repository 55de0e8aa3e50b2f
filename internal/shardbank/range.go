// Key-range operations for the sharded bank: merging into and resetting a
// contiguous slice of the key space (reading one is view.go's FreezeRange).
// These are the storage half of the cluster's partition exchange
// (internal/cluster): a partition is a key range [lo, hi), anti-entropy
// ships its registers as a compressed snapshot, and the receiver folds them
// in with one of two joins —
//
//   - MergeRange: the paper's Remark 2.4 merge, for counters that absorbed
//     DISJOINT streams (cross-cluster ingest, examples/distributed). The
//     merged register is distributed as one counter that saw both streams.
//   - MergeMaxRange: the register-wise maximum, for replicas that absorbed
//     the SAME logical stream. Registers are monotone under increments, so
//     max is an idempotent, commutative, associative join — repeated
//     anti-entropy rounds converge replicas to identical registers instead
//     of double-counting the shared stream the way Remark 2.4 would.
package shardbank

import (
	"fmt"
	"runtime"

	"repro/internal/bank"
)

// checkRange validates a key range against the bank shape.
func (b *Bank) checkRange(lo, hi int) error {
	if lo < 0 || hi > b.n || lo > hi {
		return fmt.Errorf("shardbank: key range [%d, %d) outside [0, %d)", lo, hi, b.n)
	}
	return nil
}

// firstInShard returns the smallest key ≥ lo that lives in shard si.
func (b *Bank) firstInShard(lo, si int) int {
	return lo + (si-lo)&int(b.mask) // two's complement: the mask also folds a negative difference
}

// MergeMaxRange folds regs (the registers of keys [lo, lo+len(regs)) from a
// replica of identical shape) into the bank as a register-wise maximum. It
// draws no randomness and is idempotent, so replicas exchanging ranges in
// both directions converge to identical registers. On a validation error
// the bank is unmodified.
func (b *Bank) MergeMaxRange(lo int, regs []uint64) error {
	hi := lo + len(regs)
	if err := b.checkRange(lo, hi); err != nil {
		return err
	}
	maxReg := ^uint64(0) >> uint(64-b.alg.Width())
	for i, v := range regs {
		if v > maxReg {
			return fmt.Errorf("shardbank: merge register %d = %d exceeds %d-bit width",
				lo+i, v, b.alg.Width())
		}
	}
	p := len(b.shards)
	for si, s := range b.shards {
		first := b.firstInShard(lo, si)
		if first >= hi {
			continue
		}
		s.mu.Lock()
		for k := first; k < hi; k += p {
			local := k >> b.shift
			// A zero raises nothing: skip its register read, which is most
			// of a fresh ring's install (all zeros) and of a reduced join.
			if v := regs[k-lo]; v != 0 && v > s.get(local) {
				b.set(si, local, v)
			}
		}
		s.mu.Unlock()
	}
	runtime.KeepAlive(b)
	return nil
}

// RaisedRange zeroes, in place, every value of regs (the registers of keys
// [lo, lo+len(regs)) from a replica of identical shape) that does not
// exceed the bank's register, so regs keeps only what MergeMaxRange would
// raise, and returns how many non-zero values it zeroed. A MergeMaxRange of
// the result leaves the same registers and marks the same dirty blocks as
// one of the original regs: max(a, b) equals max(a, b if b > a else 0). It
// reads the bank under each shard's lock and changes nothing in it; a
// caller that must apply the reduced regs to the state they were reduced
// against serializes the two itself. On a validation error regs is
// unmodified.
func (b *Bank) RaisedRange(lo int, regs []uint64) (zeroed int, err error) {
	hi := lo + len(regs)
	if err := b.checkRange(lo, hi); err != nil {
		return 0, err
	}
	p := len(b.shards)
	for si, s := range b.shards {
		first := b.firstInShard(lo, si)
		if first >= hi {
			continue
		}
		s.mu.Lock()
		for k := first; k < hi; k += p {
			if v := &regs[k-lo]; *v != 0 && *v <= s.get(k>>b.shift) {
				*v = 0
				zeroed++
			}
		}
		s.mu.Unlock()
	}
	runtime.KeepAlive(b)
	return zeroed, nil
}

// ResetRange zeroes the registers of keys [lo, hi) — the storage half of a
// partition evict: after a surrendered partition's new owners confirm their
// installs, the old owner truncates its copy so a later stale max-join
// cannot ratchet the dead registers back into the cluster. Draws no
// randomness; WAL-logged evicts replay bit-identically. It is the one
// operation that lowers registers, so it holds every shard lock while it
// zeroes and then recomputes the block maxima it invalidated (blockmax.go).
func (b *Bank) ResetRange(lo, hi int) error {
	if err := b.checkRange(lo, hi); err != nil {
		return err
	}
	if lo == hi {
		return nil
	}
	b.lockAll()
	defer b.unlockAll()
	for k := lo; k < hi; k++ {
		si, local := int(uint64(k)&b.mask), k>>b.shift
		if s := b.shards[si]; s.get(local) != 0 {
			b.cow(si, local)
			b.put(s, local, 0)
			b.dirty.Mark(k)
		}
	}
	b.rebuildBlockMax(lo, hi)
	return nil
}

// MergeRange folds regs (the registers of keys [lo, lo+len(regs)) from a
// bank of identical shape that counted a DISJOINT stream) into the bank via
// the paper's Remark 2.4 merge. The subsampling draws come from the
// receiver's shard generators, consumed in shard order then key order — a
// deterministic order, so a WAL-logged range merge replays bit-identically.
// On a validation error the bank is unmodified.
func (b *Bank) MergeRange(lo int, regs []uint64) error {
	ma, ok := b.alg.(bank.MergeAlgorithm)
	if !ok {
		return fmt.Errorf("shardbank: algorithm %q does not support merge", b.alg.Name())
	}
	hi := lo + len(regs)
	if err := b.checkRange(lo, hi); err != nil {
		return err
	}
	maxReg := ^uint64(0) >> uint(64-b.alg.Width())
	for i, v := range regs {
		if v > maxReg {
			return fmt.Errorf("shardbank: merge register %d = %d exceeds %d-bit width",
				lo+i, v, b.alg.Width())
		}
	}
	p := len(b.shards)
	for si, s := range b.shards {
		first := b.firstInShard(lo, si)
		if first >= hi {
			continue
		}
		s.mu.Lock()
		for k := first; k < hi; k += p {
			local := k >> b.shift
			old := s.get(local)
			if merged := ma.MergeRegs(old, regs[k-lo], s.rng); merged != old {
				b.set(si, local, merged)
			}
		}
		s.mu.Unlock()
	}
	runtime.KeepAlive(b)
	return nil
}
