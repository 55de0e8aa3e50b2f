package server

import (
	"fmt"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/snapcodec"
)

// versions counts writes per key-space partition and memoises the partition
// probes against the counts. Its one invariant: every mutation bumps the
// versions of the partitions it moved after its registers landed. The
// cluster's anti-entropy also reads the versions as a quiescence signal: a
// partition whose version still moves has replication in flight (see
// internal/cluster). Lock-free: all atomics.
type versions struct {
	n     int // key-space size
	ver   []atomic.Uint64
	hash  []atomic.Pointer[memo[uint64]]
	block []atomic.Pointer[memo[[]uint64]]

	memos, scans *metrics.Counter // probes answered from the memo, or by reading registers
}

// memo is a probe's answer at one partition version.
type memo[T any] struct {
	ver uint64
	val T
}

func newVersions(n, parts int) *versions {
	return &versions{
		n:     n,
		ver:   make([]atomic.Uint64, parts),
		hash:  make([]atomic.Pointer[memo[uint64]], parts),
		block: make([]atomic.Pointer[memo[[]uint64]], parts),
	}
}

// register adds the probe counters to reg.
func (v *versions) register(reg *metrics.Registry) {
	hv := reg.CounterVec("counterd_store_partition_hash_total",
		"Partition hash and block-hash probes, by source: memo (partition unwritten since the last probe, no register read) or scan (registers re-read and re-hashed).", "source")
	v.memos, v.scans = hv.With("memo"), hv.With("scan")
}

// bumpAll advances every partition's version — a bucket rotation mutates
// all partitions' serialized state at once.
func (v *versions) bumpAll() {
	for p := range v.ver {
		v.ver[p].Add(1)
	}
}

// bumpKeys advances the version of every partition the batch touches.
func (v *versions) bumpKeys(keys []int) {
	parts := len(v.ver)
	if parts == 1 {
		v.ver[0].Add(1)
		return
	}
	last := -1
	for _, k := range keys {
		if p := snapcodec.PartitionOf(k, v.n, parts); p != last {
			v.ver[p].Add(1)
			last = p
		}
	}
}

// bumpRange advances the version of every partition overlapping the key
// range [lo, hi).
func (v *versions) bumpRange(lo, hi int) {
	if hi <= lo {
		return
	}
	parts := len(v.ver)
	for p := snapcodec.PartitionOf(lo, v.n, parts); p <= snapcodec.PartitionOf(hi-1, v.n, parts); p++ {
		v.ver[p].Add(1)
	}
}

// guard refuses a version-guarded write when partition p has moved past
// want; VersionAny accepts any version.
func (v *versions) guard(p int, want uint64) error {
	if want != VersionAny && v.ver[p].Load() != want {
		return fmt.Errorf("%w: partition %d moved past version %d", ErrConflict, p, want)
	}
	return nil
}

// memoised answers a per-partition probe from slot when the partition has
// not been written since the slot was filled, and otherwise runs scan and
// refills it — only if the version read BEFORE the scan still holds after
// it: a caller that reads PartitionVersion first and finds it equal to a
// later read saw the hashes of exactly that version.
func memoised[T any](v *versions, slot *atomic.Pointer[memo[T]], p int, scan func() (T, error)) (T, error) {
	ver := v.ver[p].Load()
	if m := slot.Load(); m != nil && m.ver == ver {
		v.memos.Inc()
		return m.val, nil
	}
	v.scans.Inc()
	val, err := scan()
	if err == nil && v.ver[p].Load() == ver {
		slot.Store(&memo[T]{ver: ver, val: val})
	}
	return val, err
}

// PartitionVersion returns the write version of partition p: any local
// mutation of the partition's registers (increment, merge, restore) moves
// it. Monotone within a process lifetime; not persisted.
func (st *Store) PartitionVersion(p int) uint64 {
	if p < 0 || p >= len(st.vers.ver) {
		return 0
	}
	return st.vers.ver[p].Load()
}

// PartitionHash returns an order-dependent 64-bit hash of partition p's
// engine state — equal hashes across replicas mean (up to hash collision)
// identical state, which is what the cluster's anti-entropy checks before
// deciding a merge is needed. Memoised against PartitionVersion(p): a
// partition unwritten since the last call answers without a register read.
func (st *Store) PartitionHash(p int) (uint64, error) {
	if err := st.checkPartition(p); err != nil {
		return 0, err
	}
	return memoised(st.vers, &st.vers.hash[p], p, func() (uint64, error) {
		lo, hi := snapcodec.PartitionRange(st.eng.Len(), st.cfg.Partitions, p)
		return st.eng.HashRange(lo, hi)
	})
}

// PartitionBlockHashes returns per-block FNV-1a fingerprints of partition
// p's snapshot register section — the block-granular refinement of
// PartitionHash the delta anti-entropy diffs to decide which blocks to
// ship. Engines without a register block layout (top-k) return ErrBadInput;
// callers fall back to whole-partition sync. Memoised like PartitionHash;
// the returned slice is shared with later callers — treat it as read-only.
func (st *Store) PartitionBlockHashes(p int) ([]uint64, error) {
	if err := st.checkPartition(p); err != nil {
		return nil, err
	}
	return memoised(st.vers, &st.vers.block[p], p, func() ([]uint64, error) {
		hashes, err := st.eng.BlockHashes(p, st.cfg.Partitions)
		return hashes, badInput(err)
	})
}
