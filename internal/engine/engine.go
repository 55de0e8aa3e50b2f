// Package engine defines the sketch-engine interface the durable,
// replicated serving stack programs against — the seam that separates
// "what the system stores" from "how it is served, logged, checkpointed,
// and replicated".
//
// Everything above this interface (internal/server's WAL + checkpoint
// store, internal/cluster's ring/outbox/anti-entropy, internal/client,
// cmd/counterd) speaks only Engine; everything below it is a concrete
// sketch. Five engines ship today:
//
//   - BankEngine ("bank", the default): the Morris/Csűrös/exact register
//     bank (internal/shardbank) — one approximate counter per key. Its
//     wire artifacts are pinned bit-identical to the pre-engine stack:
//     same WAL replay, same /snapshot bytes.
//   - TopKEngine ("topk"): ℓ₁ heavy hitters via SpaceSaving over
//     approximate registers (internal/heavyhitters.Summary, the [BDW19]
//     construction the paper cites) — the true top-k of the stream in
//     O(k · log log m) bits per partition instead of one counter per key.
//   - WindowEngine ("window"): sliding-window counting — a ring of B
//     time-bucket register banks per partition, rotated by a logical clock
//     carried in WAL tick records (never a wall clock on replay), with
//     windowed estimates, windowed top-k, and epoch-aligned merges. See
//     the Windowed interface.
//   - DistinctEngine ("distinct"): cardinality — "how many unique keys" —
//     via HLL-style rank registers, one 2^p-register bank per partition.
//     Draw-free: the register-wise maximum is the exact union for disjoint
//     streams and replicas alike, so Merge == MergeMax and anti-entropy
//     gets its idempotent join natively. DistinctWindowEngine rides the
//     window bucket ring for "uniques in the last N minutes".
//   - F2Engine ("f2"): the second frequency moment Σ f_k² via AMS
//     Tug-of-War sign sketches (the servable promotion of the
//     internal/freqmoments experiment) — rows × cols signed cells per
//     partition, median-of-means estimation, cell-wise addition as the
//     disjoint join. F2WindowEngine is the windowed flavor.
//
// Window, distinct and f2 are cell types over one bucket ring (ring.go):
// the ring owns rotation, the shard router, windowed reads, the epoch-aligned
// joins, dirty tracking and the payload codec; each engine is what one
// bucket stores plus an estimator.
//
// The contract an Engine signs up for, in exchange for durability and
// replication "for free":
//
//   - Determinism: ApplyBatch and Merge are pure functions of (state,
//     operation order) — all randomness comes from seed-derived generator
//     streams captured by Snapshot(withState) — so WAL replay onto a
//     checkpoint reconstructs the crashed engine exactly.
//   - Validate-before-stage: CheckPeer fully validates a peer snapshot
//     BEFORE the store WAL-stages it; a Merge/MergeMax of a checked
//     snapshot must not fail (a staged-but-failing record would fail
//     identically on every replay and brick the store).
//   - Two joins: Merge is the disjoint-stream fold (the paper's Remark 2.4
//     for registers, SpaceSaving union for summaries); MergeMax is the
//     idempotent same-stream replica join (register-wise max, max
//     takeover) that anti-entropy converges on.
//   - Key-range addressing: the key space [0, Len) is split by
//     snapcodec.PartitionRange; Snapshot and HashRange serve single
//     partitions so replication ships only owned slices.
//
// See docs/ENGINES.md for the full contract and per-engine merge
// semantics.
package engine

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/bank"
	"repro/internal/snapcodec"
)

// Entry is one ranked key in a top-k report.
type Entry struct {
	Key      int     `json:"key"`
	Estimate float64 `json:"estimate"`
}

// Engine is a serveable sketch over the integer key space [0, Len): the
// interface internal/server stores durably, internal/cluster replicates,
// and internal/client queries. Implementations are safe for concurrent
// use; the store serializes mutations (ApplyBatch, Merge, MergeMax) under
// its write lock so WAL order equals apply order.
type Engine interface {
	// Kind names the engine family ("bank", "topk", "window", "distinct",
	// "f2") — the dispatch tag in snapshot headers and the -engine flag
	// vocabulary.
	Kind() string
	// Len returns the key-space size n.
	Len() int
	// Seed returns the construction seed of the engine's deterministic
	// replay universe.
	Seed() uint64
	// Shards returns the engine's internal stripe count (lock stripes for
	// the bank, per-partition summaries for top-k, per-partition bucket
	// rings for window, distinct and f2).
	Shards() int
	// SizeBytes returns the physical footprint of the sketch state.
	SizeBytes() int
	// Algorithm returns the register algorithm stepping the engine's
	// counters (per key for the bank, per summary slot for top-k).
	Algorithm() bank.Algorithm
	// AlignPartitions returns the partition count the engine's internal
	// sharding requires — its partition snapshots and hashes only serve
	// ranges aligned to these — or 0 when any split of the key space works.
	AlignPartitions() int

	// ApplyBatch counts one event per key (keys already validated to
	// [0, Len) by the caller). Deterministic in batch order for a fixed
	// seed: the WAL replays batches in log order and must land on
	// identical state.
	ApplyBatch(keys []int)

	// Estimate returns N̂ for one (validated) key; engines that track only
	// a subset of keys (top-k) return 0 for untracked ones.
	Estimate(key int) float64
	// EstimateAll returns all n estimates in key order, in a fresh slice
	// the caller owns.
	EstimateAll() []float64
	// TopK returns up to k keys of the range [lo, hi) ranked by descending
	// estimate (ties toward the smaller key). The range must be aligned
	// for engines with AlignPartitions > 0; [0, Len) is always valid.
	TopK(k, lo, hi int) ([]Entry, error)

	// HashRange returns an order-dependent hash of the engine state
	// restricted to keys [lo, hi) — equal hashes across replicas mean (up
	// to collision) identical state, the anti-entropy pre-check.
	HashRange(lo, hi int) (uint64, error)

	// Snapshot captures the engine state as a snapcodec snapshot: the
	// whole key space (parts == 0) or one partition of a parts-way split.
	// withState additionally captures the generator streams (and any other
	// private state) needed for exact replay — checkpoints only, whole
	// snapshots only.
	Snapshot(part, parts int, withState bool) (*snapcodec.Snapshot, error)

	// CheckPeer validates a decoded peer snapshot for merging — engine
	// kind, algorithm, shape, and full payload validation — so that a
	// subsequent Merge (disjoint true) or MergeMax (disjoint false) of the
	// same snapshot cannot fail. Runs BEFORE the blob is WAL-staged.
	CheckPeer(snap *snapcodec.Snapshot, disjoint bool) error

	// Merge folds a checked peer snapshot via the engine's disjoint-stream
	// join. Deterministic: any randomness comes from the engine's own
	// generator streams in a fixed order.
	Merge(snap *snapcodec.Snapshot) error
	// MergeMax folds a checked peer snapshot via the engine's idempotent
	// same-stream replica join. Draws no randomness.
	MergeMax(snap *snapcodec.Snapshot) error

	// ResetRange zeroes the sketch state of keys [lo, hi) — the partition
	// evict behind the cluster's rebalance handoff: a surrendered
	// partition's registers are truncated once its new owners confirm
	// install, so stale copies can never max-join back in. The range must
	// be aligned for engines with AlignPartitions > 0. Draws no randomness,
	// so WAL-logged evicts replay bit-identically.
	ResetRange(lo, hi int) error

	// TakeDirty drains the engine's changed-block set: the
	// snapcodec.BlockLen-register blocks of the WHOLE-snapshot register
	// layout touched since the previous drain, strictly ascending. ok is
	// false for engines without block-addressable register sections (top-k,
	// f2: their state rides the engine payload); such engines always
	// checkpoint in full. The store calls this under its
	// write lock together with Snapshot, so the drained set covers exactly
	// the state the snapshot captured. Marking may overshoot (a listed block
	// whose registers are unchanged) but never undershoots.
	TakeDirty() (blocks []uint32, ok bool)
	// ClearDirty drains the changed-block set like TakeDirty but lists
	// nothing — the store's recovery drains a restored image this way.
	ClearDirty()
	// MarkDirty re-arms blocks drained by TakeDirty — the undo for a
	// checkpoint that failed after draining, so the next attempt still
	// covers them. Out-of-range indices are ignored.
	MarkDirty(blocks []uint32)
	// DirtyCount returns the current changed-block count without draining —
	// the observability gauge behind the delta-vs-full checkpoint decision.
	DirtyCount() int

	// BlockHashes returns per-block FNV-1a fingerprints of the register
	// section a Snapshot(part, parts, false) call would emit — block i
	// hashing registers [i·BlockLen, (i+1)·BlockLen) of that section — so
	// replicas can diff a partition block-wise and ship only divergent
	// blocks. parts == 0 covers the whole layout. Engines without
	// block-addressable sections return an error.
	BlockHashes(part, parts int) ([]uint64, error)
}

// RangeEstimator is an optional Engine extension for sketches whose
// natural answer is a scalar over a key range rather than per-key counts —
// a distinct engine's "uniques in [lo, hi)", an F2 engine's moment. The
// range must be aligned for engines with AlignPartitions > 0; partitions
// tile disjoint key ranges, so the scalars are additive across partitions
// (and across a cluster).
type RangeEstimator interface {
	RangeEstimate(lo, hi int) (float64, error)
}

// WindowRangeEstimator is the windowed companion of RangeEstimator: the
// scalar over [lo, hi) restricted to the trailing w buckets.
type WindowRangeEstimator interface {
	RangeEstimateWindow(lo, hi, w int) (float64, error)
}

// PeerRegisterCapper is an optional Engine extension declaring the decode
// cap for peer snapshot blobs. The store sizes it from Len() by default,
// which undershoots for engines whose register sections are not one
// register per key — a window engine's is buckets × Len(), a distinct
// engine's shards × buckets × 2^p. The bucket ring answers for every engine
// built on it. The codec applies the cap to the
// header's key-space field as well as the register count, so
// implementations return at least Len().
type PeerRegisterCapper interface {
	PeerRegisterCap() int
}

// FromSnapshot reconstructs the engine a snapshot was captured from — the
// checkpoint-restore dispatch: the engine kind in the header picks the
// implementation, and the header plus payload rebuild its exact state.
func FromSnapshot(snap *snapcodec.Snapshot) (Engine, error) {
	switch snap.Engine {
	case "":
		return BankFromSnapshot(snap)
	case KindTopK:
		return TopKFromSnapshot(snap)
	case KindWindow:
		return WindowFromSnapshot(snap)
	case KindDistinct:
		return DistinctFromSnapshot(snap)
	case KindF2:
		return F2FromSnapshot(snap)
	default:
		return nil, fmt.Errorf("engine: unknown engine kind %q", snap.Engine)
	}
}

// SnapshotTo streams an engine snapshot (see Engine.Snapshot) to w.
func SnapshotTo(w io.Writer, e Engine, part, parts int, withState bool) error {
	snap, err := e.Snapshot(part, parts, withState)
	if err != nil {
		return err
	}
	defer snap.Release()
	return snapcodec.EncodeTo(w, snap)
}

// topkPush inserts (key, v) into out, a ≤ k-entry buffer kept sorted by
// descending estimate with ties toward the smaller key — the shared
// selection-by-insertion accumulator of the bucket ring's TopK (keys for
// window, partitions for distinct and f2). k is a report size, not a scan size, so insertion into a
// small sorted buffer beats any heap bookkeeping.
func topkPush(out []Entry, k, key int, v float64) []Entry {
	if len(out) == k && v <= out[k-1].Estimate {
		return out
	}
	i := sort.Search(len(out), func(i int) bool { return out[i].Estimate < v })
	out = append(out, Entry{})
	copy(out[i+1:], out[i:])
	out[i] = Entry{Key: key, Estimate: v}
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// fnv1a64 folds 64-bit words into an FNV-1a hash byte by byte — the shared
// register/slot hashing of HashRange implementations (identical to the
// pre-engine Store.PartitionHash).
type fnv1a64 uint64

func newFNV() fnv1a64 { return 14695981039346656037 }

func (h *fnv1a64) word(v uint64) {
	x := uint64(*h)
	for i := 0; i < 8; i++ {
		x ^= (v >> (8 * i)) & 0xFF
		x *= 1099511628211
	}
	*h = fnv1a64(x)
}

func (h fnv1a64) sum() uint64 { return uint64(h) }
