// Package server turns an in-memory sketch engine into a durable,
// restartable network service. It has two halves:
//
//   - Store: the persistence layer over a pluggable internal/engine sketch
//     (the Morris/Csűrös/exact register bank by default, the SpaceSaving
//     heavy-hitters engine with Config.Engine "topk", the sliding-window
//     engine with "window"). Every write is staged to the WAL and applied
//     to the engine under one lock, so log order equals apply order — the
//     invariant that makes recovery exact. For windowed engines that
//     includes time itself: the store observes the bucket clock once per
//     write (and on AdvanceWindow) and stages the epoch as a tick record,
//     so rotation is part of the logged operation order. Recovery loads
//     the newest snapcodec checkpoint (engine state + its generator
//     streams) and replays the WAL segments at or after it; with no
//     checkpoint it rebuilds from the seed and the full log. Either way
//     the recovered state is bit-identical to the pre-crash engine,
//     because every engine's batched apply is deterministic in batch order
//     and its rng streams are part of the checkpoint.
//
//   - HTTP handler (http.go): POST /inc, GET /estimate/{key},
//     GET /estimates, GET /topk (all three accepting ?window= on windowed
//     engines), GET /snapshot (a streamed snapcodec snapshot), POST /merge
//     (ingest a peer snapshot via the engine's disjoint-stream join),
//     POST /mergemax (replica join), GET /healthz.
//
// Checkpoints pair a WAL rotation with a state write: rotate (the new
// segment number S becomes the checkpoint tag), export the engine state,
// write snap-S.nysc atomically (tmp + rename + dir fsync), then delete
// snapshots and WAL segments older than S. When the engine tracks dirty
// blocks and little changed since the previous checkpoint, the write is a
// block delta (snap-S.nysd) chained onto it instead — cost proportional to
// churn — and recovery splices full + deltas + WAL tail. A crash at any
// point leaves either the old checkpoint plus a longer log, or the new
// checkpoint plus a shorter one — both replay to the same state.
package server

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bank"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/shardbank"
	"repro/internal/snapcodec"
	"repro/internal/wal"
)

const (
	snapPrefix  = "snap-"
	snapSuffix  = ".nysc"
	deltaSuffix = ".nysd"
)

// ErrBadInput marks failures caused by the caller's request (out-of-range
// key, oversized batch, malformed or mismatched peer snapshot) as opposed
// to server faults (WAL write/sync errors). The HTTP layer maps it to 400;
// everything else becomes 500.
var ErrBadInput = errors.New("bad input")

// ErrConflict reports that a partition's write version moved between the
// caller's read and a version-guarded apply — the base state the caller
// computed against is stale. The HTTP layer maps it to 409; the caller
// retries from a fresh read.
var ErrConflict = errors.New("version conflict")

// VersionAny disables MergeMaxDelta's optimistic version guard: the caller
// accepts materializing against whatever the partition holds now.
const VersionAny = ^uint64(0)

// Config describes the engine a Store serves and where it persists.
type Config struct {
	Dir    string
	N      int
	Shards int
	Alg    bank.Algorithm
	Seed   uint64
	// Engine selects the sketch engine: "bank" (default — one register per
	// key), "topk" (SpaceSaving heavy hitters, one summary per partition),
	// "window" (sliding-window bucket banks), "distinct" (HLL cardinality,
	// one register bank per partition), or "f2" (AMS second frequency
	// moment, one sign sketch per partition). Ignored when the data dir
	// has a checkpoint: the on-disk engine kind is the source of truth for
	// an existing store.
	Engine string
	// TopKCap is the slot capacity per partition summary of the "topk"
	// engine (0 = 64).
	TopKCap int
	// DistinctPrecision is the "distinct" engine's register precision p —
	// 2^p HLL registers per partition bucket, relative error ≈ 1.04/2^(p/2)
	// (0 = 12, i.e. 4096 registers, ≈ 1.6%).
	DistinctPrecision int
	// F2Rows × F2Cols shape the "f2" engine's AMS sketch: cols estimators
	// averaged per row, median across rows (0 = 5 rows, 64 cols).
	F2Rows int
	F2Cols int
	// Buckets is the ring length B of a windowed engine — the widest
	// queryable window, in buckets (0 = 8 for the "window" engine). For
	// "distinct" and "f2", Buckets > 0 selects the windowed flavor.
	Buckets int
	// BucketDur is the "window" engine's wall-clock bucket width (0 = 1m);
	// the serving window spans Buckets × BucketDur. Like every other piece
	// of engine shape it is ignored when the data dir has a checkpoint.
	BucketDur time.Duration
	// Clock overrides the windowed engines' bucket-epoch source (tests;
	// nil = wall clock divided by the bucket width). The epoch each write
	// observes is WAL-logged, so replay never consults this.
	Clock func() uint64
	// SegmentBytes is the WAL rotation threshold (0 = wal default).
	SegmentBytes int64
	// NoSync disables WAL fsync (tests/benchmarks only); it overrides Sync.
	NoSync bool
	// Sync is the WAL fsync durability policy (default wal.SyncAlways).
	Sync wal.SyncPolicy
	// SyncInterval is the background fsync cadence under wal.SyncInterval.
	SyncInterval time.Duration
	// MaxBatch caps the keys accepted in one increment batch (0 = 1<<16).
	MaxBatch int
	// Partitions splits the key space into contiguous ranges served by
	// GET /snapshot/{p} — the unit of cluster replication and anti-entropy
	// (0 = 1, the whole bank as a single partition).
	Partitions int
	// Metrics is the registry this store (and its WAL) instruments; nil
	// makes the store create its own. Per-instance, never process-global:
	// cluster tests run several stores in one process and each must scrape
	// independently.
	Metrics *metrics.Registry
	// DeltaFraction caps how much of the register layout may be dirty for a
	// checkpoint to be written as a block delta instead of a full snapshot:
	// delta when dirtyBlocks ≤ DeltaFraction × totalBlocks (0 = 0.5).
	// Negative disables delta checkpoints entirely.
	DeltaFraction float64
	// MaxDeltaChain bounds consecutive delta checkpoints between full ones
	// (0 = 8): recovery loads the full snapshot plus at most this many
	// deltas before replaying the WAL tail.
	MaxDeltaChain int
}

// Store is the durable sketch service: engine + WAL + checkpoints.
type Store struct {
	cfg Config
	eng engine.Engine
	log *wal.Log

	// windowed is non-nil when eng is a sliding-window engine; clock is its
	// bucket-epoch source. Epochs are observed once on the live write path
	// and WAL-logged as tick records, never re-derived on replay.
	windowed engine.Windowed
	clock    func() uint64

	// writeMu serializes Stage+apply so WAL record order always equals
	// engine apply order. Group commit (wal.Commit) happens outside it, so
	// the lock is never held across an fsync.
	writeMu sync.Mutex

	// partVer counts writes per key-space partition (increments, merges).
	// The cluster's anti-entropy uses it as a quiescence signal: a
	// partition whose version is still moving has replication in flight and
	// should not be force-merged (see internal/cluster).
	partVer []atomic.Uint64

	// hashMemo and blockMemo remember each partition's last PartitionHash
	// and PartitionBlockHashes answer together with the partVer it was
	// computed at, so probing a partition nobody wrote to touches no
	// register. Every mutation bumps partVer after it lands, which is what
	// retires an entry.
	hashMemo  []atomic.Pointer[memo[uint64]]
	blockMemo []atomic.Pointer[memo[[]uint64]]

	// Rebalance ownership state (internal/cluster): the last RecOwn epoch
	// minus installs observed since (merge records carry the partition they
	// landed in), plus the partitions still held frozen for surrender.
	// Mirrors the log both live and on replay, so a crashed node recovers
	// exactly which transfers it still owes or is owed.
	ownMu      sync.Mutex
	ownRing    uint64
	ownPending map[int]bool
	ownFrozen  map[int]bool
	ownOwned   map[int]bool
	ownLogged  bool

	ckptSeq   atomic.Uint64 // WAL segment tagged by the newest checkpoint
	chainLen  atomic.Int64  // delta checkpoints since the newest full one
	lastCkpt  atomic.Int64  // unix nanos of last successful checkpoint
	recovered wal.ReplayStats
	fromSnap  bool
	started   time.Time

	// Operation counters live in the metrics registry (one atomic each);
	// Stats() and /metrics read the same values. Replay increments them
	// too, matching the pre-metrics /healthz semantics: the counts cover
	// every record applied this process lifetime, recovered or live.
	metrics   *metrics.Registry
	batches   *metrics.Counter
	keys      *metrics.Counter
	merges    *metrics.Counter
	mergeMaxs *metrics.Counter
	evicts    *metrics.Counter
	ticks     *metrics.Counter
	deltaMaxs *metrics.Counter
	stales    *metrics.Counter
	hashMemos *metrics.Counter   // partition hash probes answered from the memo
	hashScans *metrics.Counter   // partition hash probes that read the registers
	mApply    *metrics.Histogram // durable apply latency (stage+apply+commit)
	mBatchLen *metrics.Histogram // keys per applied batch
	mCkpt     *metrics.Histogram // checkpoint duration

	// Checkpoint accounting by kind (full vs block delta).
	ckptFull       *metrics.Counter
	ckptDelta      *metrics.Counter
	ckptBytesFull  *metrics.Counter
	ckptBytesDelta *metrics.Counter

	// wireAddr/wireProto describe the binary wire listener, when one is up
	// (set once by SetWireInfo before serving; read by Stats for /healthz).
	wireAddr  atomic.Pointer[string]
	wireProto atomic.Int64
}

// SetWireInfo records the advertised wire-listener address and protocol
// version so /healthz can report them. Call once, before serving traffic;
// an empty addr leaves the stats fields absent.
func (st *Store) SetWireInfo(addr string, proto int) {
	st.wireAddr.Store(&addr)
	st.wireProto.Store(int64(proto))
}

// Open opens (or initializes) a durable store in cfg.Dir. When a checkpoint
// snapshot exists its header overrides cfg's bank shape — the on-disk state
// is the source of truth for an existing store.
func Open(cfg Config) (*Store, error) {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 1 << 16
	}
	if cfg.Partitions <= 0 {
		cfg.Partitions = 1
	}
	if cfg.Partitions > snapcodec.MaxPartitions {
		return nil, fmt.Errorf("server: %d partitions exceeds %d", cfg.Partitions, snapcodec.MaxPartitions)
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	st := &Store{cfg: cfg, started: time.Now()}

	snapSeq, snap, err := newestSnapshot(cfg.Dir)
	if err != nil {
		return nil, err
	}
	if snap != nil {
		// Replay the delta chain on top of the full snapshot: each delta
		// splices its changed blocks, landing on the exact state the newest
		// checkpoint captured. The WAL below that checkpoint is gone, so a
		// broken chain is a loud error, never a silent fallback.
		chain, chainSeq, err := applyDeltaChain(cfg.Dir, snapSeq, snap)
		if err != nil {
			return nil, err
		}
		st.eng, err = engine.FromSnapshot(snap)
		if err != nil {
			return nil, fmt.Errorf("server: checkpoint %d: %w", chainSeq, err)
		}
		st.ckptSeq.Store(chainSeq)
		st.chainLen.Store(int64(chain))
		st.fromSnap = true
	} else {
		// Delta checkpoints without their full base cannot be restored, and
		// the WAL they tagged was truncated — rebuilding from the seed would
		// silently lose data.
		if seqs, err := listSeqs(cfg.Dir, deltaSuffix); err != nil {
			return nil, err
		} else if len(seqs) > 0 {
			return nil, fmt.Errorf("server: delta checkpoint %d present but no full snapshot to base it on", seqs[len(seqs)-1])
		}
		if cfg.N <= 0 || cfg.Alg == nil {
			return nil, errors.New("server: empty store and no engine shape configured")
		}
		switch cfg.Engine {
		case "", engine.KindBank:
			shards := cfg.Shards
			if shards <= 0 {
				shards = 64
			}
			st.eng = engine.NewBank(shardbank.New(cfg.N, cfg.Alg, shards, cfg.Seed))
		case engine.KindTopK:
			k := cfg.TopKCap
			if k <= 0 {
				k = 64
			}
			st.eng, err = engine.NewTopK(cfg.N, cfg.Alg, st.cfg.Partitions, k, cfg.Seed)
			if err != nil {
				return nil, fmt.Errorf("server: %w", err)
			}
		case engine.KindWindow:
			b := cfg.Buckets
			if b <= 0 {
				b = 8
			}
			dur := cfg.BucketDur
			if dur <= 0 {
				dur = time.Minute
			}
			st.eng, err = engine.NewWindow(cfg.N, cfg.Alg, st.cfg.Partitions, b, int64(dur), cfg.Seed)
			if err != nil {
				return nil, fmt.Errorf("server: %w", err)
			}
		case engine.KindDistinct:
			p := cfg.DistinctPrecision
			if p <= 0 {
				p = 12
			}
			// Buckets > 0 selects the windowed flavor ("uniques in the last
			// N minutes"); otherwise the sketch counts uniques forever.
			if cfg.Buckets > 0 {
				dur := cfg.BucketDur
				if dur <= 0 {
					dur = time.Minute
				}
				st.eng, err = engine.NewDistinctWindow(cfg.N, st.cfg.Partitions, p, cfg.Buckets, int64(dur), cfg.Seed)
			} else {
				st.eng, err = engine.NewDistinct(cfg.N, st.cfg.Partitions, p, cfg.Seed)
			}
			if err != nil {
				return nil, fmt.Errorf("server: %w", err)
			}
		case engine.KindF2:
			rows, cols := cfg.F2Rows, cfg.F2Cols
			if rows <= 0 {
				rows = 5
			}
			if cols <= 0 {
				cols = 64
			}
			if cfg.Buckets > 0 {
				dur := cfg.BucketDur
				if dur <= 0 {
					dur = time.Minute
				}
				st.eng, err = engine.NewF2Window(cfg.N, st.cfg.Partitions, rows, cols, cfg.Buckets, int64(dur), cfg.Seed)
			} else {
				st.eng, err = engine.NewF2(cfg.N, st.cfg.Partitions, rows, cols, cfg.Seed)
			}
			if err != nil {
				return nil, fmt.Errorf("server: %w", err)
			}
		default:
			return nil, fmt.Errorf("server: unknown engine %q (want %s | %s | %s | %s | %s)",
				cfg.Engine, engine.KindBank, engine.KindTopK, engine.KindWindow,
				engine.KindDistinct, engine.KindF2)
		}
	}
	// Windowed engines need an epoch source for the live write path; the
	// engine's (possibly restored) bucket width defines the wall-clock
	// mapping unless the caller injected one.
	if w, ok := st.eng.(engine.Windowed); ok {
		st.windowed = w
		st.clock = cfg.Clock
		if st.clock == nil {
			bn := w.BucketNanos()
			if bn <= 0 {
				bn = int64(time.Minute)
			}
			st.clock = func() uint64 { return uint64(time.Now().UnixNano() / bn) }
		}
	}
	// Engines with internal sharding pin the serving partition count — on a
	// restore the on-disk stripe count wins over the configured one, like
	// every other piece of on-disk shape.
	if ap := st.eng.AlignPartitions(); ap > 0 {
		st.cfg.Partitions = ap
	}

	st.partVer = make([]atomic.Uint64, st.cfg.Partitions)
	st.hashMemo = make([]atomic.Pointer[memo[uint64]], st.cfg.Partitions)
	st.blockMemo = make([]atomic.Pointer[memo[[]uint64]], st.cfg.Partitions)
	st.ownPending = make(map[int]bool)
	st.ownFrozen = make(map[int]bool)
	st.ownOwned = make(map[int]bool)
	st.initMetrics(cfg.Metrics)

	// A snapshot restore marks the whole register layout dirty (the engine
	// cannot know the image it loaded is the durable checkpoint itself).
	// Drain that here, BEFORE replay, so the bitmap tracks exactly the
	// blocks touched since the newest checkpoint: the replay below re-marks
	// the tail's writes through the ordinary apply paths, and the next
	// checkpoint's delta covers precisely checkpoint-to-now churn.
	st.eng.TakeDirty()

	st.recovered, err = wal.Replay(cfg.Dir, st.ckptSeq.Load(), st.applyRecord)
	if err != nil {
		return nil, fmt.Errorf("server: recovery: %w", err)
	}
	// Remove a torn tail now, while its segment is still the final one:
	// wal.Open below starts a fresh segment, after which an unrepaired torn
	// record would read as mid-log corruption on the next recovery.
	if err := wal.RepairTorn(cfg.Dir, st.recovered); err != nil {
		return nil, fmt.Errorf("server: recovery: %w", err)
	}
	st.log, err = wal.Open(cfg.Dir, wal.Options{
		SegmentBytes: cfg.SegmentBytes,
		NoSync:       cfg.NoSync,
		Policy:       cfg.Sync,
		Interval:     cfg.SyncInterval,
		Metrics:      st.metrics,
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}

// initMetrics registers the store's instruments into reg (creating a
// fresh registry when nil) and wires the scrape-time gauges. Runs before
// WAL replay so recovered records count like live ones.
func (st *Store) initMetrics(reg *metrics.Registry) {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	st.metrics = reg
	kind := st.eng.Kind()
	st.batches = reg.CounterVec("counterd_store_apply_batches_total",
		"Increment batches applied (live and replayed), by engine.", "engine").With(kind)
	st.keys = reg.CounterVec("counterd_store_apply_keys_total",
		"Keys counted across applied batches (live and replayed), by engine.", "engine").With(kind)
	mv := reg.CounterVec("counterd_store_merges_total",
		"Peer snapshots folded in, by join kind (disjoint Remark-2.4 merge, replica max-join, block-delta max-join).", "kind")
	st.merges = mv.With("disjoint")
	st.mergeMaxs = mv.With("max")
	st.deltaMaxs = mv.With("delta")
	st.stales = reg.Counter("counterd_store_stale_hint_keys_total",
		"Epoch-tagged hint keys dropped because their origin bucket rotated out in transit.")
	hv := reg.CounterVec("counterd_store_partition_hash_total",
		"Partition hash and block-hash probes, by source: memo (partition unwritten since the last probe, no register read) or scan (registers re-read and re-hashed).", "source")
	st.hashMemos = hv.With("memo")
	st.hashScans = hv.With("scan")
	st.evicts = reg.Counter("counterd_store_evicts_total",
		"Partitions truncated after a rebalance surrender.")
	st.ticks = reg.Counter("counterd_store_ticks_total",
		"Window bucket rotations applied (windowed engines).")
	st.mApply = reg.HistogramVec("counterd_store_apply_seconds",
		"Durable apply latency per batch: WAL stage + engine apply + group commit.",
		metrics.LatencyBuckets, "engine").With(kind)
	st.mBatchLen = reg.Histogram("counterd_store_batch_keys",
		"Keys per applied increment batch.", metrics.SizeBuckets)
	st.mCkpt = reg.Histogram("counterd_checkpoint_seconds",
		"Checkpoint duration: rotate + snapshot + fsync + GC.", metrics.ExpBuckets(1e-3, 2, 16))
	cv := reg.CounterVec("counterd_checkpoint_total",
		"Checkpoints written, by kind (full snapshot vs block delta).", "kind")
	st.ckptFull = cv.With("full")
	st.ckptDelta = cv.With("delta")
	cb := reg.CounterVec("counterd_checkpoint_bytes_total",
		"Checkpoint bytes written to disk, by kind (full snapshot vs block delta).", "kind")
	st.ckptBytesFull = cb.With("full")
	st.ckptBytesDelta = cb.With("delta")
	reg.GaugeFunc("counterd_store_dirty_blocks",
		"Register blocks written since the last checkpoint (the next delta's size, in blocks).",
		func() float64 { return float64(st.eng.DirtyCount()) })
	reg.GaugeFunc("counterd_checkpoint_chain_len",
		"Delta checkpoints since the newest full one (recovery loads the full plus this many deltas).",
		func() float64 { return float64(st.chainLen.Load()) })
	reg.Gauge("counterd_store_keyspace_keys",
		"Keys in the serving key space (engine length).").Set(float64(st.eng.Len()))
	reg.Gauge("counterd_store_partitions",
		"Key-space partitions (the replication/handoff unit).").Set(float64(st.cfg.Partitions))
	reg.GaugeFunc("counterd_store_pending_partitions",
		"Partitions still awaiting their rebalance install (reads 421-shadow while > 0).",
		func() float64 {
			st.ownMu.Lock()
			defer st.ownMu.Unlock()
			return float64(len(st.ownPending))
		})
	reg.GaugeFunc("counterd_store_frozen_partitions",
		"Surrendered partition copies held frozen for handoff.",
		func() float64 {
			st.ownMu.Lock()
			defer st.ownMu.Unlock()
			return float64(len(st.ownFrozen))
		})
	reg.GaugeFunc("counterd_checkpoint_seq",
		"WAL segment tagged by the newest checkpoint.",
		func() float64 { return float64(st.ckptSeq.Load()) })
	reg.GaugeFunc("counterd_checkpoint_last_unixtime",
		"Unix time of the last successful checkpoint (0 before the first).",
		func() float64 {
			ns := st.lastCkpt.Load()
			if ns <= 0 {
				return 0
			}
			return float64(ns) / 1e9
		})
	reg.Gauge("counterd_store_start_time_seconds",
		"Unix time this store opened.").Set(float64(st.started.UnixNano()) / 1e9)
}

// Metrics returns the store's registry — the one /metrics renders and
// every layer serving this store (wire listener, cluster node) registers
// into.
func (st *Store) Metrics() *metrics.Registry { return st.metrics }

// Ready reports whether the store can durably accept writes: nil while
// the WAL is open and unpoisoned. The base /readyz check; the cluster
// layer adds ring-reconciliation on top.
func (st *Store) Ready() error {
	return st.log.Healthy()
}

// applyRecord applies one replayed WAL record to the engine.
func (st *Store) applyRecord(rec wal.Record) error {
	switch rec.Type {
	case wal.RecBatch:
		for _, k := range rec.Keys {
			if k < 0 || k >= st.eng.Len() {
				return fmt.Errorf("server: replayed key %d out of range [0,%d)", k, st.eng.Len())
			}
		}
		st.eng.ApplyBatch(rec.Keys)
		st.batches.Add(1)
		st.keys.Add(uint64(len(rec.Keys)))
	case wal.RecMerge:
		snap, err := st.decodePeer(rec.Blob, true)
		if err != nil {
			return fmt.Errorf("server: replayed merge: %w", err)
		}
		if err := st.eng.Merge(snap); err != nil {
			return fmt.Errorf("server: replayed merge: %w", err)
		}
		st.noteInstall(snap)
		st.merges.Add(1)
	case wal.RecMergeMax:
		// A max-join blob is either a full peer snapshot or a block delta.
		// Deltas re-materialize against the engine state at this log
		// position — byte-identical to the live base (log order = apply
		// order), so the replayed join lands the same registers.
		snap, err := snapcodec.DecodeCapped(rec.Blob, st.decodeCap())
		if err != nil {
			return fmt.Errorf("server: replayed merge-max: %w", err)
		}
		if snap.IsDelta() {
			if snap, err = st.materializeLocked(snap); err != nil {
				return fmt.Errorf("server: replayed delta merge-max: %w", err)
			}
			st.deltaMaxs.Add(1)
		} else {
			if err := st.eng.CheckPeer(snap, false); err != nil {
				return fmt.Errorf("server: replayed merge-max: %w", err)
			}
			st.mergeMaxs.Add(1)
		}
		if err := st.eng.MergeMax(snap); err != nil {
			return fmt.Errorf("server: replayed merge-max: %w", err)
		}
		st.noteInstall(snap)
	case wal.RecOwn:
		st.ownMu.Lock()
		st.ownRing = rec.Epoch
		st.ownPending = make(map[int]bool, len(rec.Keys))
		for _, p := range rec.Keys {
			st.ownPending[p] = true
		}
		st.ownFrozen = make(map[int]bool, len(rec.Parts))
		for _, p := range rec.Parts {
			st.ownFrozen[p] = true
		}
		st.ownOwned = make(map[int]bool, len(rec.Owned))
		for _, p := range rec.Owned {
			st.ownOwned[p] = true
		}
		st.ownLogged = true
		st.ownMu.Unlock()
	case wal.RecEvict:
		p := int(rec.Epoch)
		if p < 0 || p >= st.cfg.Partitions {
			return fmt.Errorf("server: replayed evict of partition %d out of [0, %d)", p, st.cfg.Partitions)
		}
		lo, hi := snapcodec.PartitionRange(st.eng.Len(), st.cfg.Partitions, p)
		if err := st.eng.ResetRange(lo, hi); err != nil {
			return fmt.Errorf("server: replayed evict: %w", err)
		}
		st.ownMu.Lock()
		delete(st.ownFrozen, p)
		st.ownMu.Unlock()
		st.evicts.Add(1)
	case wal.RecBatchAt:
		for _, k := range rec.Keys {
			if k < 0 || k >= st.eng.Len() {
				return fmt.Errorf("server: replayed key %d out of range [0,%d)", k, st.eng.Len())
			}
		}
		if st.windowed != nil {
			applied := st.windowed.ApplyBatchEpoch(rec.Keys, rec.Epoch)
			st.keys.Add(uint64(applied))
			st.stales.Add(uint64(len(rec.Keys) - applied))
		} else {
			st.eng.ApplyBatch(rec.Keys)
			st.keys.Add(uint64(len(rec.Keys)))
		}
		st.batches.Add(1)
	case wal.RecTick:
		if st.windowed == nil {
			return fmt.Errorf("server: replayed tick to epoch %d on non-windowed engine %q",
				rec.Epoch, st.eng.Kind())
		}
		st.windowed.Advance(rec.Epoch)
		st.ticks.Add(1)
	default:
		return fmt.Errorf("server: unknown WAL record type %d", rec.Type)
	}
	return nil
}

// decodePeer decodes and validates a peer snapshot blob — whole or one
// partition — against the local engine (engine.CheckPeer). With disjoint
// the engine's disjoint-stream join must be supported (a max join needs no
// algorithm support). Every check here runs BEFORE the blob is WAL-staged:
// a record that fails during live apply would fail identically during
// recovery replay and brick the store.
func (st *Store) decodePeer(blob []byte, disjoint bool) (*snapcodec.Snapshot, error) {
	snap, err := snapcodec.DecodeCapped(blob, st.decodeCap())
	if err != nil {
		return nil, err
	}
	// A delta's register section is a scatter of blocks, not the contiguous
	// range the plain joins splice at the partition offset — feeding one to
	// Merge/MergeMax would silently corrupt registers. Deltas have their own
	// ingest path (MergeMaxDelta) that materializes them first.
	if snap.IsDelta() {
		return nil, errors.New("server: delta snapshot on a full-snapshot ingest path")
	}
	if err := st.eng.CheckPeer(snap, disjoint); err != nil {
		return nil, err
	}
	return snap, nil
}

// decodeCap returns the register cap for decoding peer blobs: a hostile
// header claiming snapcodec.MaxRegisters would otherwise allocate ~512 MiB
// before the engine's shape comparison ever ran. Engines whose register
// sections are not one register per key declare their own cap (the bucket
// ring's: B × n for window, shards × B × 2^p for distinct, none at all for
// f2).
func (st *Store) decodeCap() int {
	if pc, ok := st.eng.(engine.PeerRegisterCapper); ok {
		return pc.PeerRegisterCap()
	}
	return st.eng.Len()
}

// materializeLocked rebuilds the full partition snapshot a block delta
// describes: export the partition's live registers, splice the delta's
// blocks over them, validate the result like any peer snapshot. Sound
// because the delta's unsent blocks are exactly the ones whose fingerprints
// matched the local state — where hashes agree the registers are equal (up
// to collision), so base-filling from local registers reproduces the peer's
// snapshot. Caller holds writeMu (or is the single-threaded replay), so the
// base cannot move between export and join.
func (st *Store) materializeLocked(d *snapcodec.Snapshot) (*snapcodec.Snapshot, error) {
	if !d.IsPartition() || d.Parts != st.cfg.Partitions {
		return nil, fmt.Errorf("server: delta join needs a partition snapshot of the local %d-way split", st.cfg.Partitions)
	}
	base, err := st.eng.Snapshot(d.Partition, d.Parts, false)
	if err != nil {
		return nil, err
	}
	full, err := snapcodec.MaterializeDelta(d, base.Regs())
	if err != nil {
		return nil, err
	}
	if err := st.eng.CheckPeer(full, false); err != nil {
		return nil, err
	}
	return full, nil
}

// peerSpan returns the key range a peer snapshot covers.
func (st *Store) peerSpan(snap *snapcodec.Snapshot) (lo, hi int) {
	if snap.IsPartition() {
		return snapcodec.PartitionRange(snap.N, snap.Parts, snap.Partition)
	}
	return 0, snap.N
}

// Apply durably counts one event per key: the batch is WAL-staged and
// applied to the engine under the write lock (log order = apply order),
// then group-committed. It returns once the batch is fsync-durable.
func (st *Store) Apply(keys []int) error {
	if len(keys) == 0 {
		return nil
	}
	if len(keys) > st.cfg.MaxBatch {
		return fmt.Errorf("%w: batch of %d keys exceeds limit %d", ErrBadInput, len(keys), st.cfg.MaxBatch)
	}
	for _, k := range keys {
		if k < 0 || k >= st.eng.Len() {
			return fmt.Errorf("%w: key %d out of range [0,%d)", ErrBadInput, k, st.eng.Len())
		}
	}
	t0 := time.Now()
	st.writeMu.Lock()
	ticked, err := st.tickLocked()
	var ticket uint64
	if err == nil {
		ticket, err = st.log.Stage(wal.Record{Type: wal.RecBatch, Keys: keys})
	}
	if err == nil {
		st.eng.ApplyBatch(keys)
	}
	st.writeMu.Unlock()
	if err != nil {
		return err
	}
	if ticked {
		st.bumpAll()
	}
	st.bumpPartitions(keys)
	st.batches.Add(1)
	st.keys.Add(uint64(len(keys)))
	st.mBatchLen.Observe(float64(len(keys)))
	// Committing the batch ticket also makes any tick staged before it
	// durable (group commit flushes in stage order).
	err = st.log.Commit(ticket)
	st.mApply.ObserveSince(t0)
	return err
}

// ApplyAt durably counts a batch at an explicit origin bucket epoch — the
// receive half of an epoch-tagged hint drain. On a windowed engine the keys
// land in the bucket still labelled with epoch (keys whose bucket rotated
// out in transit are dropped, never smeared into the current bucket); an
// origin clock ahead of the local one first rotates the ring, WAL-logged as
// an ordinary tick so replay rotates at the same point. Non-windowed
// engines have no bucket to target, so the epoch is advisory and the batch
// applies like Apply. Returns the number of keys actually counted.
func (st *Store) ApplyAt(keys []int, epoch uint64) (int, error) {
	if st.windowed == nil {
		if err := st.Apply(keys); err != nil {
			return 0, err
		}
		return len(keys), nil
	}
	if len(keys) == 0 {
		return 0, nil
	}
	if len(keys) > st.cfg.MaxBatch {
		return 0, fmt.Errorf("%w: batch of %d keys exceeds limit %d", ErrBadInput, len(keys), st.cfg.MaxBatch)
	}
	for _, k := range keys {
		if k < 0 || k >= st.eng.Len() {
			return 0, fmt.Errorf("%w: key %d out of range [0,%d)", ErrBadInput, k, st.eng.Len())
		}
	}
	t0 := time.Now()
	st.writeMu.Lock()
	ticked, err := st.tickLocked()
	if err == nil && epoch > st.windowed.Epoch() {
		// The origin clock runs ahead of ours: rotate to it (logged) so the
		// hint is not mistaken for an expired one.
		if _, err = st.log.Stage(wal.Record{Type: wal.RecTick, Epoch: epoch}); err == nil {
			st.windowed.Advance(epoch)
			st.ticks.Add(1)
			ticked = true
		}
	}
	var ticket uint64
	applied := 0
	if err == nil {
		ticket, err = st.log.Stage(wal.Record{Type: wal.RecBatchAt, Epoch: epoch, Keys: keys})
	}
	if err == nil {
		applied = st.windowed.ApplyBatchEpoch(keys, epoch)
	}
	st.writeMu.Unlock()
	if err != nil {
		return 0, err
	}
	if ticked {
		st.bumpAll()
	}
	if applied > 0 {
		st.bumpPartitions(keys)
	}
	st.batches.Add(1)
	st.keys.Add(uint64(applied))
	st.stales.Add(uint64(len(keys) - applied))
	st.mBatchLen.Observe(float64(len(keys)))
	err = st.log.Commit(ticket)
	st.mApply.ObserveSince(t0)
	return applied, err
}

// tickLocked advances a windowed engine to the clock's current bucket
// epoch, staging the tick in the WAL FIRST so replay rotates at exactly
// this point in the record order. The epoch value is whatever the clock
// read now — it is never re-derived on replay. Caller holds writeMu;
// reports whether a tick was staged (the caller bumps partition versions
// outside the lock).
func (st *Store) tickLocked() (bool, error) {
	if st.windowed == nil {
		return false, nil
	}
	epoch := st.clock()
	if epoch <= st.windowed.Epoch() {
		return false, nil
	}
	if _, err := st.log.Stage(wal.Record{Type: wal.RecTick, Epoch: epoch}); err != nil {
		return false, err
	}
	st.windowed.Advance(epoch)
	st.ticks.Add(1)
	return true, nil
}

// bumpAll advances every partition's write version — a bucket rotation
// mutates all partitions' serialized state at once.
func (st *Store) bumpAll() {
	for p := range st.partVer {
		st.partVer[p].Add(1)
	}
}

// AdvanceWindow rotates a windowed engine to the current bucket epoch even
// when no writes arrive (counterd runs this on a timer so idle traffic
// still expires), committing the WAL tick before returning. A no-op —
// including on non-windowed engines — when there is nothing to advance.
func (st *Store) AdvanceWindow() error {
	if st.windowed == nil {
		return nil
	}
	st.writeMu.Lock()
	ticked, err := st.tickLocked()
	st.writeMu.Unlock()
	if err != nil || !ticked {
		return err
	}
	st.bumpAll()
	return st.log.Sync()
}

// bumpPartitions advances the write version of every partition the batch
// touches.
func (st *Store) bumpPartitions(keys []int) {
	parts := len(st.partVer)
	if parts == 1 {
		st.partVer[0].Add(1)
		return
	}
	n := st.eng.Len()
	last := -1
	for _, k := range keys {
		if p := snapcodec.PartitionOf(k, n, parts); p != last {
			st.partVer[p].Add(1)
			last = p
		}
	}
}

// bumpRange advances the write version of every partition overlapping the
// key range [lo, hi).
func (st *Store) bumpRange(lo, hi int) {
	if hi <= lo {
		return
	}
	parts := len(st.partVer)
	n := st.eng.Len()
	for p := snapcodec.PartitionOf(lo, n, parts); p <= snapcodec.PartitionOf(hi-1, n, parts); p++ {
		st.partVer[p].Add(1)
	}
}

// PartitionVersion returns the write version of partition p: any local
// mutation of the partition's registers (increment, merge, restore) moves
// it. Monotone within a process lifetime; not persisted.
func (st *Store) PartitionVersion(p int) uint64 {
	if p < 0 || p >= len(st.partVer) {
		return 0
	}
	return st.partVer[p].Load()
}

// memo is one memoised per-partition answer and the partition write version
// it holds for.
type memo[T any] struct {
	ver uint64
	val T
}

// memoised answers a per-partition probe from slot when the partition has
// not been written since the slot was filled, and otherwise runs scan and
// refills it. The version is read BEFORE the scan and the result kept only
// if it is unchanged after, so an entry is never newer than its version
// says: a caller that reads PartitionVersion first and finds it equal to a
// later read saw the hashes of exactly that version.
func memoised[T any](st *Store, slot *atomic.Pointer[memo[T]], p int, scan func() (T, error)) (T, error) {
	ver := st.partVer[p].Load()
	if m := slot.Load(); m != nil && m.ver == ver {
		st.hashMemos.Inc()
		return m.val, nil
	}
	st.hashScans.Inc()
	val, err := scan()
	if err == nil && st.partVer[p].Load() == ver {
		slot.Store(&memo[T]{ver: ver, val: val})
	}
	return val, err
}

// PartitionHash returns an order-dependent 64-bit hash of partition p's
// engine state — equal hashes across replicas mean (up to hash collision)
// identical state, which is what the cluster's anti-entropy checks before
// deciding a merge is needed. Memoised against PartitionVersion(p): a
// partition unwritten since the last call answers without a register read.
func (st *Store) PartitionHash(p int) (uint64, error) {
	if p < 0 || p >= st.cfg.Partitions {
		return 0, fmt.Errorf("%w: partition %d out of [0, %d)", ErrBadInput, p, st.cfg.Partitions)
	}
	return memoised(st, &st.hashMemo[p], p, func() (uint64, error) {
		lo, hi := snapcodec.PartitionRange(st.eng.Len(), st.cfg.Partitions, p)
		return st.eng.HashRange(lo, hi)
	})
}

// Merge ingests a peer snapshot (snapcodec bytes, whole or one partition)
// via the engine's disjoint-stream join — the paper's Remark 2.4 for
// register banks, the SpaceSaving union for top-k — WAL-logging the blob so
// recovery replays the merge at the same point in the operation order. Use
// it for sketches that absorbed DISJOINT streams; replicas of the same
// stream converge with MergeMax instead.
func (st *Store) Merge(blob []byte) error {
	return st.mergeBlob(blob, wal.RecMerge)
}

// MergeMax ingests a peer snapshot via the engine's idempotent replica join
// (register-wise maximum for banks, slot-wise max takeover for top-k) — the
// join the cluster's anti-entropy uses between replicas that applied the
// same logical stream. WAL-logged like Merge; max draws no randomness, so
// replay is trivially exact.
func (st *Store) MergeMax(blob []byte) error {
	return st.mergeBlob(blob, wal.RecMergeMax)
}

func (st *Store) mergeBlob(blob []byte, rec byte) error {
	snap, err := st.decodePeer(blob, rec == wal.RecMerge)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrBadInput, err)
	}
	st.writeMu.Lock()
	ticket, err := st.log.Stage(wal.Record{Type: rec, Blob: blob})
	var mergeErr error
	if err == nil {
		if rec == wal.RecMerge {
			mergeErr = st.eng.Merge(snap)
		} else {
			mergeErr = st.eng.MergeMax(snap)
		}
	}
	st.writeMu.Unlock()
	if err != nil {
		return err
	}
	if mergeErr != nil {
		// The record is logged but the merge failed — decodePeer pre-checks
		// the snapshot via engine.CheckPeer, so this is unreachable short of
		// a bug; poison nothing, just report.
		return mergeErr
	}
	lo, hi := st.peerSpan(snap)
	st.bumpRange(lo, hi)
	st.noteInstall(snap)
	if rec == wal.RecMerge {
		st.merges.Add(1)
	} else {
		st.mergeMaxs.Add(1)
	}
	return st.log.Commit(ticket)
}

// MergeMaxDelta ingests a block delta of one partition via the replica
// max-join: the delta's blocks are materialized over the partition's live
// registers (see materializeLocked) and the resulting full snapshot joins
// like any MergeMax. The DELTA blob is what gets WAL-logged — replay
// re-materializes against the byte-identical replayed base, so recovery
// lands the same registers at a fraction of the log bytes.
//
// wantVer guards the materialization against concurrent local writes: when
// the partition's version no longer equals it, the block fingerprints the
// caller diffed are stale and the join returns ErrConflict (retry from a
// fresh hash exchange). VersionAny skips the guard — correct whenever the
// caller accepts joining over the current state, e.g. a rebalance pull,
// because the max-join itself is idempotent and monotone.
func (st *Store) MergeMaxDelta(blob []byte, wantVer uint64) error {
	d, err := snapcodec.DecodeCapped(blob, st.decodeCap())
	if err != nil {
		return fmt.Errorf("%w: %w", ErrBadInput, err)
	}
	if !d.IsDelta() {
		return fmt.Errorf("%w: delta join of a non-delta snapshot", ErrBadInput)
	}
	if !d.IsPartition() || d.Parts != st.cfg.Partitions {
		return fmt.Errorf("%w: delta join needs a partition snapshot of the local %d-way split",
			ErrBadInput, st.cfg.Partitions)
	}
	st.writeMu.Lock()
	if wantVer != VersionAny && st.partVer[d.Partition].Load() != wantVer {
		st.writeMu.Unlock()
		return fmt.Errorf("%w: partition %d moved past version %d", ErrConflict, d.Partition, wantVer)
	}
	full, err := st.materializeLocked(d)
	if err != nil {
		st.writeMu.Unlock()
		return fmt.Errorf("%w: %w", ErrBadInput, err)
	}
	ticket, err := st.log.Stage(wal.Record{Type: wal.RecMergeMax, Blob: blob})
	var applyErr error
	if err == nil {
		applyErr = st.eng.MergeMax(full)
	}
	st.writeMu.Unlock()
	if err != nil {
		return err
	}
	if applyErr != nil {
		// materializeLocked ran the full CheckPeer pass, so this is
		// unreachable short of a bug; report without poisoning anything.
		return applyErr
	}
	lo, hi := st.peerSpan(full)
	st.bumpRange(lo, hi)
	st.noteInstall(full)
	st.deltaMaxs.Add(1)
	return st.log.Commit(ticket)
}

// PartitionBlockHashes returns per-block FNV-1a fingerprints of partition
// p's snapshot register section — the block-granular refinement of
// PartitionHash the delta anti-entropy diffs to decide which blocks to
// ship. Engines without a register block layout (top-k) return ErrBadInput;
// callers fall back to whole-partition sync. Memoised like PartitionHash;
// the returned slice is shared with later callers — treat it as read-only.
func (st *Store) PartitionBlockHashes(p int) ([]uint64, error) {
	if p < 0 || p >= st.cfg.Partitions {
		return nil, fmt.Errorf("%w: partition %d out of [0, %d)", ErrBadInput, p, st.cfg.Partitions)
	}
	return memoised(st, &st.blockMemo[p], p, func() ([]uint64, error) {
		hashes, err := st.eng.BlockHashes(p, st.cfg.Partitions)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadInput, err)
		}
		return hashes, nil
	})
}

// PartitionDeltaTo streams a block delta of partition p restricted to the
// listed (ascending) blocks — the serve half of delta anti-entropy and warm
// handoff. The delta's base id is 0: wire deltas are anchored by the block
// fingerprint exchange that chose the list, not by a checkpoint chain.
func (st *Store) PartitionDeltaTo(w io.Writer, p int, blocks []uint32) error {
	if p < 0 || p >= st.cfg.Partitions {
		return fmt.Errorf("%w: partition %d out of [0, %d)", ErrBadInput, p, st.cfg.Partitions)
	}
	snap, err := st.eng.Snapshot(p, st.cfg.Partitions, false)
	if err != nil {
		return err
	}
	if snap.Regs().Len() == 0 {
		return fmt.Errorf("%w: engine %q snapshots carry no register blocks", ErrBadInput, st.eng.Kind())
	}
	d, err := snapcodec.MakeDelta(snap, 0, blocks)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrBadInput, err)
	}
	return snapcodec.EncodeTo(w, d)
}

// noteInstall clears a partition's pending-install mark when a merge lands
// in it. Mirrored on replay, so recovery re-derives the pending set as
// "last RecOwn minus merges logged after it" — a crashed node never
// re-pulls (and disjoint-merges twice) a partition whose install already
// committed.
func (st *Store) noteInstall(snap *snapcodec.Snapshot) {
	if !snap.IsPartition() || snap.Parts != st.cfg.Partitions {
		return
	}
	st.ownMu.Lock()
	delete(st.ownPending, snap.Partition)
	st.ownMu.Unlock()
}

// sortedKeys flattens a partition set into a sorted list, so re-logged
// ownership records are byte-stable.
func sortedKeys(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// SetOwnership durably records the rebalance state at a ring version: the
// partitions this node still has to install (pending), the partitions it
// holds frozen for surrender, and the partitions it owns on that ring.
// Staged under the write lock so the record's position in the log is
// consistent with the merges and evicts around it.
func (st *Store) SetOwnership(ring uint64, pending, frozen, owned []int) error {
	for _, list := range [][]int{pending, frozen, owned} {
		for _, p := range list {
			if p < 0 || p >= st.cfg.Partitions {
				return fmt.Errorf("%w: partition %d out of [0, %d)", ErrBadInput, p, st.cfg.Partitions)
			}
		}
	}
	st.writeMu.Lock()
	ticket, err := st.log.Stage(wal.Record{Type: wal.RecOwn, Epoch: ring, Keys: pending, Parts: frozen, Owned: owned})
	if err == nil {
		st.ownMu.Lock()
		st.ownRing = ring
		st.ownPending = make(map[int]bool, len(pending))
		for _, p := range pending {
			st.ownPending[p] = true
		}
		st.ownFrozen = make(map[int]bool, len(frozen))
		for _, p := range frozen {
			st.ownFrozen[p] = true
		}
		st.ownOwned = make(map[int]bool, len(owned))
		for _, p := range owned {
			st.ownOwned[p] = true
		}
		st.ownLogged = true
		st.ownMu.Unlock()
	}
	st.writeMu.Unlock()
	if err != nil {
		return err
	}
	return st.log.Commit(ticket)
}

// Ownership returns the durable rebalance state: the ring version of the
// last recorded epoch, the partitions still pending install, the partitions
// held frozen for surrender, and the partitions owned on the recorded ring.
// ok is false when no ownership epoch was ever logged (a store that has
// never rebalanced).
func (st *Store) Ownership() (ring uint64, pending, frozen, owned []int, ok bool) {
	st.ownMu.Lock()
	defer st.ownMu.Unlock()
	if !st.ownLogged {
		return 0, nil, nil, nil, false
	}
	for p := range st.ownPending {
		pending = append(pending, p)
	}
	for p := range st.ownFrozen {
		frozen = append(frozen, p)
	}
	for p := range st.ownOwned {
		owned = append(owned, p)
	}
	sort.Ints(pending)
	sort.Ints(frozen)
	sort.Ints(owned)
	return st.ownRing, pending, frozen, owned, true
}

// PendingPartition reports whether partition p is still awaiting its
// rebalance install — the per-read check behind the cluster layer's 421
// shadowing, so it is a single map lookup.
func (st *Store) PendingPartition(p int) bool {
	st.ownMu.Lock()
	defer st.ownMu.Unlock()
	return st.ownPending[p]
}

// FrozenPartition reports whether partition p is a surrendered copy this
// store still holds for handoff — the per-key check behind the cluster
// layer's replica-apply routing, so it is a single map lookup.
func (st *Store) FrozenPartition(p int) bool {
	st.ownMu.Lock()
	defer st.ownMu.Unlock()
	return st.ownFrozen[p]
}

// EvictPartition truncates partition p's sketch state — the final step of a
// rebalance surrender, after every new owner confirmed its install. The
// evict is WAL-logged before the reset (log order = apply order, like every
// mutation), so recovery replays it at the same point and the truncated
// registers stay truncated.
func (st *Store) EvictPartition(p int) error {
	if p < 0 || p >= st.cfg.Partitions {
		return fmt.Errorf("%w: partition %d out of [0, %d)", ErrBadInput, p, st.cfg.Partitions)
	}
	lo, hi := snapcodec.PartitionRange(st.eng.Len(), st.cfg.Partitions, p)
	st.writeMu.Lock()
	ticket, err := st.log.Stage(wal.Record{Type: wal.RecEvict, Epoch: uint64(p)})
	var resetErr error
	if err == nil {
		resetErr = st.eng.ResetRange(lo, hi)
	}
	st.writeMu.Unlock()
	if err != nil {
		return err
	}
	if resetErr != nil {
		// The range is partition-aligned and in bounds, so this is
		// unreachable short of a bug; report without poisoning anything.
		return resetErr
	}
	st.ownMu.Lock()
	delete(st.ownFrozen, p)
	st.ownMu.Unlock()
	st.bumpRange(lo, hi)
	st.evicts.Add(1)
	return st.log.Commit(ticket)
}

// Fresh reports whether the store started from nothing: no checkpoint and
// an empty WAL. The rebalancer uses it to pick its ownership baseline — a
// fresh node owes itself an install of everything it owns, an existing one
// only what its ownership records say.
func (st *Store) Fresh() bool { return !st.fromSnap && st.recovered.Records == 0 }

// InstallPartition folds one pulled partition snapshot into the store — the
// receive half of a rebalance handoff. With disjoint=false the source was a
// live owner whose copy absorbed the same logical stream, so the install is
// the idempotent replica max-join. With disjoint=true the source was a
// frozen surrendered copy: its stream (everything up to the ownership flip)
// and the local partition's post-flip absorption are disjoint, so the
// install is the Remark 2.4 merge ON TOP of the local registers — the local
// side keeps the post-flip writes it coordinated while pending, and the
// frozen copy contributes the history. The merge record's replay re-derives
// both halves in the same order, and because the pending mark clears with
// the same record (noteInstall), a crashed node can never pull and
// disjoint-merge the same history twice.
func (st *Store) InstallPartition(blob []byte, disjoint bool) error {
	snap, err := st.decodePeer(blob, disjoint)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrBadInput, err)
	}
	if !snap.IsPartition() || snap.Parts != st.cfg.Partitions {
		return fmt.Errorf("%w: install needs a partition snapshot of the local %d-way split",
			ErrBadInput, st.cfg.Partitions)
	}
	lo, hi := st.peerSpan(snap)
	rec := wal.RecMergeMax
	if disjoint {
		rec = wal.RecMerge
	}
	st.writeMu.Lock()
	ticket, err := st.log.Stage(wal.Record{Type: rec, Blob: blob})
	var applyErr error
	if err == nil {
		if disjoint {
			applyErr = st.eng.Merge(snap)
		} else {
			applyErr = st.eng.MergeMax(snap)
		}
	}
	st.writeMu.Unlock()
	if err != nil {
		return err
	}
	if applyErr != nil {
		// decodePeer pre-validated the snapshot and the range is aligned, so
		// this is unreachable short of a bug; report without poisoning.
		return applyErr
	}
	st.bumpRange(lo, hi)
	st.noteInstall(snap)
	if disjoint {
		st.merges.Add(1)
	} else {
		st.mergeMaxs.Add(1)
	}
	return st.log.Commit(ticket)
}

// Estimate returns N̂ for one key.
func (st *Store) Estimate(key int) (float64, error) {
	if key < 0 || key >= st.eng.Len() {
		return 0, fmt.Errorf("%w: key %d out of range [0,%d)", ErrBadInput, key, st.eng.Len())
	}
	return st.eng.Estimate(key), nil
}

// EstimateAll returns all estimates in a fresh slice (see
// engine.Engine.EstimateAll).
func (st *Store) EstimateAll() []float64 { return st.eng.EstimateAll() }

// MaxTopK is the largest k a top-k query may ask for. Every engine selects
// its k winners by insertion into a sorted buffer — right for a report, and
// quadratic under the shard locks for a k that is really a dump of the key
// space (GET /v1/estimates is that read). A constant, not a flag: 4096 is
// far past any ranking a person or a dashboard reads.
const MaxTopK = 4096

// topKRange validates a top-k query's report size and partition scope
// (partition >= 0, or < 0 for the whole key space) and returns the key range
// it ranks.
func (st *Store) topKRange(k, partition int) (lo, hi int, err error) {
	if k <= 0 || k > MaxTopK {
		return 0, 0, fmt.Errorf("%w: k = %d out of [1, %d]", ErrBadInput, k, MaxTopK)
	}
	if partition < 0 {
		return 0, st.eng.Len(), nil
	}
	if partition >= st.cfg.Partitions {
		return 0, 0, fmt.Errorf("%w: partition %d out of [0, %d)", ErrBadInput, partition, st.cfg.Partitions)
	}
	lo, hi = snapcodec.PartitionRange(st.eng.Len(), st.cfg.Partitions, partition)
	return lo, hi, nil
}

// TopK returns the top-k keys (k ≤ MaxTopK) of one partition (partition >=
// 0) or of the whole key space (partition < 0), ranked by descending
// estimate.
func (st *Store) TopK(k, partition int) ([]engine.Entry, error) {
	lo, hi, err := st.topKRange(k, partition)
	if err != nil {
		return nil, err
	}
	return st.eng.TopK(k, lo, hi)
}

// Windowed reports whether the store serves a sliding-window engine.
func (st *Store) Windowed() bool { return st.windowed != nil }

// WindowEpoch returns the windowed engine's current bucket epoch, or 0 on a
// non-windowed engine. The cluster write path stamps it on replication
// hints so a delayed drain heals into its origin bucket (ApplyAt).
func (st *Store) WindowEpoch() uint64 {
	if st.windowed == nil {
		return 0
	}
	return st.windowed.Epoch()
}

// ParseWindow resolves a ?window= query value against the windowed
// engine's ring: a Go duration ("5m", "90s") is rounded up to whole
// buckets, a bare integer is a bucket count. The result is clamped-checked
// against [1, B] — asking for a wider window than the ring retains is an
// input error, not a silent truncation.
func (st *Store) ParseWindow(q string) (int, error) {
	if st.windowed == nil {
		return 0, fmt.Errorf("%w: engine %q serves no windowed queries", ErrBadInput, st.eng.Kind())
	}
	b := st.windowed.WindowBuckets()
	var w int
	if d, err := time.ParseDuration(q); err == nil {
		bn := st.windowed.BucketNanos()
		if bn <= 0 {
			return 0, fmt.Errorf("%w: engine has no wall-clock bucket width; pass a bucket count", ErrBadInput)
		}
		if d <= 0 {
			return 0, fmt.Errorf("%w: non-positive window %q", ErrBadInput, q)
		}
		w = int((int64(d) + bn - 1) / bn)
	} else if n, err := strconv.Atoi(q); err == nil {
		w = n
	} else {
		return 0, fmt.Errorf("%w: window %q is neither a duration nor a bucket count", ErrBadInput, q)
	}
	if w < 1 || w > b {
		return 0, fmt.Errorf("%w: window of %d buckets outside the ring's [1, %d]", ErrBadInput, w, b)
	}
	return w, nil
}

// EstimateWindow returns N̂ for one key over the trailing w buckets.
func (st *Store) EstimateWindow(key, w int) (float64, error) {
	if st.windowed == nil {
		return 0, fmt.Errorf("%w: engine %q serves no windowed queries", ErrBadInput, st.eng.Kind())
	}
	if key < 0 || key >= st.eng.Len() {
		return 0, fmt.Errorf("%w: key %d out of range [0,%d)", ErrBadInput, key, st.eng.Len())
	}
	v, err := st.windowed.EstimateWindow(key, w)
	if err != nil {
		return 0, fmt.Errorf("%w: %w", ErrBadInput, err)
	}
	return v, nil
}

// EstimateAllWindow returns all estimates over the trailing w buckets.
func (st *Store) EstimateAllWindow(w int) ([]float64, error) {
	if st.windowed == nil {
		return nil, fmt.Errorf("%w: engine %q serves no windowed queries", ErrBadInput, st.eng.Kind())
	}
	out, err := st.windowed.EstimateAllWindow(w)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadInput, err)
	}
	return out, nil
}

// TopKWindow is TopK restricted to the trailing w buckets.
func (st *Store) TopKWindow(k, partition, w int) ([]engine.Entry, error) {
	if st.windowed == nil {
		return nil, fmt.Errorf("%w: engine %q serves no windowed queries", ErrBadInput, st.eng.Kind())
	}
	lo, hi, err := st.topKRange(k, partition)
	if err != nil {
		return nil, err
	}
	top, err := st.windowed.TopKWindow(k, lo, hi, w)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadInput, err)
	}
	return top, nil
}

// RangeEstimate returns the engine's scalar range estimate — a distinct
// engine's cardinality, an F2 engine's second moment — for one partition
// (partition >= 0) or the whole key space (partition < 0). w > 0 restricts
// the answer to the trailing w buckets of a windowed engine; w == 0 means
// the cumulative (or full-ring) estimate. Engines without the scalar query
// surface (bank, topk, window) reject with ErrBadInput.
func (st *Store) RangeEstimate(partition, w int) (float64, error) {
	lo, hi := 0, st.eng.Len()
	if partition >= 0 {
		if partition >= st.cfg.Partitions {
			return 0, fmt.Errorf("%w: partition %d out of [0, %d)", ErrBadInput, partition, st.cfg.Partitions)
		}
		lo, hi = snapcodec.PartitionRange(st.eng.Len(), st.cfg.Partitions, partition)
	}
	if w > 0 {
		wre, ok := st.eng.(engine.WindowRangeEstimator)
		if !ok {
			return 0, fmt.Errorf("%w: engine %q serves no windowed range estimates", ErrBadInput, st.eng.Kind())
		}
		v, err := wre.RangeEstimateWindow(lo, hi, w)
		if err != nil {
			return 0, fmt.Errorf("%w: %w", ErrBadInput, err)
		}
		return v, nil
	}
	re, ok := st.eng.(engine.RangeEstimator)
	if !ok {
		return 0, fmt.Errorf("%w: engine %q serves no range estimates", ErrBadInput, st.eng.Kind())
	}
	v, err := re.RangeEstimate(lo, hi)
	if err != nil {
		return 0, fmt.Errorf("%w: %w", ErrBadInput, err)
	}
	return v, nil
}

// Engine exposes the serving engine.
func (st *Store) Engine() engine.Engine { return st.eng }

// Len returns the key-space size.
func (st *Store) Len() int { return st.eng.Len() }

// Bank exposes the underlying sharded bank when the store serves the bank
// engine (read-mostly callers: examples, tools, tests), nil otherwise.
func (st *Store) Bank() *shardbank.Bank {
	if be, ok := st.eng.(*engine.BankEngine); ok {
		return be.Bank()
	}
	return nil
}

// SnapshotTo streams a snapcodec snapshot of the live engine (no generator
// state) to w — the GET /snapshot payload, and what a peer feeds to
// POST /merge.
func (st *Store) SnapshotTo(w io.Writer) error {
	return engine.SnapshotTo(w, st.eng, 0, 0, false)
}

// Partitions returns the configured partition count of the key space.
func (st *Store) Partitions() int { return st.cfg.Partitions }

// MaxBatch returns the largest increment batch Apply accepts.
func (st *Store) MaxBatch() int { return st.cfg.MaxBatch }

// PartitionSnapshotTo streams a snapshot of one partition — the key range
// snapcodec.PartitionRange(n, Partitions, p) — to w: the GET /snapshot/{p}
// payload, and the unit the cluster's replication and anti-entropy exchange.
func (st *Store) PartitionSnapshotTo(w io.Writer, p int) error {
	if p < 0 || p >= st.cfg.Partitions {
		return fmt.Errorf("%w: partition %d out of [0, %d)", ErrBadInput, p, st.cfg.Partitions)
	}
	return engine.SnapshotTo(w, st.eng, p, st.cfg.Partitions, false)
}

// Checkpoint rotates the WAL, writes the engine state tagged with the new
// segment number, and garbage-collects what the tag obsoletes. The state
// image is a full snapshot (with generator states) — or, when the engine
// tracks dirty blocks and few enough changed since the previous checkpoint,
// a block delta chained onto it: only the changed 128-register blocks hit
// the disk, making checkpoint cost proportional to churn instead of
// keyspace. Either kind truncates the WAL below its tag; recovery loads the
// newest full snapshot, splices the delta chain, and replays the tail.
// Config.DeltaFraction and Config.MaxDeltaChain bound when deltas are used
// and how long a chain recovery may have to splice.
func (st *Store) Checkpoint() error {
	ckptStart := time.Now()
	defer func() { st.mCkpt.ObserveSince(ckptStart) }()
	// Rotation, state capture, and the dirty-block drain happen under
	// writeMu so no write lands between "records before S", "engine state
	// at S", and "blocks dirtied before S". The bank engine's capture is a
	// memcpy of its packed words; encoding runs after the lock is released.
	st.writeMu.Lock()
	seq, err := st.log.Rotate()
	if err != nil {
		st.writeMu.Unlock()
		return err
	}
	// Re-log the ownership epoch into the fresh segment: the truncation
	// below drops every older record, and a restart mid-rebalance must still
	// see which transfers are owed. The engine snapshot taken next already
	// reflects every record before this one, so replaying it is pure
	// metadata.
	var ownTicket uint64
	var ownStaged bool
	st.ownMu.Lock()
	if st.ownLogged {
		rec := wal.Record{Type: wal.RecOwn, Epoch: st.ownRing,
			Keys: sortedKeys(st.ownPending), Parts: sortedKeys(st.ownFrozen), Owned: sortedKeys(st.ownOwned)}
		st.ownMu.Unlock()
		if ownTicket, err = st.log.Stage(rec); err != nil {
			st.writeMu.Unlock()
			return err
		}
		ownStaged = true
	} else {
		st.ownMu.Unlock()
	}
	snap, err := st.eng.Snapshot(0, 0, true)
	var dirty []uint32
	tracked := false
	if err == nil {
		// Drain the bitmap in the same critical section as the snapshot:
		// these are exactly the blocks that changed since the previous
		// checkpoint, and post-drain writes re-mark for the next one.
		dirty, tracked = st.eng.TakeDirty()
	}
	st.writeMu.Unlock()
	if err != nil {
		return err
	}
	// From here on the drained blocks are owed to the next checkpoint: any
	// failure before the new image is durable must re-arm them, or a later
	// delta would silently miss churn.
	rearm := func(e error) error {
		if tracked {
			st.eng.MarkDirty(dirty)
		}
		return e
	}
	if ownStaged {
		if err := st.log.Commit(ownTicket); err != nil {
			return rearm(err)
		}
	}

	base := st.ckptSeq.Load()
	nregs := snap.Regs().Len()
	useDelta := tracked && base > 0 && nregs > 0 &&
		st.cfg.DeltaFraction >= 0 &&
		st.chainLen.Load() < int64(st.maxDeltaChain()) &&
		float64(len(dirty)) <= st.deltaFraction()*float64(snapcodec.NumBlocks(nregs))
	path := snapPath(st.cfg.Dir, seq)
	if useDelta {
		d, derr := snapcodec.MakeDelta(snap, base, dirty)
		if derr != nil {
			return rearm(derr)
		}
		snap = d
		path = deltaPath(st.cfg.Dir, seq)
	}

	bytes, err := writeSnapFile(path, snap)
	if err != nil {
		return rearm(err)
	}
	syncDir(st.cfg.Dir)

	st.ckptSeq.Store(seq)
	st.lastCkpt.Store(time.Now().UnixNano())
	if useDelta {
		st.chainLen.Add(1)
		st.ckptDelta.Add(1)
		st.ckptBytesDelta.Add(uint64(bytes))
		// No snapshot GC: the chain below stays load-bearing until the next
		// full checkpoint collapses it.
		return st.log.TruncateBefore(seq)
	}
	st.chainLen.Store(0)
	st.ckptFull.Add(1)
	st.ckptBytesFull.Add(uint64(bytes))
	// Garbage-collect: older full snapshots and every delta (all strictly
	// older than seq, and the new full obsoletes any chain), then WAL
	// segments below the tag.
	if seqs, err := listSeqs(st.cfg.Dir, snapSuffix); err == nil {
		for _, s := range seqs {
			if s < seq {
				os.Remove(snapPath(st.cfg.Dir, s))
			}
		}
	}
	if seqs, err := listSeqs(st.cfg.Dir, deltaSuffix); err == nil {
		for _, s := range seqs {
			if s < seq {
				os.Remove(deltaPath(st.cfg.Dir, s))
			}
		}
	}
	return st.log.TruncateBefore(seq)
}

// deltaFraction returns the effective delta-checkpoint dirty threshold.
func (st *Store) deltaFraction() float64 {
	if st.cfg.DeltaFraction == 0 {
		return 0.5
	}
	return st.cfg.DeltaFraction
}

// maxDeltaChain returns the effective delta chain bound.
func (st *Store) maxDeltaChain() int {
	if st.cfg.MaxDeltaChain <= 0 {
		return 8
	}
	return st.cfg.MaxDeltaChain
}

// writeSnapFile writes one snapshot atomically (tmp + fsync + rename),
// returning the encoded size.
func writeSnapFile(path string, snap *snapcodec.Snapshot) (int64, error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, fmt.Errorf("server: checkpoint: %w", err)
	}
	if err := snapcodec.EncodeTo(f, snap); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, fmt.Errorf("server: checkpoint: %w", err)
	}
	size := int64(0)
	if fi, err := f.Stat(); err == nil {
		size = fi.Size()
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, fmt.Errorf("server: checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("server: checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("server: checkpoint: %w", err)
	}
	return size, nil
}

// Close syncs and closes the WAL. With checkpoint true it writes a final
// checkpoint first, making the next start a pure snapshot load.
func (st *Store) Close(checkpoint bool) error {
	var err error
	if checkpoint {
		err = st.Checkpoint()
	}
	if cerr := st.log.Close(); err == nil {
		err = cerr
	}
	return err
}

// Stats is the /healthz payload.
type Stats struct {
	Status      string `json:"status"`
	Engine      string `json:"engine"`
	N           int    `json:"n"`
	Shards      int    `json:"shards"`
	Algorithm   string `json:"algorithm"`
	WidthBits   int    `json:"widthBits"`
	Seed        uint64 `json:"seed"`
	BankBytes   int    `json:"bankBytes"`
	Partitions  int    `json:"partitions"`
	FsyncPolicy string `json:"fsyncPolicy"`
	// Wire listener, when the node serves the binary ingest protocol.
	WireAddr  string `json:"wireAddr,omitempty"`
	WireProto int    `json:"wireProto,omitempty"`
	// Window engine only: ring length, wall-clock bucket width, logical
	// clock, and ticks applied since start.
	WindowBuckets int    `json:"windowBuckets,omitempty"`
	BucketNanos   int64  `json:"bucketNanos,omitempty"`
	WindowEpoch   uint64 `json:"windowEpoch,omitempty"`
	Ticks         uint64 `json:"ticks,omitempty"`
	// Distinct engine only: HLL register precision (2^p registers per
	// partition). F2 engine only: sign-sketch grid shape.
	DistinctPrecision int `json:"distinctPrecision,omitempty"`
	F2Rows            int `json:"f2Rows,omitempty"`
	F2Cols            int `json:"f2Cols,omitempty"`

	Batches         uint64  `json:"batches"`
	Keys            uint64  `json:"keys"`
	Merges          uint64  `json:"merges"`
	MergeMaxes      uint64  `json:"mergeMaxes"`
	Evicts          uint64  `json:"evicts,omitempty"`
	CheckpointSeq   uint64  `json:"checkpointSeq"`
	CheckpointChain int     `json:"checkpointChain,omitempty"`
	DirtyBlocks     int     `json:"dirtyBlocks,omitempty"`
	LastCheckpoint  string  `json:"lastCheckpoint,omitempty"`
	WALSegments     int     `json:"walSegments"`
	RecoveredFrom   string  `json:"recoveredFrom"`
	ReplayedRecords int     `json:"replayedRecords"`
	ReplayTorn      bool    `json:"replayTorn"`
	UptimeSeconds   float64 `json:"uptimeSeconds"`
}

// Stats reports the store's health and counters.
func (st *Store) Stats() Stats {
	segs, _ := st.log.Segments()
	s := Stats{
		Status:          "ok",
		Engine:          st.eng.Kind(),
		N:               st.eng.Len(),
		Shards:          st.eng.Shards(),
		Algorithm:       st.eng.Algorithm().Name(),
		WidthBits:       st.eng.Algorithm().Width(),
		Seed:            st.eng.Seed(),
		BankBytes:       st.eng.SizeBytes(),
		Partitions:      st.cfg.Partitions,
		FsyncPolicy:     st.syncPolicy().String(),
		Batches:         st.batches.Value(),
		Keys:            st.keys.Value(),
		Merges:          st.merges.Value(),
		MergeMaxes:      st.mergeMaxs.Value(),
		Evicts:          st.evicts.Value(),
		CheckpointSeq:   st.ckptSeq.Load(),
		CheckpointChain: int(st.chainLen.Load()),
		DirtyBlocks:     st.eng.DirtyCount(),
		WALSegments:     len(segs),
		RecoveredFrom:   "seed",
		ReplayedRecords: st.recovered.Records,
		ReplayTorn:      st.recovered.Torn,
		UptimeSeconds:   time.Since(st.started).Seconds(),
	}
	if st.windowed != nil {
		s.WindowBuckets = st.windowed.WindowBuckets()
		s.BucketNanos = st.windowed.BucketNanos()
		s.WindowEpoch = st.windowed.Epoch()
		s.Ticks = st.ticks.Value()
	}
	if de, ok := st.eng.(interface{ Precision() int }); ok {
		s.DistinctPrecision = de.Precision()
	}
	if fe, ok := st.eng.(interface {
		Rows() int
		Cols() int
	}); ok {
		s.F2Rows = fe.Rows()
		s.F2Cols = fe.Cols()
	}
	if st.fromSnap {
		s.RecoveredFrom = "snapshot"
	}
	if p := st.wireAddr.Load(); p != nil && *p != "" {
		s.WireAddr = *p
		s.WireProto = int(st.wireProto.Load())
	}
	if ns := st.lastCkpt.Load(); ns > 0 {
		s.LastCheckpoint = time.Unix(0, ns).UTC().Format(time.RFC3339)
	}
	return s
}

// syncPolicy returns the effective WAL fsync policy.
func (st *Store) syncPolicy() wal.SyncPolicy {
	if st.cfg.NoSync {
		return wal.SyncOff
	}
	return st.cfg.Sync
}

// ParseAlgorithm builds a bank algorithm from flag-style parameters — the
// shared vocabulary of counterd, countertool serve, and tests.
func ParseAlgorithm(name string, a float64, width, mantissa int) (bank.Algorithm, error) {
	switch name {
	case "morris":
		return bank.NewMorrisAlg(a, width), nil
	case "csuros":
		return bank.NewCsurosAlg(width, mantissa), nil
	case "exact":
		return bank.NewExactAlg(width), nil
	default:
		return nil, fmt.Errorf("unknown algorithm %q (want morris | csuros | exact)", name)
	}
}

func snapPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", snapPrefix, seq, snapSuffix))
}

func deltaPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", snapPrefix, seq, deltaSuffix))
}

// listSeqs returns the checkpoint sequence numbers with the given suffix
// (.nysc fulls or .nysd deltas) in dir, ascending.
func listSeqs(dir, suffix string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	var seqs []uint64
	for _, e := range ents {
		name := e.Name()
		if len(name) <= len(snapPrefix)+len(suffix) ||
			name[:len(snapPrefix)] != snapPrefix || name[len(name)-len(suffix):] != suffix {
			continue
		}
		var seq uint64
		if _, err := fmt.Sscanf(name[len(snapPrefix):len(name)-len(suffix)], "%d", &seq); err != nil {
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// loadSnap reads and decodes one checkpoint file.
func loadSnap(path string) (*snapcodec.Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return snapcodec.DecodeFrom(f)
}

// newestSnapshot loads the highest-sequence FULL checkpoint. Snapshots are
// written atomically (tmp + rename after fsync), so a listed checkpoint
// that fails its CRC is bit rot, not a torn write — and because the WAL
// below it was truncated when it landed, no older checkpoint can be trusted
// to cover the gap. That is a loud error, not a silent fallback.
func newestSnapshot(dir string) (uint64, *snapcodec.Snapshot, error) {
	seqs, err := listSeqs(dir, snapSuffix)
	if err != nil {
		return 0, nil, err
	}
	if len(seqs) == 0 {
		return 0, nil, nil
	}
	seq := seqs[len(seqs)-1]
	snap, err := loadSnap(snapPath(dir, seq))
	if err != nil {
		return 0, nil, fmt.Errorf("server: checkpoint %d unreadable: %w", seq, err)
	}
	return seq, snap, nil
}

// applyDeltaChain splices every delta checkpoint above the full snapshot at
// fullSeq onto snap, in sequence order, verifying the chain links: each
// delta's base id must name the previous chain element, starting at the
// full snapshot itself. Deltas at or below fullSeq are leftovers of a
// crashed GC — obsolete, ignored (and left for the next full checkpoint's
// GC). A delta above fullSeq that does not link is a hole in the chain;
// since the WAL below the newest checkpoint is truncated, that is
// unrecoverable and loudly so. Returns the chain length and the sequence of
// the newest chain element (fullSeq when no deltas apply).
func applyDeltaChain(dir string, fullSeq uint64, snap *snapcodec.Snapshot) (int, uint64, error) {
	seqs, err := listSeqs(dir, deltaSuffix)
	if err != nil {
		return 0, 0, err
	}
	chain := 0
	prev := fullSeq
	for _, seq := range seqs {
		if seq <= fullSeq {
			continue
		}
		d, err := loadSnap(deltaPath(dir, seq))
		if err != nil {
			return 0, 0, fmt.Errorf("server: delta checkpoint %d unreadable: %w", seq, err)
		}
		if !d.IsDelta() {
			return 0, 0, fmt.Errorf("server: delta checkpoint %d is not a delta snapshot", seq)
		}
		if d.DeltaBase != prev {
			return 0, 0, fmt.Errorf("server: delta checkpoint %d chains onto %d, want %d — chain broken",
				seq, d.DeltaBase, prev)
		}
		if err := snapcodec.ApplyDelta(snap, d); err != nil {
			return 0, 0, fmt.Errorf("server: delta checkpoint %d: %w", seq, err)
		}
		prev = seq
		chain++
	}
	return chain, prev, nil
}

// syncDir fsyncs a directory so a just-renamed file's dirent is durable.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
