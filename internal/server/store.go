// Package server turns an in-memory sketch engine into a durable,
// restartable network service. It has two halves:
//
//   - Store: the persistence layer over a pluggable internal/engine sketch
//     (the Morris/Csűrös/exact register bank by default, the SpaceSaving
//     heavy-hitters engine with Config.Engine "topk", the sliding-window
//     engine with "window"). Every mutation is a WAL record, defined by
//     one pair of functions: Store.check validates a record and
//     Store.apply performs its effect. The live write path (Store.write)
//     runs check, stages the record and runs apply under one lock, so log
//     order equals apply order; recovery runs the same pair on every
//     replayed record, so replay performs exactly the live operations.
//     For windowed engines that includes time itself: the store observes
//     the bucket clock once per write (and on AdvanceWindow) and stages
//     the epoch as a tick record, so rotation is part of the logged
//     operation order. Recovery loads the checkpoint chain (checkpoint.go:
//     a full snapshot with its generator streams, then block deltas) and
//     replays the WAL segments after it; with no checkpoint it rebuilds
//     from the seed and the full log. Either way the recovered state is
//     bit-identical to the pre-crash engine, because every engine's
//     batched apply is deterministic in batch order and its rng streams
//     are part of the checkpoint.
//
//   - HTTP handler (http.go): POST /v1/inc, GET /v1/estimate/{key},
//     GET /v1/estimates, GET /v1/topk (all three accepting ?window= on
//     windowed engines), GET /v1/snapshot (a streamed snapcodec snapshot),
//     POST /v1/merge (ingest a peer snapshot via the engine's
//     disjoint-stream join), POST /v1/mergemax (replica join),
//     GET /v1/healthz.
package server

import (
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
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
	// Sync is the WAL fsync durability policy (default wal.SyncAlways).
	Sync wal.SyncPolicy
	// SyncInterval is the background fsync cadence under wal.SyncInterval.
	SyncInterval time.Duration
	// MaxBatch caps the keys accepted in one increment batch (0 = 1<<16).
	MaxBatch int
	// Partitions splits the key space into contiguous ranges served by
	// GET /v1/snapshot/{p} — the unit of cluster replication and anti-entropy
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

	vers      *versions     // partition write versions and the probes memoised on them
	ledger    ownership     // rebalance ownership, kept by apply
	chain     *checkpointer // the checkpoint files; its lock comes before writeMu
	recovered wal.ReplayStats
	fromSnap  bool
	started   time.Time

	// Operation counters live in the metrics registry (one atomic each);
	// Stats() and /metrics read the same values. Replay increments them
	// too, matching the pre-metrics /v1/healthz semantics: the counts cover
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

	mergeReceived *metrics.Counter // bytes of live max-join blobs as received
	mergeLogged   *metrics.Counter // bytes of their WAL records' blobs

	mApply    *metrics.Histogram // durable apply latency (stage+apply+commit)
	mBatchLen *metrics.Histogram // keys per applied batch

	// wireAddr/wireProto describe the binary wire listener, when one is up
	// (set once by SetWireInfo before serving; read by Stats for /v1/healthz).
	wireAddr  atomic.Pointer[string]
	wireProto atomic.Int64
}

// SetWireInfo records the advertised wire-listener address and protocol
// version so /v1/healthz can report them. Call once, before serving traffic;
// an empty addr leaves the stats fields absent.
func (st *Store) SetWireInfo(addr string, proto int) {
	st.wireAddr.Store(&addr)
	st.wireProto.Store(int64(proto))
}

// Open opens (or initializes) a durable store in cfg.Dir. When a checkpoint
// snapshot exists its header overrides cfg's bank shape — the on-disk state
// is the source of truth for an existing store.
func Open(cfg Config) (*Store, error) {
	cfg.MaxBatch = positiveOr(cfg.MaxBatch, 1<<16)
	cfg.Partitions = positiveOr(cfg.Partitions, 1)
	if cfg.Partitions > snapcodec.MaxPartitions {
		return nil, fmt.Errorf("server: %d partitions exceeds %d", cfg.Partitions, snapcodec.MaxPartitions)
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	st := &Store{cfg: cfg, started: time.Now(), chain: newCheckpointer(cfg)}
	eng, err := st.chain.restore()
	if err != nil {
		return nil, err
	}
	st.eng, st.fromSnap = eng, eng != nil
	if eng == nil {
		if cfg.N <= 0 || cfg.Alg == nil {
			return nil, errors.New("server: empty store and no engine shape configured")
		}
		dur := int64(cfg.BucketDur)
		if dur <= 0 {
			dur = int64(time.Minute)
		}
		parts, seed := cfg.Partitions, cfg.Seed
		switch cfg.Engine {
		case "", engine.KindBank:
			st.eng = engine.NewBank(shardbank.New(cfg.N, cfg.Alg, positiveOr(cfg.Shards, 64), seed))
		case engine.KindTopK:
			st.eng, err = engine.NewTopK(cfg.N, cfg.Alg, parts, positiveOr(cfg.TopKCap, 64), seed)
		case engine.KindWindow:
			st.eng, err = engine.NewWindow(cfg.N, cfg.Alg, parts, positiveOr(cfg.Buckets, 8), dur, seed)
		case engine.KindDistinct:
			// Buckets > 0 selects the windowed flavor ("uniques in the last
			// N minutes"); otherwise the sketch counts uniques forever.
			p := positiveOr(cfg.DistinctPrecision, 12)
			if cfg.Buckets > 0 {
				st.eng, err = engine.NewDistinctWindow(cfg.N, parts, p, cfg.Buckets, dur, seed)
			} else {
				st.eng, err = engine.NewDistinct(cfg.N, parts, p, seed)
			}
		case engine.KindF2:
			rows, cols := positiveOr(cfg.F2Rows, 5), positiveOr(cfg.F2Cols, 64)
			if cfg.Buckets > 0 {
				st.eng, err = engine.NewF2Window(cfg.N, parts, rows, cols, cfg.Buckets, dur, seed)
			} else {
				st.eng, err = engine.NewF2(cfg.N, parts, rows, cols, seed)
			}
		default:
			return nil, fmt.Errorf("server: unknown engine %q (want %s | %s | %s | %s | %s)",
				cfg.Engine, engine.KindBank, engine.KindTopK, engine.KindWindow,
				engine.KindDistinct, engine.KindF2)
		}
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
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

	st.vers = newVersions(st.eng.Len(), st.cfg.Partitions)
	st.initMetrics(cfg.Metrics)

	// A snapshot restore marks the whole register layout dirty (the engine
	// cannot know the image it loaded is the durable checkpoint itself).
	// Drain that here, BEFORE replay, so the bitmap tracks exactly the
	// blocks touched since the newest checkpoint: the replay below re-marks
	// the tail's writes through the ordinary apply paths, and the next
	// checkpoint's delta covers precisely checkpoint-to-now churn.
	st.eng.ClearDirty()

	st.recovered, err = wal.Replay(cfg.Dir, st.chain.seq.Load(), st.replay)
	if err != nil {
		return nil, fmt.Errorf("server: recovery: %w", err)
	}
	// Remove a torn tail now, while its segment is still the final one:
	// wal.Open below starts a fresh segment, after which an unrepaired torn
	// record would read as mid-log corruption on the next recovery.
	if err := wal.RepairTorn(cfg.Dir, st.recovered); err != nil {
		return nil, fmt.Errorf("server: recovery: %w", err)
	}
	st.log, err = wal.Open(cfg.Dir, wal.Options{SegmentBytes: cfg.SegmentBytes, Policy: cfg.Sync,
		Interval: cfg.SyncInterval, Metrics: st.metrics})
	if err != nil {
		return nil, err
	}
	return st, nil
}

// positiveOr returns v, or def when v is not positive: a zero Config field
// means the default.
func positiveOr(v, def int) int {
	if v <= 0 {
		return def
	}
	return v
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
	st.merges, st.mergeMaxs, st.deltaMaxs = mv.With("disjoint"), mv.With("max"), mv.With("delta")
	bv := reg.CounterVec("counterd_store_merge_blob_bytes_total",
		"Bytes of live replica max-join blobs (full and block-delta), by form: received from the peer, or logged to the WAL after a full bank snapshot kept only the registers it raises.", "form")
	st.mergeReceived, st.mergeLogged = bv.With("received"), bv.With("logged")
	st.stales = reg.Counter("counterd_store_stale_hint_keys_total",
		"Epoch-tagged hint keys dropped because their origin bucket rotated out in transit.")
	st.vers.register(reg)
	st.evicts = reg.Counter("counterd_store_evicts_total",
		"Partitions truncated after a rebalance surrender.")
	st.ticks = reg.Counter("counterd_store_ticks_total",
		"Window bucket rotations applied (windowed engines).")
	st.mApply = reg.HistogramVec("counterd_store_apply_seconds",
		"Durable apply latency per batch: WAL stage + engine apply + group commit.",
		metrics.LatencyBuckets, "engine").With(kind)
	st.mBatchLen = reg.Histogram("counterd_store_batch_keys",
		"Keys per applied increment batch.", metrics.SizeBuckets)
	st.chain.register(reg)
	st.ledger.register(reg)
	reg.GaugeFunc("counterd_store_dirty_blocks",
		"Register blocks written since the last checkpoint (the next delta's size, in blocks).",
		func() float64 { return float64(st.eng.DirtyCount()) })
	reg.Gauge("counterd_store_keyspace_keys",
		"Keys in the serving key space (engine length).").Set(float64(st.eng.Len()))
	reg.Gauge("counterd_store_partitions",
		"Key-space partitions (the replication/handoff unit).").Set(float64(st.cfg.Partitions))
	reg.Gauge("counterd_store_start_time_seconds",
		"Unix time this store opened.").Set(float64(st.started.UnixNano()) / 1e9)
	st.memGauges(reg)
}

// Metrics returns the store's registry — the one /metrics renders and
// every layer serving this store (wire listener, cluster node) registers
// into.
func (st *Store) Metrics() *metrics.Registry { return st.metrics }

// Ready reports whether the store can durably accept writes: nil while
// the WAL is open and unpoisoned. The base /v1/readyz check; the cluster
// layer adds ring-reconciliation on top.
func (st *Store) Ready() error { return st.log.Healthy() }

// op is one store mutation: the WAL record that defines it, plus what check
// derived from the record for apply and for the live path's version bumps.
type op struct {
	rec wal.Record
	// snap is a merge record's checked peer snapshot — a delta's
	// materialized form once check has run (delta remembers which it was).
	// The live merge paths decode it before taking writeMu, since blobs can
	// be MBs; on replay check decodes the blob.
	snap  *snapcodec.Snapshot
	delta bool
	// wantVer is a live delta join's version guard (VersionAny on replay).
	wantVer uint64
	// applied is how many of a batch record's keys apply counted: fewer
	// than len(Keys) when a windowed engine drops keys whose origin bucket
	// rotated out.
	applied int
}

// replay checks and applies one recovered WAL record with exactly the code
// the live write path ran when it logged it.
func (st *Store) replay(rec wal.Record) error {
	o := op{rec: rec, wantVer: VersionAny}
	err := st.check(&o)
	if err == nil {
		err = st.apply(&o)
	}
	if err != nil {
		return fmt.Errorf("server: replayed record type %d: %w", rec.Type, err)
	}
	return nil
}

// check validates a record against the store as it stands and derives what
// apply needs, so that apply cannot fail on a record check accepted. It runs
// before Stage on the live path (under writeMu) and before apply on replay:
// a record that would fail to apply is never logged, because on replay it
// would fail identically and brick the store.
func (st *Store) check(o *op) error {
	rec := &o.rec
	switch rec.Type {
	case wal.RecBatch, wal.RecBatchAt:
		for _, k := range rec.Keys {
			if k < 0 || k >= st.eng.Len() {
				return fmt.Errorf("%w: key %d out of range [0,%d)", ErrBadInput, k, st.eng.Len())
			}
		}
	case wal.RecTick:
		if st.windowed == nil {
			return fmt.Errorf("tick to epoch %d on non-windowed engine %q", rec.Epoch, st.eng.Kind())
		}
	case wal.RecMerge, wal.RecMergeMax:
		if o.snap == nil {
			snap, err := st.decodePeer(rec.Blob, rec.Type)
			if err != nil {
				return err
			}
			o.snap = snap
		}
		if o.snap.IsDelta() {
			// A delta re-materializes against the partition as it stands at
			// this log position — byte-identical on replay to the live base
			// (log order = apply order), so both land the same registers.
			if err := st.vers.guard(o.snap.Partition, o.wantVer); err != nil {
				return err
			}
			full, err := st.materializeLocked(o.snap)
			if err != nil {
				return fmt.Errorf("%w: %w", ErrBadInput, err)
			}
			o.snap, o.delta = full, true
		}
	case wal.RecOwn:
		for _, p := range slices.Concat(rec.Keys, rec.Parts, rec.Owned) {
			if err := st.checkPartition(p); err != nil {
				return err
			}
		}
	case wal.RecEvict:
		return st.checkPartition(int(rec.Epoch))
	default:
		return fmt.Errorf("unknown WAL record type %d", rec.Type)
	}
	return nil
}

// apply performs a checked record's effect on the engine, the ownership
// state and the operation counters. It is the one definition of what each
// record type does: the live write path and replay both run it, which is
// what makes a recovered store equal the live one.
func (st *Store) apply(o *op) error {
	rec := &o.rec
	switch rec.Type {
	case wal.RecBatch, wal.RecBatchAt:
		if rec.Type == wal.RecBatchAt && st.windowed != nil {
			o.applied = st.windowed.ApplyBatchEpoch(rec.Keys, rec.Epoch)
		} else {
			st.eng.ApplyBatch(rec.Keys)
			o.applied = len(rec.Keys)
		}
		st.batches.Add(1)
		st.keys.Add(uint64(o.applied))
		if stale := len(rec.Keys) - o.applied; stale > 0 {
			st.stales.Add(uint64(stale))
		}
	case wal.RecTick:
		st.windowed.Advance(rec.Epoch)
		st.ticks.Add(1)
	case wal.RecMerge, wal.RecMergeMax:
		join, count := st.eng.MergeMax, st.mergeMaxs
		switch {
		case rec.Type == wal.RecMerge:
			join, count = st.eng.Merge, st.merges
		case o.delta:
			count = st.deltaMaxs
		}
		if err := join(o.snap); err != nil {
			return err
		}
		// A merge into a partition completes its install: recovery derives
		// the pending set as "last RecOwn minus merges logged after it", so
		// a crashed node never re-pulls (and disjoint-merges twice) a
		// partition whose install already committed.
		if o.snap.IsPartition() && o.snap.Parts == st.cfg.Partitions {
			st.ledger.drop(setPending, o.snap.Partition)
		}
		count.Add(1)
	case wal.RecOwn:
		st.ledger.set(rec)
	case wal.RecEvict:
		p := int(rec.Epoch)
		if err := st.eng.ResetRange(snapcodec.PartitionRange(st.eng.Len(), st.cfg.Partitions, p)); err != nil {
			return err
		}
		st.ledger.drop(setFrozen, p)
		st.evicts.Add(1)
	}
	return nil
}

// write is the one live mutation path, behind every write entry point.
// Under writeMu it checks o, observes the bucket clock when clock is set,
// shrinks a max-join record to the registers it raises, stages o's record
// and applies it; then, outside the lock, it bumps the partition versions
// the write moved and joins group commit. A nil o only observes the clock.
// Every tick is staged before the record it precedes, so log order is
// apply order, and apply is what replay runs.
func (st *Store) write(o *op, clock bool) error {
	var err error
	var ticket, t uint64
	var received int // bytes of a max-join's blob as it came in
	st.writeMu.Lock()
	if o != nil {
		err = st.check(o)
	}
	if err == nil && clock && st.windowed != nil {
		ticket, err = st.tickLocked(st.clock())
	}
	// An epoch-tagged batch from an origin whose clock runs ahead first
	// rotates the ring to that epoch, so the hint is not mistaken for an
	// expired one.
	if err == nil && o != nil && o.rec.Type == wal.RecBatchAt {
		t, err = st.tickLocked(o.rec.Epoch)
	}
	ticked := ticket > 0 || t > 0
	if err == nil && o != nil && o.rec.Type == wal.RecMergeMax {
		received = len(o.rec.Blob)
		err = st.keepRaisedLocked(o)
	}
	// Committing the record's ticket also makes the ticks staged before it
	// durable: group commit flushes in stage order.
	if err == nil && o != nil {
		if ticket, err = st.log.Stage(o.rec); err == nil {
			err = st.apply(o)
		}
	}
	st.writeMu.Unlock()
	// Versions move only after the registers did: the hash memo reads a
	// partition's version before it scans.
	if ticked {
		st.vers.bumpAll()
	}
	if err != nil || ticket == 0 {
		return err
	}
	if o != nil {
		switch o.rec.Type {
		case wal.RecBatch, wal.RecBatchAt:
			if o.applied > 0 {
				st.vers.bumpKeys(o.rec.Keys)
			}
		case wal.RecMergeMax:
			st.mergeReceived.Add(uint64(received))
			st.mergeLogged.Add(uint64(len(o.rec.Blob)))
			st.vers.bumpRange(st.peerSpan(o.snap))
		case wal.RecMerge:
			st.vers.bumpRange(st.peerSpan(o.snap))
		case wal.RecEvict:
			st.vers.bumpRange(snapcodec.PartitionRange(st.eng.Len(), st.cfg.Partitions, int(o.rec.Epoch)))
		}
	}
	return st.log.Commit(ticket)
}

// keepRaisedLocked shrinks a checked max-join record of a full bank
// snapshot, whole or one partition, to the registers it raises: every peer
// register that does not exceed the local one becomes 0, and the record
// logs the snapshot re-encoded. max(a, b if b > a else 0) is max(a, b), so
// apply, replay, the dirty bitmap and an install's side effect are the same
// as for the blob received; only the logged bytes shrink, since a replica
// raises the few registers where its peer's walk ran ahead. A snapshot
// with nothing to zero (a fresh ring's installs are all zeros), a delta and
// other engines' snapshots log as received. Caller holds writeMu, so the
// registers compared are the ones apply joins.
func (st *Store) keepRaisedLocked(o *op) error {
	be, ok := st.eng.(*engine.BankEngine)
	if !ok || o.delta {
		return nil
	}
	zeroed, err := be.KeepRaised(o.snap)
	if err != nil || zeroed == 0 {
		return err
	}
	blob, err := snapcodec.Encode(o.snap)
	if err != nil {
		return err
	}
	o.rec.Blob = blob
	return nil
}

// tickLocked advances a windowed engine to epoch when it is ahead of the
// engine's clock, staging the tick first so replay rotates at exactly this
// point in the record order. The epoch is whatever the caller observed —
// replay never re-derives it. Returns the tick's ticket, 0 when there was
// nothing to advance. Caller holds writeMu.
func (st *Store) tickLocked(epoch uint64) (uint64, error) {
	if st.windowed == nil || epoch <= st.windowed.Epoch() {
		return 0, nil
	}
	tick := op{rec: wal.Record{Type: wal.RecTick, Epoch: epoch}}
	ticket, err := st.log.Stage(tick.rec)
	if err != nil {
		return 0, err
	}
	return ticket, st.apply(&tick)
}

// checkPartition rejects a partition id outside the local split.
func (st *Store) checkPartition(p int) error {
	if p < 0 || p >= st.cfg.Partitions {
		return fmt.Errorf("%w: partition %d out of [0, %d)", ErrBadInput, p, st.cfg.Partitions)
	}
	return nil
}

// decodePeer decodes a merge record's blob and validates it against the
// local engine. A full snapshot — whole or one partition — must pass
// engine.CheckPeer for the record's join: the disjoint merge (RecMerge)
// needs algorithm support, the max join none. A block delta must be one
// partition of the local split and joins only by max: its register section
// is a scatter of blocks, which check materializes over the local
// registers before anything splices it.
func (st *Store) decodePeer(blob []byte, typ byte) (*snapcodec.Snapshot, error) {
	snap, err := snapcodec.DecodeCapped(blob, st.decodeCap())
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadInput, err)
	}
	if snap.IsDelta() {
		if typ != wal.RecMergeMax || !snap.IsPartition() || snap.Parts != st.cfg.Partitions {
			return nil, fmt.Errorf("%w: a delta joins only by max, as one partition of the local %d-way split",
				ErrBadInput, st.cfg.Partitions)
		}
		return snap, nil
	}
	if err := st.eng.CheckPeer(snap, typ == wal.RecMerge); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadInput, err)
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
// base cannot move between export and join; decodePeer vetted the delta's
// partition.
func (st *Store) materializeLocked(d *snapcodec.Snapshot) (*snapcodec.Snapshot, error) {
	base, err := st.eng.Snapshot(d.Partition, d.Parts, false)
	if err != nil {
		return nil, err
	}
	defer base.Release()
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
	_, err := st.ingest(wal.Record{Type: wal.RecBatch, Keys: keys})
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
		return st.ingest(wal.Record{Type: wal.RecBatch, Keys: keys})
	}
	return st.ingest(wal.Record{Type: wal.RecBatchAt, Epoch: epoch, Keys: keys})
}

// ingest is the admission policy the increment entry points share: empty
// batches are no-ops, and MaxBatch bounds what a request may carry (never
// what replay accepts). It returns the number of keys counted.
func (st *Store) ingest(rec wal.Record) (int, error) {
	if len(rec.Keys) == 0 {
		return 0, nil
	}
	if len(rec.Keys) > st.cfg.MaxBatch {
		return 0, fmt.Errorf("%w: batch of %d keys exceeds limit %d", ErrBadInput, len(rec.Keys), st.cfg.MaxBatch)
	}
	t0 := time.Now()
	o := op{rec: rec}
	err := st.write(&o, true)
	if err == nil {
		st.mBatchLen.Observe(float64(len(rec.Keys)))
		st.mApply.ObserveSince(t0)
	}
	return o.applied, err
}

// AdvanceWindow rotates a windowed engine to the current bucket epoch even
// when no writes arrive (counterd runs this on a timer so idle traffic
// still expires), committing the WAL tick before returning. A no-op —
// including on non-windowed engines — when there is nothing to advance.
func (st *Store) AdvanceWindow() error {
	return st.write(nil, true)
}

// Merge ingests a peer snapshot (snapcodec bytes, whole or one partition)
// via the engine's disjoint-stream join — the paper's Remark 2.4 for
// register banks, the SpaceSaving union for top-k — WAL-logging the blob so
// recovery replays the merge at the same point in the operation order. Use
// it for sketches that absorbed DISJOINT streams; replicas of the same
// stream converge with MergeMax instead.
func (st *Store) Merge(blob []byte) error {
	return st.mergeBlob(blob, wal.RecMerge, false)
}

// MergeMax ingests a peer snapshot via the engine's idempotent replica join
// (register-wise maximum for banks, slot-wise max takeover for top-k) — the
// join the cluster's anti-entropy uses between replicas that applied the
// same logical stream. WAL-logged like Merge, except that a bank record
// keeps only the registers the join raises (keepRaisedLocked); max draws no
// randomness, so replay is trivially exact.
func (st *Store) MergeMax(blob []byte) error {
	return st.mergeBlob(blob, wal.RecMergeMax, false)
}

// mergeBlob writes a full peer snapshot as a typ merge record — with
// install set, only one partition of the local split. The blob is decoded
// and checked here, before write takes writeMu, because it can be MBs.
func (st *Store) mergeBlob(blob []byte, typ byte, install bool) error {
	snap, err := st.decodePeer(blob, typ)
	if err != nil {
		return err
	}
	if snap.IsDelta() {
		return fmt.Errorf("%w: delta snapshot on a full-snapshot ingest path", ErrBadInput)
	}
	if install && (!snap.IsPartition() || snap.Parts != st.cfg.Partitions) {
		return fmt.Errorf("%w: install needs a partition snapshot of the local %d-way split",
			ErrBadInput, st.cfg.Partitions)
	}
	return st.write(&op{rec: wal.Record{Type: typ, Blob: blob}, snap: snap}, false)
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
	d, err := st.decodePeer(blob, wal.RecMergeMax)
	if err != nil {
		return err
	}
	if !d.IsDelta() {
		return fmt.Errorf("%w: delta join of a non-delta snapshot", ErrBadInput)
	}
	return st.write(&op{rec: wal.Record{Type: wal.RecMergeMax, Blob: blob}, snap: d, wantVer: wantVer}, false)
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
	defer snap.Release()
	if snap.Regs().Len() == 0 {
		return fmt.Errorf("%w: engine %q snapshots carry no register blocks", ErrBadInput, st.eng.Kind())
	}
	d, err := snapcodec.MakeDelta(snap, 0, blocks)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrBadInput, err)
	}
	return snapcodec.EncodeTo(w, d)
}

// SetOwnership durably records the rebalance state at a ring version: the
// partitions this node still has to install (pending), the partitions it
// holds frozen for surrender, and the partitions it owns on that ring.
// Staged under the write lock so the record's position in the log is
// consistent with the merges and evicts around it.
func (st *Store) SetOwnership(ring uint64, pending, frozen, owned []int) error {
	return st.write(&op{rec: wal.Record{Type: wal.RecOwn, Epoch: ring, Keys: pending, Parts: frozen, Owned: owned}}, false)
}

// EvictPartition truncates partition p's sketch state — the final step of a
// rebalance surrender, after every new owner confirmed its install. The
// evict is WAL-logged before the reset (log order = apply order, like every
// mutation), so recovery replays it at the same point and the truncated
// registers stay truncated.
func (st *Store) EvictPartition(p int) error {
	return st.write(&op{rec: wal.Record{Type: wal.RecEvict, Epoch: uint64(p)}}, false)
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
// the same record (see Store.apply), a crashed node can never pull and
// disjoint-merge the same history twice.
func (st *Store) InstallPartition(blob []byte, disjoint bool) error {
	if disjoint {
		return st.mergeBlob(blob, wal.RecMerge, true)
	}
	return st.mergeBlob(blob, wal.RecMergeMax, true)
}

// Estimate returns N̂ for one key over the trailing w buckets of a windowed
// engine; w = 0 asks for no window — the whole ring of a windowed engine,
// the only answer of any other.
func (st *Store) Estimate(key, w int) (float64, error) {
	if key < 0 || key >= st.eng.Len() {
		return 0, fmt.Errorf("%w: key %d out of range [0,%d)", ErrBadInput, key, st.eng.Len())
	}
	if w == 0 {
		return st.eng.Estimate(key), nil
	}
	if st.windowed == nil {
		return 0, st.errNoWindow()
	}
	v, err := st.windowed.EstimateWindow(key, w)
	return v, badInput(err)
}

// EstimateAll returns all estimates in a fresh slice (see
// engine.Engine.EstimateAll), over the trailing w buckets as Estimate does.
func (st *Store) EstimateAll(w int) ([]float64, error) {
	if w == 0 {
		return st.eng.EstimateAll(), nil
	}
	if st.windowed == nil {
		return nil, st.errNoWindow()
	}
	out, err := st.windowed.EstimateAllWindow(w)
	return out, badInput(err)
}

// MaxTopK is the largest k a top-k query may ask for. Every engine selects
// its k winners by insertion into a sorted buffer — right for a report, and
// quadratic under the shard locks for a k that is really a dump of the key
// space (GET /v1/estimates is that read). A constant, not a flag: 4096 is
// far past any ranking a person or a dashboard reads.
const MaxTopK = 4096

// keyRange returns the key range of one partition (partition >= 0) or of
// the whole key space (partition < 0).
func (st *Store) keyRange(partition int) (lo, hi int, err error) {
	if partition < 0 {
		return 0, st.eng.Len(), nil
	}
	if err := st.checkPartition(partition); err != nil {
		return 0, 0, err
	}
	lo, hi = snapcodec.PartitionRange(st.eng.Len(), st.cfg.Partitions, partition)
	return lo, hi, nil
}

// TopK returns the top-k keys (k ≤ MaxTopK) of one partition (partition >=
// 0) or of the whole key space (partition < 0), ranked by descending
// estimate over the trailing w buckets as Estimate does.
func (st *Store) TopK(k, partition, w int) ([]engine.Entry, error) {
	if k <= 0 || k > MaxTopK {
		return nil, fmt.Errorf("%w: k = %d out of [1, %d]", ErrBadInput, k, MaxTopK)
	}
	lo, hi, err := st.keyRange(partition)
	if err != nil {
		return nil, err
	}
	if w == 0 {
		return st.eng.TopK(k, lo, hi)
	}
	if st.windowed == nil {
		return nil, st.errNoWindow()
	}
	top, err := st.windowed.TopKWindow(k, lo, hi, w)
	return top, badInput(err)
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
		return 0, st.errNoWindow()
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

// errNoWindow answers a windowed query on an engine without a ring.
func (st *Store) errNoWindow() error {
	return fmt.Errorf("%w: engine %q serves no windowed queries", ErrBadInput, st.eng.Kind())
}

// badInput marks an engine's refusal of a query as the caller's fault.
func badInput(err error) error {
	if err != nil {
		return fmt.Errorf("%w: %w", ErrBadInput, err)
	}
	return nil
}

// RangeEstimate returns the engine's scalar range estimate — a distinct
// engine's cardinality, an F2 engine's second moment — for one partition
// (partition >= 0) or the whole key space (partition < 0). w > 0 restricts
// the answer to the trailing w buckets of a windowed engine; w == 0 means
// the cumulative (or full-ring) estimate. Engines without the scalar query
// surface (bank, topk, window) reject with ErrBadInput.
func (st *Store) RangeEstimate(partition, w int) (float64, error) {
	lo, hi, err := st.keyRange(partition)
	if err != nil {
		return 0, err
	}
	if w > 0 {
		wre, ok := st.eng.(engine.WindowRangeEstimator)
		if !ok {
			return 0, fmt.Errorf("%w: engine %q serves no windowed range estimates", ErrBadInput, st.eng.Kind())
		}
		v, err := wre.RangeEstimateWindow(lo, hi, w)
		return v, badInput(err)
	}
	re, ok := st.eng.(engine.RangeEstimator)
	if !ok {
		return 0, fmt.Errorf("%w: engine %q serves no range estimates", ErrBadInput, st.eng.Kind())
	}
	v, err := re.RangeEstimate(lo, hi)
	return v, badInput(err)
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
// state) to w — the GET /v1/snapshot payload, and what a peer feeds to
// POST /v1/merge.
func (st *Store) SnapshotTo(w io.Writer) error {
	return engine.SnapshotTo(w, st.eng, 0, 0, false)
}

// Partitions returns the configured partition count of the key space.
func (st *Store) Partitions() int { return st.cfg.Partitions }

// MaxBatch returns the largest increment batch Apply accepts.
func (st *Store) MaxBatch() int { return st.cfg.MaxBatch }

// PartitionSnapshotTo streams a snapshot of one partition — the key range
// snapcodec.PartitionRange(n, Partitions, p) — to w: the GET /v1/snapshot/{p}
// payload, and the unit the cluster's replication and anti-entropy exchange.
func (st *Store) PartitionSnapshotTo(w io.Writer, p int) error {
	if p < 0 || p >= st.cfg.Partitions {
		return fmt.Errorf("%w: partition %d out of [0, %d)", ErrBadInput, p, st.cfg.Partitions)
	}
	return engine.SnapshotTo(w, st.eng, p, st.cfg.Partitions, false)
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

// Stats is the /v1/healthz payload.
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
		FsyncPolicy:     st.cfg.Sync.String(),
		Batches:         st.batches.Value(),
		Keys:            st.keys.Value(),
		Merges:          st.merges.Value(),
		MergeMaxes:      st.mergeMaxs.Value(),
		Evicts:          st.evicts.Value(),
		CheckpointSeq:   st.chain.seq.Load(),
		CheckpointChain: int(st.chain.deltas.Load()),
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
	if ns := st.chain.last.Load(); ns > 0 {
		s.LastCheckpoint = time.Unix(0, ns).UTC().Format(time.RFC3339)
	}
	return s
}
