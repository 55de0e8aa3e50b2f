package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/shardbank"
	"repro/internal/snapcodec"
)

const (
	snapPrefix  = "snap-"
	snapSuffix  = ".nysc"
	deltaSuffix = ".nysd"
	tmpSuffix   = ".tmp"
)

// checkpointer owns the checkpoint chain in the data dir: one full snapshot
// (snap-S.nysc), then block deltas (snap-S.nysd) chained onto it, each
// tagged with the WAL segment S it starts. It decides full versus delta,
// writes the files atomically (tmp + fsync + rename + dir fsync), collects
// what a full snapshot obsoletes, and restores the chain on Open. A crash at
// any point leaves the old chain plus a longer log or the new chain plus a
// shorter one; both replay to the same state.
//
// mu is held for the whole of Store.Checkpoint, so checkpoints never
// interleave: one that chained onto the other's base, or truncated the log
// under it, would break the chain. Lock order is mu, then Store.writeMu;
// the write path never takes mu. What Stats and /metrics read is published
// in atomics and never waits on mu.
type checkpointer struct {
	dir      string
	fraction float64 // a checkpoint is a delta while dirty blocks ≤ fraction × blocks; < 0 never
	maxChain int     // deltas allowed between full checkpoints

	mu        sync.Mutex
	forceFull bool // under mu: a failed checkpoint left an image the next delta must not chain past

	seq    atomic.Uint64 // WAL segment tagged by the newest checkpoint
	deltas atomic.Int64  // delta checkpoints since the newest full one
	last   atomic.Int64  // unix nanos of the last successful checkpoint

	dur                                *metrics.Histogram
	full, delta, fullBytes, deltaBytes *metrics.Counter
}

// newCheckpointer resolves cfg's delta policy once: DeltaFraction 0 means
// 0.5, MaxDeltaChain 0 means 8.
func newCheckpointer(cfg Config) *checkpointer {
	c := &checkpointer{dir: cfg.Dir, fraction: cfg.DeltaFraction, maxChain: positiveOr(cfg.MaxDeltaChain, 8)}
	if c.fraction == 0 {
		c.fraction = 0.5
	}
	return c
}

// register adds the checkpoint series to reg.
func (c *checkpointer) register(reg *metrics.Registry) {
	c.dur = reg.Histogram("counterd_checkpoint_seconds",
		"Checkpoint duration: rotate + snapshot + fsync + GC.", metrics.ExpBuckets(1e-3, 2, 16))
	cv := reg.CounterVec("counterd_checkpoint_total",
		"Checkpoints written, by kind (full snapshot vs block delta).", "kind")
	c.full, c.delta = cv.With("full"), cv.With("delta")
	cb := reg.CounterVec("counterd_checkpoint_bytes_total",
		"Checkpoint bytes written to disk, by kind (full snapshot vs block delta).", "kind")
	c.fullBytes, c.deltaBytes = cb.With("full"), cb.With("delta")
	reg.GaugeFunc("counterd_checkpoint_chain_len",
		"Delta checkpoints since the newest full one (recovery loads the full plus this many deltas).",
		func() float64 { return float64(c.deltas.Load()) })
	reg.GaugeFunc("counterd_checkpoint_seq",
		"WAL segment tagged by the newest checkpoint.",
		func() float64 { return float64(c.seq.Load()) })
	reg.GaugeFunc("counterd_checkpoint_last_unixtime",
		"Unix time of the last successful checkpoint (0 before the first).",
		func() float64 { return float64(max(c.last.Load(), 0)) / 1e9 })
}

// Checkpoint rotates the WAL, writes the engine state tagged with the new
// segment number, and truncates the WAL below the tag. The image is a full
// snapshot (with generator states) or, when the engine tracks dirty blocks
// and few enough changed since the previous checkpoint, a block delta
// chained onto it, so its cost follows churn instead of keyspace.
// Config.DeltaFraction and Config.MaxDeltaChain bound when deltas are used
// and how many recovery may have to splice. A caller that overlaps another
// checkpoint waits for it, then writes the next link.
func (st *Store) Checkpoint() error {
	c := st.chain
	c.mu.Lock()
	defer c.mu.Unlock()
	defer c.dur.ObserveSince(time.Now())
	// Rotation, state capture, and the dirty-block drain happen under
	// writeMu so no write lands between "records before S", "engine state
	// at S", and "blocks dirtied before S". The bank engine's capture is a
	// copy-on-write cut that copies no register: encoding runs after the
	// lock is released, reading the registers of S while writers go on.
	st.writeMu.Lock()
	seq, err := st.log.Rotate()
	// Re-log the ownership epoch into the fresh segment: the truncation
	// drops every older record, and a restart mid-rebalance must still see
	// which transfers are owed. Replaying it over the snapshot taken next is
	// pure metadata.
	var ownTicket uint64
	if rec, ok := st.ledger.record(); err == nil && ok {
		ownTicket, err = st.log.Stage(rec)
	}
	var snap *snapcodec.Snapshot
	if err == nil {
		snap, err = st.eng.Snapshot(0, 0, true)
	}
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
	defer snap.Release()
	if ownTicket > 0 {
		err = st.log.Commit(ownTicket)
	}
	if err == nil {
		err = c.persist(seq, snap, dirty, tracked)
	}
	if err != nil {
		// The drained blocks stay owed to the next checkpoint until a new
		// image is durable, or a later delta would silently miss churn.
		if tracked {
			st.eng.MarkDirty(dirty)
		}
		return err
	}
	return st.log.TruncateBefore(seq)
}

// persist makes the image captured at WAL segment seq durable: a block delta
// chained onto the newest checkpoint when few enough blocks are dirty, else
// a full snapshot, which collapses the chain and collects every checkpoint
// file below it. Caller holds mu.
func (c *checkpointer) persist(seq uint64, snap *snapcodec.Snapshot, dirty []uint32, tracked bool) error {
	base := c.seq.Load()
	nregs := snap.Regs().Len()
	useDelta := tracked && base > 0 && nregs > 0 && !c.forceFull && c.fraction >= 0 &&
		c.deltas.Load() < int64(c.maxChain) &&
		float64(len(dirty)) <= c.fraction*float64(snapcodec.NumBlocks(nregs))
	path := snapPath(c.dir, seq)
	if useDelta {
		d, err := snapcodec.MakeDelta(snap, base, dirty)
		if err != nil {
			return err
		}
		snap, path = d, deltaPath(c.dir, seq)
	}
	bytes, err := writeSnapFile(path, snap)
	if err != nil {
		return err
	}
	if err := syncDir(c.dir); err != nil {
		// The new image's dirent may not survive a power loss, so nothing it
		// replaces may go: no WAL truncation, no snapshot GC. It may survive
		// too, so the next checkpoint is full — a delta chained onto the
		// previous tag would fork the chain.
		c.forceFull = true
		return fmt.Errorf("server: checkpoint: sync directory: %w", err)
	}
	c.seq.Store(seq)
	c.last.Store(time.Now().UnixNano())
	if useDelta {
		// No GC: the chain below stays load-bearing until the next full
		// checkpoint collapses it.
		c.deltas.Add(1)
		c.delta.Add(1)
		c.deltaBytes.Add(uint64(bytes))
		return nil
	}
	c.deltas.Store(0)
	c.forceFull = false
	c.full.Add(1)
	c.fullBytes.Add(uint64(bytes))
	// Collect older fulls, every delta (the new full obsoletes the chain)
	// and any .tmp a crash left mid-write: under mu no .tmp here is live.
	if ents, err := os.ReadDir(c.dir); err == nil {
		for _, e := range ents {
			if s, _, ok := parseCkptName(e.Name()); ok && s < seq {
				os.Remove(filepath.Join(c.dir, e.Name()))
			}
		}
	}
	return nil
}

// writeSnapFile writes one snapshot atomically (tmp + fsync + rename),
// returning the encoded size.
func writeSnapFile(path string, snap *snapcodec.Snapshot) (int64, error) {
	tmp := path + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, fmt.Errorf("server: checkpoint: %w", err)
	}
	size := int64(0)
	err = snapcodec.EncodeTo(f, snap)
	if fi, serr := f.Stat(); err == nil && serr == nil {
		size = fi.Size()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("server: checkpoint: %w", err)
	}
	return size, nil
}

// syncDir fsyncs a directory so a just-renamed file's dirent is durable. A
// variable so a test can make it fail.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func snapPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", snapPrefix, seq, snapSuffix))
}

func deltaPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", snapPrefix, seq, deltaSuffix))
}

// parseCkptName splits a checkpoint file name, snap-<seq><suffix>, where
// suffix is .nysc or .nysd, with .tmp after it while the file is written.
func parseCkptName(name string) (seq uint64, suffix string, ok bool) {
	rest, ok := strings.CutPrefix(name, snapPrefix)
	dot := strings.IndexByte(rest, '.')
	if !ok || dot < 0 {
		return 0, "", false
	}
	suffix = rest[dot:]
	if s := strings.TrimSuffix(suffix, tmpSuffix); s != snapSuffix && s != deltaSuffix {
		return 0, "", false
	}
	seq, err := strconv.ParseUint(rest[:dot], 10, 64)
	return seq, suffix, err == nil
}

// listSeqs returns the sequence numbers of the checkpoint files in dir whose
// suffix is exactly suffix (.nysc fulls or .nysd deltas), ascending.
func listSeqs(dir, suffix string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	var seqs []uint64
	for _, e := range ents {
		if seq, s, ok := parseCkptName(e.Name()); ok && s == suffix {
			seqs = append(seqs, seq)
		}
	}
	slices.Sort(seqs)
	return seqs, nil
}

// loadSnap reads and decodes one checkpoint file, writing its register
// section where header says (snapcodec.DecodeInto).
func loadSnap(path string, header snapcodec.SinkFunc) (*snapcodec.Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return snapcodec.DecodeInto(f, header)
}

// restore rebuilds the engine the newest checkpoint captured and takes over
// its chain: the highest-sequence FULL snapshot, then every delta above it
// in order, each delta's base id naming the previous element. Every file
// decodes straight into one register sink — for the bank engine twice,
// first into a restorer's plan that sizes every chunk, then into the
// restorer, which fills slabs allocated once; for the others the full
// snapshot's own registers — and the payload and rng come from the newest
// element. Deltas at or below the full snapshot are leftovers of a crashed
// GC, ignored until the next full checkpoint collects them. Returns a nil
// engine when dir holds no checkpoint.
//
// Files land atomically, so a CRC failure is bit rot and a delta that does
// not link is a hole in the chain; deltas without a full base are one too.
// The WAL below the newest checkpoint is gone, so each is a loud error,
// never a fallback to an older state, and the half-restored engine is
// dropped with it. That lets blocks reach the sink before the file's CRC is
// read: the CRC still decides whether a register is served.
func (c *checkpointer) restore() (engine.Engine, error) {
	fulls, err := listSeqs(c.dir, snapSuffix)
	if err != nil {
		return nil, err
	}
	deltas, err := listSeqs(c.dir, deltaSuffix)
	if err != nil {
		return nil, err
	}
	if len(fulls) == 0 {
		if len(deltas) > 0 {
			return nil, fmt.Errorf("server: delta checkpoint %d present but no full snapshot to base it on", deltas[len(deltas)-1])
		}
		return nil, nil
	}
	fullSeq := fulls[len(fulls)-1]
	var restorer *shardbank.Restorer
	base, err := loadSnap(snapPath(c.dir, fullSeq), func(h *snapcodec.Snapshot) (snapcodec.RegisterSink, error) {
		switch {
		case h.IsDelta():
			return nil, errors.New("a delta snapshot where a full one belongs")
		case h.IsEngine():
			return nil, nil // decoded into base.Registers
		}
		var err error
		if restorer, err = engine.BankRestorer(h); err != nil {
			return nil, err
		}
		return restorer.Plan(), nil
	})
	if err != nil {
		return nil, fmt.Errorf("server: checkpoint %d: %w", fullSeq, err)
	}
	var sink snapcodec.RegisterSink = snapcodec.RegisterSlice(base.Registers)
	if restorer != nil {
		sink = restorer.Plan()
	}
	last, prev, chain := base, fullSeq, 0
	paths := []string{snapPath(c.dir, fullSeq)}
	for _, seq := range deltas {
		if seq <= fullSeq {
			continue
		}
		last, err = loadSnap(deltaPath(c.dir, seq), func(h *snapcodec.Snapshot) (snapcodec.RegisterSink, error) {
			return sink, chainsOnto(base, h, prev)
		})
		if err != nil {
			return nil, fmt.Errorf("server: delta checkpoint %d: %w", seq, err)
		}
		prev, chain = seq, chain+1
		paths = append(paths, deltaPath(c.dir, seq))
	}
	var eng engine.Engine
	if restorer != nil {
		for _, path := range paths {
			if _, err := loadSnap(path, func(*snapcodec.Snapshot) (snapcodec.RegisterSink, error) {
				return restorer, nil
			}); err != nil {
				return nil, fmt.Errorf("server: %s: %w", filepath.Base(path), err)
			}
		}
		var b *shardbank.Bank
		if b, err = restorer.Finish(last.RNG); err == nil {
			eng = engine.NewBank(b)
		}
	} else {
		base.Payload, base.RNG = last.Payload, last.RNG
		eng, err = engine.FromSnapshot(base)
	}
	if err != nil {
		return nil, fmt.Errorf("server: checkpoint %d: %w", prev, err)
	}
	c.seq.Store(prev)
	c.deltas.Store(int64(chain))
	return eng, nil
}

// chainsOnto checks that the delta header d applies on top of a chain whose
// full snapshot is base and whose newest element is checkpoint prev: its
// base id names prev, and it has base's algorithm, shape, seed, partition,
// engine and register count (a bank's count the decoder already matched
// to the shape).
func chainsOnto(base, d *snapcodec.Snapshot, prev uint64) error {
	switch {
	case !d.IsDelta():
		return errors.New("not a delta snapshot")
	case d.DeltaBase != prev:
		return fmt.Errorf("chains onto %d, want %d — chain broken", d.DeltaBase, prev)
	case base.AlgName != d.AlgName || base.Width != d.Width || base.Param != d.Param:
		return errors.New("algorithm differs from the full snapshot's")
	case base.N != d.N || base.Shards != d.Shards || base.Seed != d.Seed:
		return errors.New("shape differs from the full snapshot's")
	case base.Partition != d.Partition || base.Parts != d.Parts:
		return errors.New("partition differs from the full snapshot's")
	case base.Engine != d.Engine:
		return errors.New("engine differs from the full snapshot's")
	case base.IsEngine() && d.DeltaRegs != len(base.Registers):
		return fmt.Errorf("delta addresses %d registers, the full snapshot has %d", d.DeltaRegs, len(base.Registers))
	}
	return nil
}
