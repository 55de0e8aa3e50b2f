package cluster

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/wal"
)

// outbox is the durable replication queue for one peer replica — and,
// because it is disk-backed in the existing WAL segment format, it is the
// hinted-handoff store for that peer at the same time. The write path
// appends every locally-acknowledged batch destined for the peer; a drain
// loop ships the sealed prefix in batched calls — wire REPL frames when the
// peer has a wire listener, POST /cluster/repl otherwise — and truncates
// what the peer acknowledged. A peer that is down simply stops being
// drained: its hints accumulate in segments and ship when it returns.
// Delivery is at-least-once (a crash of this process between ship and
// truncate re-sends), which the approximate registers absorb and the
// max-join anti-entropy cannot be corrupted by. A drain that fails part-way
// does not re-send what the peer already acknowledged: the next drain skips
// it.
type outbox struct {
	dir string
	log *wal.Log

	// queued counts records on disk not yet acknowledged by the peer;
	// activeRecs counts records appended since the last rotation (i.e.
	// sitting in the live segment, not yet drainable).
	queued     atomic.Int64
	activeRecs atomic.Int64

	drainMu sync.Mutex // one drain at a time; appends stay concurrent

	// delivered counts the keys at the head of the sealed prefix that a
	// drain which then failed had already shipped (guarded by drainMu). The
	// prefix only changes by truncation, which resets it, so the next drain
	// skips exactly those keys — a peer that crashed mid-drain must not get
	// the chunks it already logged a second time when it returns.
	delivered int
}

// openOutbox opens (or creates) the peer's hint log under dir. Leftover
// records from a previous process are counted and will ship on the first
// drain. A corrupt hint log is dropped with a fresh start — hints are a
// replication accelerator; the durable source of truth for the events is
// the coordinator's own WAL, and anti-entropy still converges the replicas
// (see docs/CLUSTER.md "Failure modes").
func openOutbox(dir string, opts wal.Options) (*outbox, bool, error) {
	reset := false
	count := int64(0)
	stats, err := wal.Replay(dir, 0, func(wal.Record) error { count++; return nil })
	if err != nil {
		if rmErr := os.RemoveAll(dir); rmErr != nil {
			return nil, false, fmt.Errorf("cluster: outbox %s corrupt (%v) and unremovable: %w", dir, err, rmErr)
		}
		reset = true
		count = 0
	} else if err := wal.RepairTorn(dir, stats); err != nil {
		return nil, false, fmt.Errorf("cluster: outbox %s: %w", dir, err)
	}
	log, err := wal.Open(dir, opts)
	if err != nil {
		return nil, false, fmt.Errorf("cluster: outbox %s: %w", dir, err)
	}
	o := &outbox{dir: dir, log: log}
	// Pre-existing records are all in sealed segments (Open started a fresh
	// one), so they are drainable immediately.
	o.queued.Store(count)
	return o, reset, nil
}

// append queues one batch of keys for the peer, durably per the log's sync
// policy. Safe for concurrent use. A tagged append records the origin bucket
// epoch with the keys (RecBatchAt), so a drain delayed across a window
// rotation still tells the receiver which bucket the events belong to;
// untagged appends (non-windowed engines) stay plain RecBatch records.
func (o *outbox) append(keys []int, epoch uint64, tagged bool) error {
	var err error
	if tagged {
		err = o.log.AppendBatchAt(keys, epoch)
	} else {
		err = o.log.AppendBatch(keys)
	}
	if err != nil {
		return err
	}
	o.activeRecs.Add(1)
	o.queued.Add(1)
	return nil
}

// pending returns the number of queued-but-unshipped records.
func (o *outbox) pending() int64 { return o.queued.Load() }

// drain ships every sealed record to the peer via send (called with chunks
// of at most maxKeys keys, each chunk from records of one epoch tag) and
// truncates what shipped. On a send error the records stay queued for the
// next drain. Concurrent appends are safe: the live segment is never read.
func (o *outbox) drain(maxKeys int, send func(keys []int, epoch uint64, tagged bool) error) error {
	o.drainMu.Lock()
	defer o.drainMu.Unlock()
	if o.queued.Load() == 0 {
		return nil
	}
	// Seal the live segment only when it holds records; failed drains must
	// not pile up empty segments. Subtract the snapshot rather than zeroing
	// the counter: an append racing past Rotate lands in the new live
	// segment with its increment intact, so it still triggers the next
	// drain's rotation instead of being stranded. (A record appended
	// between the Load and the Rotate is sealed but stays counted — the
	// only cost is one extra near-empty rotation later.)
	if sealed := o.activeRecs.Load(); sealed > 0 {
		if _, err := o.log.Rotate(); err != nil {
			return err
		}
		o.activeRecs.Add(-sealed)
	}
	active := o.log.ActiveSegment()
	var chunk []int
	var chunkEpoch uint64
	var chunkTagged bool
	var shipped int64
	skip := o.delivered
	flush := func() error {
		if len(chunk) == 0 {
			return nil
		}
		if err := send(chunk, chunkEpoch, chunkTagged); err != nil {
			return err
		}
		o.delivered += len(chunk)
		chunk = chunk[:0]
		return nil
	}
	_, err := wal.ReplayUpTo(o.dir, 0, active, func(rec wal.Record) error {
		if rec.Type != wal.RecBatch && rec.Type != wal.RecBatchAt {
			return fmt.Errorf("cluster: outbox %s: unexpected record type %d", o.dir, rec.Type)
		}
		tagged := rec.Type == wal.RecBatchAt
		// Coalescing never crosses an epoch boundary: the tag applies to the
		// whole chunk at the receiver.
		if len(chunk) > 0 && (tagged != chunkTagged || rec.Epoch != chunkEpoch) {
			if err := flush(); err != nil {
				return err
			}
		}
		chunkEpoch, chunkTagged = rec.Epoch, tagged
		keys := rec.Keys
		if skip > 0 {
			n := min(skip, len(keys))
			keys, skip = keys[n:], skip-n
		}
		for len(keys) > 0 {
			take := maxKeys - len(chunk)
			if take > len(keys) {
				take = len(keys)
			}
			chunk = append(chunk, keys[:take]...)
			keys = keys[take:]
			if len(chunk) >= maxKeys {
				if err := flush(); err != nil {
					return err
				}
			}
		}
		shipped++
		return nil
	})
	if err != nil {
		return err
	}
	if err := flush(); err != nil {
		return err
	}
	if err := o.log.TruncateBefore(active); err != nil {
		return err
	}
	o.delivered = 0
	o.queued.Add(-shipped)
	return nil
}

func (o *outbox) close() error { return o.log.Close() }
