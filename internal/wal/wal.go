// Package wal is the segmented write-ahead operation log that makes a
// sketch engine restartable: every applied operation is appended as one
// CRC-protected record before it is acknowledged, and a crashed engine is
// rebuilt deterministically by replaying the log (in order) onto a fresh
// engine constructed from the same seed — bit-identical state, because
// every engine's apply is deterministic in record order.
//
// The replay-exactness invariant the log guarantees its callers: records
// replay in exactly the order they were staged, with no gaps (segment
// numbering is checked) and no trailing garbage (per-record CRC32C); the
// caller guarantees in return that staging order equals apply order
// (internal/server holds one write lock across both). Records ride the
// same unit as the hot path: one batch record is exactly one engine
// ApplyBatch call. The record types — key batches, plain or tagged with a
// bucket epoch; Remark 2.4 merge ingests and replica max-joins (snapcodec
// snapshot blobs); window-clock ticks (an explicit bucket epoch, so
// time-based rotation replays from the log rather than the wall clock);
// and the rebalancer's ownership records — are framed as
// [type | length | payload | CRC32C] (docs/FORMAT.md, "WAL segment").
//
// A batch is logged in one of two forms, picked from its keys and
// invisible to callers. Non-decreasing keys — every batch the wire
// protocol delivers — are stored as the first key and bit-packed gaps
// (bitpack.AppendPatched, the snapshot register-block coder), about 6–16
// bits per key instead of a 1–4-byte uvarint each. Any other order keeps
// the uvarint form byte for byte: the order is part of the record,
// because an engine steps a shard's keys in order against that shard's
// random stream, so sorting a batch would change the registers replay
// produces.
//
// Durability is group-committed: Append (or the lower-level Stage/Commit
// pair) buffers the record under the write lock and then joins a leader-
// based fsync — the first waiter flushes and syncs everything staged so far
// while later waiters pile onto the same sync, so a burst of concurrent
// writers costs one fsync, not one each.
//
// The log is segmented (wal-NNNNNNNN.seg). A segment rotates when it
// exceeds the configured size, or explicitly at a checkpoint: the server
// rotates, snapshots the bank, tags the snapshot with the new segment
// number, and truncates every older segment — recovery is then snapshot +
// the segment suffix. Replay tolerates a torn record at the tail of the
// *last* segment (the crash left a half-written record; everything before
// it was never acknowledged lost) but treats corruption anywhere else as
// fatal.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/bitpack"
	"repro/internal/metrics"
)

const (
	segPrefix = "wal-"
	segSuffix = ".seg"
	// segMagic opens every segment file, followed by the 8-byte LE segment
	// sequence number (a self-check against renamed files).
	segMagic = "NYWALSG1"

	// RecBatch is a batch of register keys; RecMerge is a snapcodec
	// snapshot blob merged into the bank via Remark 2.4; RecMergeMax is a
	// snapshot blob applied as a register-wise maximum (the cluster's
	// anti-entropy join, see internal/cluster); RecTick advances a windowed
	// engine's logical clock to an explicit bucket epoch (internal/engine's
	// WindowEngine) — the epoch is captured in the record, never re-derived
	// from the wall clock, so replay rotates buckets at exactly the same
	// points in the operation order as the live run.
	RecBatch    = byte(1)
	RecMerge    = byte(2)
	RecMergeMax = byte(3)
	RecTick     = byte(4)

	// RecOwn and RecEvict are the rebalance subsystem's ownership records
	// (internal/cluster). RecOwn marks an ownership epoch: the ring version
	// (Epoch) plus the partitions still pending install (Keys), the
	// partitions held frozen for surrender (Parts), and the partitions the
	// node owned on that ring (Owned); replaying to the newest RecOwn —
	// minus any partitions installed by later merge records — reconstructs
	// exactly which transfers a crashed node still owes or is owed, and the
	// owned list tells the next reconcile which partitions were already
	// warm. RecEvict truncates one surrendered partition's registers
	// (Epoch = partition id) after its new owners confirm install.
	RecOwn   = byte(5)
	RecEvict = byte(6)

	// RecBatchAt is a batch of register keys applied at an explicit bucket
	// epoch — a replicated batch that must land in its ORIGIN bucket on a
	// windowed engine rather than the receiver's current one (the
	// epoch-tagged hint drain; see docs/ENGINES.md "Replication and heal
	// time"). Non-windowed engines apply it exactly like RecBatch.
	RecBatchAt = byte(7)

	// recPacked and recPackedAt are the on-disk forms of a RecBatch and a
	// RecBatchAt whose keys are non-decreasing (every batch the wire
	// decoder hands the store): the first key, then the gaps between
	// consecutive keys as bit-packed blocks (bitpack.AppendPatched). The
	// encoder picks them from the keys; decoding returns the RecBatch or
	// RecBatchAt that was staged, so no caller sees these types.
	recPacked   = byte(8)
	recPackedAt = byte(9)

	// gapBlock is the number of gaps per packed block (≤
	// bitpack.MaxPatchedBlock).
	gapBlock = 128

	// maxKey is the largest key a batch record may carry.
	maxKey = 1<<31 - 1

	// maxPayload bounds a single record payload (a merge blob of a
	// MaxRegisters-key snapshot fits comfortably).
	maxPayload = 1 << 30
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// Record is one logged operation.
type Record struct {
	Type  byte
	Keys  []int  // RecBatch / RecBatchAt: register keys; RecOwn: partitions pending install
	Blob  []byte // RecMerge / RecMergeMax: snapcodec snapshot bytes
	Epoch uint64 // RecTick / RecBatchAt: bucket epoch; RecOwn: ring version; RecEvict: partition
	Parts []int  // RecOwn: partitions held frozen for surrender
	Owned []int  // RecOwn: partitions owned on the recorded ring
}

// SyncPolicy selects when committed records are fsynced — the durability
// half of the group-commit contract.
type SyncPolicy int

const (
	// SyncAlways fsyncs before Commit returns: an acknowledged record
	// survives power loss. The default.
	SyncAlways SyncPolicy = iota
	// SyncInterval lets Commit return after the write (page cache), with a
	// background loop fsyncing every Interval: a crash of the process loses
	// nothing, a power loss loses at most the last interval's records.
	SyncInterval
	// SyncOff never fsyncs (benchmarks and tests that measure the code
	// path, not the disk).
	SyncOff
)

// ParseSyncPolicy maps the -fsync flag vocabulary to a SyncPolicy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "off":
		return SyncOff, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want always | interval | off)", s)
	}
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncOff:
		return "off"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// Options configures a Log.
type Options struct {
	// SegmentBytes rotates the active segment once it exceeds this size.
	// Zero means the 64 MiB default.
	SegmentBytes int64
	// Policy selects the fsync durability policy (default SyncAlways).
	Policy SyncPolicy
	// Interval is the background fsync cadence under SyncInterval (default
	// 100ms; ignored otherwise).
	Interval time.Duration
	// Metrics, when non-nil, receives wal_* instrumentation (append/fsync
	// latency histograms, staged bytes/records, rotations, segment count).
	Metrics *metrics.Registry
}

const (
	defaultSegmentBytes = 64 << 20
	defaultSyncInterval = 100 * time.Millisecond
)

// Log is an append-only segmented record log. All methods are safe for
// concurrent use.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex // guards file, buffer, staged counter, rotation
	f        *os.File
	buf      []byte // staged-but-unflushed records
	seg      uint64 // active segment sequence number
	segBytes int64  // bytes written (staged) to the active segment
	staged   uint64 // records staged so far, monotone
	closed   bool

	cmu     sync.Mutex // guards commit state; never acquire mu while holding cmu
	cond    *sync.Cond
	synced  uint64 // records durable
	syncing bool
	err     error // sticky: a failed sync or write poisons the log

	// Background flusher state (SyncInterval only).
	stopc     chan struct{}
	flushDone chan struct{}
	stopOnce  sync.Once

	// Instrumentation; all nil (no-op) unless Options.Metrics was set.
	mAppend    *metrics.Histogram // Stage: encode + buffer one record
	mFsync     *metrics.Histogram // every f.Sync on the active segment
	mCommit    *metrics.Histogram // Commit: stage-to-durable wait
	mBytes     *metrics.Counter
	mRecords   *metrics.Counter
	mRotations *metrics.Counter
}

// Open creates or opens the log in dir. It always begins a fresh segment
// (one past the highest existing) rather than appending to the previous
// tail, so a torn record from a crash can never be followed by new data.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if opts.Policy == SyncInterval && opts.Interval <= 0 {
		opts.Interval = defaultSyncInterval
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	next := uint64(1)
	if len(segs) > 0 {
		next = segs[len(segs)-1] + 1
	}
	l := &Log{dir: dir, opts: opts}
	l.cond = sync.NewCond(&l.cmu)
	if m := opts.Metrics; m != nil {
		l.mAppend = m.Histogram("counterd_wal_append_seconds",
			"Time to encode and stage one WAL record.", metrics.LatencyBuckets)
		l.mFsync = m.Histogram("counterd_wal_fsync_seconds",
			"Duration of fsync calls on the active WAL segment.", metrics.LatencyBuckets)
		l.mCommit = m.Histogram("counterd_wal_commit_seconds",
			"Stage-to-durable wait per Commit call (group-commit latency).", metrics.LatencyBuckets)
		l.mBytes = m.Counter("counterd_wal_staged_bytes_total",
			"Bytes of encoded records staged to the WAL.")
		l.mRecords = m.Counter("counterd_wal_staged_records_total",
			"Records staged to the WAL.")
		l.mRotations = m.Counter("counterd_wal_rotations_total",
			"WAL segment rotations (seals).")
		m.GaugeFunc("counterd_wal_segments",
			"WAL segment files on disk.", func() float64 {
				segs, err := listSegments(dir)
				if err != nil {
					return -1
				}
				return float64(len(segs))
			})
		m.GaugeFunc("counterd_wal_active_segment",
			"Sequence number of the segment being appended.", func() float64 {
				return float64(l.ActiveSegment())
			})
	}
	if err := l.openSegment(next); err != nil {
		return nil, err
	}
	if opts.Policy == SyncInterval {
		l.stopc = make(chan struct{})
		l.flushDone = make(chan struct{})
		go l.flushLoop()
	}
	return l, nil
}

// flushLoop is the SyncInterval background fsync: every Interval it flushes
// the staged buffer and syncs the active segment, bounding the power-loss
// window to one interval. A sync failure poisons the log exactly as a
// foreground sync failure would.
func (l *Log) flushLoop() {
	defer close(l.flushDone)
	t := time.NewTicker(l.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-l.stopc:
			return
		case <-t.C:
			if err := l.fsyncNow(); err != nil && !errors.Is(err, ErrClosed) {
				return // sticky error is set; the log is poisoned anyway
			}
		}
	}
}

// fsyncNow flushes and fsyncs the active segment regardless of policy.
func (l *Log) fsyncNow() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	err := l.flushLocked()
	if err == nil {
		err = l.syncFile()
	}
	l.mu.Unlock()
	if err != nil {
		err = fmt.Errorf("wal: sync: %w", err)
		l.setErr(err)
	}
	return err
}

// syncFile fsyncs the active segment, timing the call when instrumented.
// Caller holds mu.
func (l *Log) syncFile() error {
	if l.mFsync == nil {
		return l.f.Sync()
	}
	t0 := time.Now()
	err := l.f.Sync()
	l.mFsync.ObserveSince(t0)
	return err
}

// openSegment creates segment seq and writes its header. Caller holds mu or
// has exclusive access.
func (l *Log) openSegment(seq uint64) error {
	f, err := os.OpenFile(segPath(l.dir, seq), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	hdr := make([]byte, 0, 16)
	hdr = append(hdr, segMagic...)
	hdr = binary.LittleEndian.AppendUint64(hdr, seq)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("wal: segment header: %w", err)
	}
	// Make the segment's dirent durable: records fsynced into this file are
	// acknowledged as durable, which means nothing if a power loss can make
	// the whole file vanish from the directory.
	if l.opts.Policy != SyncOff {
		if err := syncDir(l.dir); err != nil {
			f.Close()
			return fmt.Errorf("wal: sync directory for segment %d: %w", seq, err)
		}
	}
	l.f = f
	l.seg = seq
	l.segBytes = int64(len(hdr))
	return nil
}

// syncDir fsyncs a directory. A variable so a test can make it fail.
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

func segPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", segPrefix, seq, segSuffix))
}

// listSegments returns the segment sequence numbers present in dir, sorted
// ascending.
func listSegments(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []uint64
	for _, e := range ents {
		name := e.Name()
		if len(name) <= len(segPrefix)+len(segSuffix) ||
			name[:len(segPrefix)] != segPrefix || name[len(name)-len(segSuffix):] != segSuffix {
			continue
		}
		var seq uint64
		if _, err := fmt.Sscanf(name[len(segPrefix):len(name)-len(segSuffix)], "%d", &seq); err != nil {
			continue
		}
		segs = append(segs, seq)
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}

// encodeRecord appends the framed record to dst:
// [type:1][len:4 LE][payload][crc32c:4 LE over type+len+payload].
// A batch whose keys are non-decreasing is written in its packed form.
func encodeRecord(dst []byte, rec Record) ([]byte, error) {
	typ := rec.Type
	if (typ == RecBatch || typ == RecBatchAt) && nonDecreasing(rec.Keys) {
		typ = recPacked
		if rec.Type == RecBatchAt {
			typ = recPackedAt
		}
	}
	start := len(dst)
	dst = slices.Grow(dst, 9+payloadHint(rec, typ))
	dst = append(dst, typ, 0, 0, 0, 0) // length filled in below
	switch typ {
	case RecBatch, RecBatchAt, recPacked, recPackedAt:
		if typ == RecBatchAt || typ == recPackedAt {
			dst = binary.AppendUvarint(dst, rec.Epoch)
		}
		dst = binary.AppendUvarint(dst, uint64(len(rec.Keys)))
		if typ == recPacked || typ == recPackedAt {
			if len(rec.Keys) > 0 && rec.Keys[0] < 0 {
				return nil, fmt.Errorf("wal: negative key %d", rec.Keys[0])
			}
			dst = appendGaps(dst, rec.Keys)
			break
		}
		for _, k := range rec.Keys {
			if k < 0 {
				return nil, fmt.Errorf("wal: negative key %d", k)
			}
			dst = binary.AppendUvarint(dst, uint64(k))
		}
	case RecMerge, RecMergeMax:
		dst = append(dst, rec.Blob...)
	case RecTick, RecEvict:
		dst = binary.AppendUvarint(dst, rec.Epoch)
	case RecOwn:
		dst = binary.AppendUvarint(dst, rec.Epoch)
		for _, list := range [][]int{rec.Keys, rec.Parts, rec.Owned} {
			dst = binary.AppendUvarint(dst, uint64(len(list)))
			for _, p := range list {
				if p < 0 {
					return nil, fmt.Errorf("wal: negative partition %d", p)
				}
				dst = binary.AppendUvarint(dst, uint64(p))
			}
		}
	default:
		return nil, fmt.Errorf("wal: unknown record type %d", rec.Type)
	}
	plen := len(dst) - start - 5
	if plen > maxPayload {
		return nil, fmt.Errorf("wal: payload %d bytes exceeds %d", plen, maxPayload)
	}
	binary.LittleEndian.PutUint32(dst[start+1:], uint32(plen))
	crc := crc32.Checksum(dst[start:], castagnoli)
	return binary.LittleEndian.AppendUint32(dst, crc), nil
}

// payloadHint is the payload capacity encodeRecord reserves, so one
// allocation holds the frame: four uvarint headers, the blob, and 5 bytes
// per listed key or partition (a uvarint below 2^35) — or 2 per key in a
// packed batch, above what wire-shaped batches take (0.7–2.0 B/key).
func payloadHint(rec Record, typ byte) int {
	perKey := 5
	if typ == recPacked || typ == recPackedAt {
		perKey = 2
	}
	return 4*binary.MaxVarintLen64 + len(rec.Blob) + perKey*(len(rec.Keys)+len(rec.Parts)+len(rec.Owned))
}

// nonDecreasing reports whether keys can take the packed form.
func nonDecreasing(keys []int) bool {
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			return false
		}
	}
	return true
}

// appendGaps appends a packed batch after its key count: the first key,
// then the gaps key[i] − key[i−1] (0 for a repeated key) in blocks of
// gapBlock. keys must be non-decreasing.
func appendGaps(dst []byte, keys []int) []byte {
	if len(keys) == 0 {
		return dst
	}
	dst = binary.AppendUvarint(dst, uint64(keys[0]))
	var gaps [gapBlock]uint64
	for i := 1; i < len(keys); i += gapBlock {
		g := gaps[:min(gapBlock, len(keys)-i)]
		prev := keys[i-1]
		for j, k := range keys[i : i+len(g)] {
			g[j] = uint64(k - prev)
			prev = k
		}
		dst = bitpack.AppendPatched(dst, g)
	}
	return dst
}

// decodeBatch parses the payload of any of the four batch record types
// into the RecBatch or RecBatchAt that was staged. Every count is bounded
// by the payload before it is trusted, and every key is ≤ maxKey.
func decodeBatch(typ byte, payload []byte) (Record, error) {
	rec := Record{Type: RecBatch}
	rest := payload
	if typ == RecBatchAt || typ == recPackedAt {
		rec.Type = RecBatchAt
		epoch, sz := binary.Uvarint(rest)
		if sz <= 0 {
			return Record{}, errors.New("wal: batch record: bad epoch")
		}
		rec.Epoch, rest = epoch, rest[sz:]
	}
	n, sz := binary.Uvarint(rest)
	if sz <= 0 {
		return Record{}, errors.New("wal: batch record: bad key count")
	}
	rest = rest[sz:]
	packed := typ == recPacked || typ == recPackedAt
	// A uvarint key costs ≥ 1 byte; a packed block of ≤ gapBlock gaps
	// costs ≥ 2, so a packed record holds at most 64 keys per byte plus
	// its first.
	limit := uint64(len(rest))
	if packed {
		limit = 64*limit + 1
	}
	if n > limit {
		return Record{}, fmt.Errorf("wal: batch record: %d keys in %d payload bytes", n, len(rest))
	}
	rec.Keys = make([]int, n)
	var err error
	if packed {
		rest, err = readGaps(rest, rec.Keys)
	} else {
		rest, err = readKeys(rest, rec.Keys)
	}
	if err != nil {
		return Record{}, fmt.Errorf("wal: batch record: %w", err)
	}
	if len(rest) != 0 {
		return Record{}, fmt.Errorf("wal: batch record: %d trailing bytes", len(rest))
	}
	return rec, nil
}

// readKeys fills keys with uvarint keys from src.
func readKeys(src []byte, keys []int) ([]byte, error) {
	for i := range keys {
		v, sz := binary.Uvarint(src)
		if sz <= 0 {
			return nil, fmt.Errorf("bad key %d", i)
		}
		if v > maxKey {
			return nil, fmt.Errorf("key %d out of range", v)
		}
		keys[i] = int(v)
		src = src[sz:]
	}
	return src, nil
}

// readGaps fills keys from a packed batch body: the first key, then the
// gap blocks appendGaps wrote.
func readGaps(src []byte, keys []int) ([]byte, error) {
	if len(keys) == 0 {
		return src, nil
	}
	first, sz := binary.Uvarint(src)
	if sz <= 0 {
		return nil, errors.New("bad first key")
	}
	if first > maxKey {
		return nil, fmt.Errorf("key %d out of range", first)
	}
	src = src[sz:]
	keys[0] = int(first)
	key := first
	var gaps [gapBlock]uint64
	var err error
	for i := 1; i < len(keys); i += gapBlock {
		g := gaps[:min(gapBlock, len(keys)-i)]
		if src, err = bitpack.ReadPatched(src, g); err != nil {
			return nil, fmt.Errorf("gap block at key %d: %w", i, err)
		}
		for j, d := range g {
			if d > maxKey-key {
				return nil, fmt.Errorf("key %d + gap %d out of range", key, d)
			}
			key += d
			keys[i+j] = int(key)
		}
	}
	return src, nil
}

// decodePayload parses a record payload.
func decodePayload(typ byte, payload []byte) (Record, error) {
	switch typ {
	case RecBatch, RecBatchAt, recPacked, recPackedAt:
		return decodeBatch(typ, payload)
	case RecMerge, RecMergeMax:
		return Record{Type: typ, Blob: payload}, nil
	case RecTick, RecEvict:
		epoch, sz := binary.Uvarint(payload)
		if sz <= 0 {
			return Record{}, errors.New("wal: tick record: bad epoch")
		}
		if len(payload) != sz {
			return Record{}, fmt.Errorf("wal: tick record: %d trailing bytes", len(payload)-sz)
		}
		return Record{Type: typ, Epoch: epoch}, nil
	case RecOwn:
		epoch, sz := binary.Uvarint(payload)
		if sz <= 0 {
			return Record{}, errors.New("wal: own record: bad ring version")
		}
		rest := payload[sz:]
		var lists [3][]int
		for li := range lists {
			n, nsz := binary.Uvarint(rest)
			if nsz <= 0 || n > uint64(len(rest)) {
				return Record{}, errors.New("wal: own record: bad partition count")
			}
			rest = rest[nsz:]
			lists[li] = make([]int, n)
			for i := range lists[li] {
				v, vsz := binary.Uvarint(rest)
				if vsz <= 0 || v > 1<<31-1 {
					return Record{}, fmt.Errorf("wal: own record: bad partition %d", i)
				}
				lists[li][i] = int(v)
				rest = rest[vsz:]
			}
		}
		if len(rest) != 0 {
			return Record{}, fmt.Errorf("wal: own record: %d trailing bytes", len(rest))
		}
		return Record{Type: RecOwn, Epoch: epoch, Keys: lists[0], Parts: lists[1], Owned: lists[2]}, nil
	default:
		return Record{}, fmt.Errorf("wal: unknown record type %d", typ)
	}
}

// Stage appends rec to the active segment's write buffer without making it
// durable, and returns a ticket for Commit. Record order — and therefore
// replay order — is the order of Stage calls. The caller that needs
// "logged before applied" semantics holds its own lock across Stage and the
// in-memory apply (see internal/server), keeping log order and apply order
// identical.
func (l *Log) Stage(rec Record) (uint64, error) {
	var t0 time.Time
	if l.mAppend != nil {
		t0 = time.Now()
	}
	frame, err := encodeRecord(nil, rec)
	if err != nil {
		return 0, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if err := l.stickyErr(); err != nil {
		return 0, err
	}
	l.buf = append(l.buf, frame...)
	l.segBytes += int64(len(frame))
	l.staged++
	ticket := l.staged
	l.mBytes.Add(uint64(len(frame)))
	l.mRecords.Inc()
	if l.segBytes >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	if l.mAppend != nil {
		l.mAppend.ObserveSince(t0)
	}
	return ticket, nil
}

// Commit blocks until every record staged at or before ticket is durable
// (flushed and fsynced), joining any in-flight group commit.
func (l *Log) Commit(ticket uint64) error {
	var t0 time.Time
	if l.mCommit != nil {
		t0 = time.Now()
		defer func() { l.mCommit.ObserveSince(t0) }()
	}
	l.cmu.Lock()
	for {
		if l.err != nil {
			l.cmu.Unlock()
			return l.err
		}
		if l.synced >= ticket {
			l.cmu.Unlock()
			return nil
		}
		if !l.syncing {
			break // become the leader
		}
		l.cond.Wait()
	}
	l.syncing = true
	l.cmu.Unlock()

	// Leader: flush and sync everything staged so far. mu is taken without
	// holding cmu (lock order: mu before cmu, never the reverse while
	// blocking).
	l.mu.Lock()
	target := l.staged
	err := l.flushLocked()
	if err == nil && l.opts.Policy == SyncAlways {
		err = l.syncFile()
	}
	l.mu.Unlock()

	l.cmu.Lock()
	l.syncing = false
	if err != nil {
		l.err = fmt.Errorf("wal: sync: %w", err)
		err = l.err
	} else {
		// ticket ≤ target always holds: Stage assigned the ticket before
		// this Commit began, and staged is monotone.
		if target > l.synced {
			l.synced = target
		}
	}
	l.cond.Broadcast()
	l.cmu.Unlock()
	return err
}

// Append stages rec and commits it: returns once the record is durable.
func (l *Log) Append(rec Record) error {
	ticket, err := l.Stage(rec)
	if err != nil {
		return err
	}
	return l.Commit(ticket)
}

// AppendBatch is Append of a RecBatch record.
func (l *Log) AppendBatch(keys []int) error {
	return l.Append(Record{Type: RecBatch, Keys: keys})
}

// AppendBatchAt is Append of a RecBatchAt record: keys tagged with the
// bucket epoch they were counted at (the durable half of an epoch-tagged
// replication hint).
func (l *Log) AppendBatchAt(keys []int, epoch uint64) error {
	return l.Append(Record{Type: RecBatchAt, Epoch: epoch, Keys: keys})
}

// AppendMerge is Append of a RecMerge record.
func (l *Log) AppendMerge(blob []byte) error {
	return l.Append(Record{Type: RecMerge, Blob: blob})
}

// flushLocked writes the staged buffer to the active segment file. Caller
// holds mu.
func (l *Log) flushLocked() error {
	if len(l.buf) == 0 {
		return nil
	}
	if _, err := l.f.Write(l.buf); err != nil {
		return err
	}
	l.buf = l.buf[:0]
	return nil
}

// stickyErr reports the log's sticky failure, if any. Caller may hold mu.
func (l *Log) stickyErr() error {
	l.cmu.Lock()
	defer l.cmu.Unlock()
	return l.err
}

func (l *Log) setErr(err error) {
	l.cmu.Lock()
	if l.err == nil {
		l.err = err
	}
	l.cond.Broadcast()
	l.cmu.Unlock()
}

// rotateLocked seals the active segment (flush + fsync + close) and opens
// the next one. Caller holds mu.
func (l *Log) rotateLocked() error {
	if err := l.flushLocked(); err != nil {
		l.setErr(err)
		return err
	}
	// Sealing a segment syncs it under both always and interval policies —
	// TruncateBefore may delete its predecessors, so the seal is a
	// durability boundary.
	if l.opts.Policy != SyncOff {
		if err := l.syncFile(); err != nil {
			l.setErr(err)
			return err
		}
	}
	l.mRotations.Inc()
	if err := l.f.Close(); err != nil {
		l.setErr(err)
		return err
	}
	// Everything staged so far is now durable in the sealed segment.
	l.cmu.Lock()
	if l.staged > l.synced {
		l.synced = l.staged
	}
	l.cond.Broadcast()
	l.cmu.Unlock()
	if err := l.openSegment(l.seg + 1); err != nil {
		l.setErr(err)
		return err
	}
	return nil
}

// Rotate seals the active segment and starts the next one, returning the
// new segment's sequence number. A checkpoint pairs this with a snapshot:
// snapshot the bank immediately after Rotate, tag it with the returned
// number, and every older segment becomes garbage (TruncateBefore).
func (l *Log) Rotate() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if err := l.rotateLocked(); err != nil {
		return 0, err
	}
	return l.seg, nil
}

// TruncateBefore deletes every sealed segment with sequence number below
// seq. The active segment is never deleted.
func (l *Log) TruncateBefore(seq uint64) error {
	l.mu.Lock()
	active := l.seg
	l.mu.Unlock()
	segs, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	for _, s := range segs {
		if s >= seq || s == active {
			continue
		}
		if err := os.Remove(segPath(l.dir, s)); err != nil {
			return fmt.Errorf("wal: truncate: %w", err)
		}
	}
	return nil
}

// Segments returns the segment sequence numbers currently on disk.
func (l *Log) Segments() ([]uint64, error) { return listSegments(l.dir) }

// ActiveSegment returns the sequence number of the segment being appended.
func (l *Log) ActiveSegment() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seg
}

// Healthy reports whether the log can still accept and durably commit
// records: nil while open with no sticky error, ErrClosed after Close,
// or the poisoning write/sync error. /readyz uses this as its
// "WAL writable" check.
func (l *Log) Healthy() error {
	l.mu.Lock()
	closed := l.closed
	l.mu.Unlock()
	if closed {
		return ErrClosed
	}
	return l.stickyErr()
}

// Sync forces everything staged to disk.
func (l *Log) Sync() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	ticket := l.staged
	l.mu.Unlock()
	return l.Commit(ticket)
}

// Close flushes, syncs, and closes the log. Further operations return
// ErrClosed.
func (l *Log) Close() error {
	// Stop the interval flusher first, outside mu: fsyncNow takes mu, so
	// waiting for the goroutine while holding the lock would deadlock.
	if l.stopc != nil {
		l.stopOnce.Do(func() { close(l.stopc) })
		<-l.flushDone
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	l.closed = true
	err := l.flushLocked()
	if err == nil && l.opts.Policy != SyncOff {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.cmu.Lock()
	l.synced = l.staged
	if err != nil && l.err == nil {
		l.err = err
	}
	l.cond.Broadcast()
	l.cmu.Unlock()
	return err
}

// RepairTorn physically removes a torn tail reported by Replay, truncating
// the segment file at the torn offset (or rewriting a bare header when not
// even the header survived). Call it after a Replay that reports Torn and
// BEFORE reopening the log for appends: once a new segment exists above the
// torn one, the torn segment is no longer final and an unrepaired tail
// would (rightly) be treated as corruption on the next recovery.
func RepairTorn(dir string, stats ReplayStats) error {
	if !stats.Torn {
		return nil
	}
	path := segPath(dir, stats.TornSeg)
	if stats.TornOff < 16 {
		// The segment header itself was torn: rewrite it so the file reads
		// as a valid, empty segment (deleting it would leave a sequence
		// gap, which Replay treats as data loss).
		hdr := make([]byte, 0, 16)
		hdr = append(hdr, segMagic...)
		hdr = binary.LittleEndian.AppendUint64(hdr, stats.TornSeg)
		if err := os.WriteFile(path, hdr, 0o644); err != nil {
			return fmt.Errorf("wal: repair: %w", err)
		}
	} else if err := os.Truncate(path, stats.TornOff); err != nil {
		return fmt.Errorf("wal: repair: %w", err)
	}
	if f, err := os.Open(path); err == nil {
		f.Sync()
		f.Close()
	}
	return nil
}

// ReplayStats reports what a Replay consumed.
type ReplayStats struct {
	Segments int  // segment files read
	Records  int  // records applied
	Torn     bool // a torn/corrupt tail record was dropped
	TornSeg  uint64
	TornOff  int64
}

// Replay reads every record in segments with sequence ≥ fromSeq, in order,
// invoking fn for each. A torn or corrupt record at the tail of the final
// segment ends the replay cleanly (stats.Torn reports it) — that is the
// half-written record of a crash, and nothing after it was ever
// acknowledged. Corruption anywhere else, or a decoding failure, is an
// error. fn errors abort the replay.
func Replay(dir string, fromSeq uint64, fn func(Record) error) (ReplayStats, error) {
	return replayRange(dir, fromSeq, 0, fn)
}

// ReplayUpTo is Replay restricted to segments with fromSeq ≤ seq <
// beforeSeq. Every replayed segment is expected to be sealed (the live
// segment sits at or above beforeSeq), so torn-tail tolerance is off: any
// invalid record is an error. The replication outbox uses this to drain the
// sealed prefix of its hint log while appends continue on the active
// segment.
func ReplayUpTo(dir string, fromSeq, beforeSeq uint64, fn func(Record) error) (ReplayStats, error) {
	return replayRange(dir, fromSeq, beforeSeq, fn)
}

func replayRange(dir string, fromSeq, beforeSeq uint64, fn func(Record) error) (ReplayStats, error) {
	var stats ReplayStats
	segs, err := listSegments(dir)
	if err != nil {
		return stats, err
	}
	var replay []uint64
	for _, s := range segs {
		if s >= fromSeq && (beforeSeq == 0 || s < beforeSeq) {
			replay = append(replay, s)
		}
	}
	// The replayed range must be gap-free: segment numbers are sequential
	// and only ever deleted from the low end (TruncateBefore), so a hole
	// means operations are missing and an "exact" recovery would lie.
	if fromSeq > 0 && (len(replay) == 0 || replay[0] != fromSeq) {
		// A checkpoint's tag segment always exists (Rotate creates it before
		// the snapshot is written), so its absence means segments were lost.
		first := uint64(0)
		if len(replay) > 0 {
			first = replay[0]
		}
		return stats, fmt.Errorf("wal: replay from segment %d but oldest present is %d", fromSeq, first)
	}
	for i := 1; i < len(replay); i++ {
		if replay[i] != replay[i-1]+1 {
			return stats, fmt.Errorf("wal: segment gap: %d follows %d", replay[i], replay[i-1])
		}
	}
	for i, seq := range replay {
		last := i == len(replay)-1 && beforeSeq == 0
		if err := replaySegment(dir, seq, last, fn, &stats); err != nil {
			return stats, err
		}
		stats.Segments++
	}
	return stats, nil
}

func replaySegment(dir string, seq uint64, last bool, fn func(Record) error, stats *ReplayStats) error {
	path := segPath(dir, seq)
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	// A torn write (crash mid-append) is only legal at the tail of the
	// final segment: a reopened log starts a fresh segment, never appends,
	// and RepairTorn physically truncates a detected torn tail before the
	// log is reopened — so by construction every non-final segment ends at
	// a clean record boundary, and an invalid record there is real
	// corruption.
	torn := func(off int64) error {
		if !last {
			return fmt.Errorf("wal: segment %d: corrupt record at offset %d in non-final segment", seq, off)
		}
		stats.Torn = true
		stats.TornSeg = seq
		stats.TornOff = off
		return nil
	}
	if len(data) < 16 {
		// A crash can leave a header-torn (even empty) segment file; that is
		// only legal at the tail.
		return torn(0)
	}
	if string(data[:8]) != segMagic {
		return fmt.Errorf("wal: segment %d: bad magic", seq)
	}
	if got := binary.LittleEndian.Uint64(data[8:16]); got != seq {
		return fmt.Errorf("wal: segment file %s claims sequence %d", filepath.Base(path), got)
	}
	off := int64(16)
	for int(off) < len(data) {
		rest := data[off:]
		if len(rest) < 9 { // type + len + crc minimum
			return torn(off)
		}
		plen := binary.LittleEndian.Uint32(rest[1:5])
		if plen > maxPayload {
			return torn(off)
		}
		total := 5 + int(plen) + 4
		if len(rest) < total {
			return torn(off)
		}
		body := rest[:5+plen]
		wantCRC := binary.LittleEndian.Uint32(rest[5+plen : total])
		if crc32.Checksum(body, castagnoli) != wantCRC {
			return torn(off)
		}
		rec, err := decodePayload(rest[0], body[5:])
		if err != nil {
			// CRC was valid but the payload does not parse: this is not a
			// torn write, it is real corruption or a version skew.
			return fmt.Errorf("wal: segment %d offset %d: %w", seq, off, err)
		}
		if err := fn(rec); err != nil {
			return err
		}
		stats.Records++
		off += int64(total)
	}
	return nil
}
