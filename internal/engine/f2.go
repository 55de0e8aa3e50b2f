package engine

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/bank"
	"repro/internal/snapcodec"
	"repro/internal/xrand"
)

// KindF2 names the second-frequency-moment engine.
const KindF2 = "f2"

// F2 sketch shape bounds. rows is the median width (each row an
// independent mean-of-cols estimator); cols drives the variance: the
// standard deviation of one row's mean is √(2/cols) · F₂.
const (
	MaxF2Rows = 64
	MaxF2Cols = 4096
)

// maxF2StreamLen caps a bucket's accepted stream length (local or peer) so
// that cell counters — bounded by ±streamLen — can never overflow an int64
// across any sequence of disjoint merges.
const maxF2StreamLen = 1 << 60

// f2AlgWidth sizes the placeholder header algorithm (see f2Alg).
const f2AlgWidth = 62

// f2Alg is the canonical register algorithm an f2 snapshot header carries.
// The sketch's cells are exact signed 64-bit counters living entirely in
// the engine payload — no register section, no approximate stepping — so
// the header algorithm is a fixed placeholder every f2 engine agrees on,
// which is what CheckPeer's algorithm-equality test wants.
func f2Alg() bank.Algorithm { return bank.NewExactAlg(f2AlgWidth) }

// f2Core is the shared surface of both f2 engine flavors: the bucket ring
// (see ring) over AMS cells, plus the scalar query — the AMS ("Tug-of-War")
// second frequency moment Σ_k f_k², the servable promotion of the
// internal/freqmoments experiment. Per partition shard, each time bucket
// holds rows × cols signed cells; every applied key adds its ±1 sign — a
// fixed seed-keyed hash of (cell salt, key) — to every cell. One cell's
// square is an unbiased F₂ estimate; a row averages cols cells to shrink
// variance, and the estimate is the median across rows (median-of-means).
// Everything is a pure function of (seed, key): the engine draws no
// randomness after construction.
//
// Like the top-k engine, f2 is payload-only: snapshots carry the cells in
// the engine payload with an empty register section, so there is no
// block-level dirty tracking (TakeDirty reports ok=false, every checkpoint
// is full) and anti-entropy always exchanges whole partition sketches (a
// few KiB).
//
// Like the distinct engine, the sketch answers per partition: a key's
// Estimate is its owning partition's F₂, TopK ranks partitions by moment
// (entries keyed by the partition's lowest key) — "which key ranges carry
// the most skew".
type f2Core struct {
	*ring
	ams *amsType
}

// F2Engine is the cumulative second-moment engine.
type F2Engine struct{ f2Core }

// F2WindowEngine is the sliding-window flavor: per-bucket sketches rotated
// by the store's logical clock. A windowed estimate sums the trailing live
// buckets' cells first — time buckets partition the stream, so cell-wise
// addition is the exact sketch of the windowed substream — then estimates.
type F2WindowEngine struct {
	f2Core
	ringWindow
}

var (
	_ Engine               = (*F2Engine)(nil)
	_ RangeEstimator       = (*F2Engine)(nil)
	_ Windowed             = (*F2WindowEngine)(nil)
	_ WindowRangeEstimator = (*F2WindowEngine)(nil)
	_ PeerRegisterCapper   = (*F2Engine)(nil)
)

// NewF2 builds a cumulative F₂ engine: n keys striped into parts partition
// shards, each a rows × cols AMS sign sketch keyed by seed.
func NewF2(n, parts, rows, cols int, seed uint64) (*F2Engine, error) {
	c, err := newF2Core(n, parts, rows, cols, 1, false, 0, seed)
	if err != nil {
		return nil, err
	}
	return &F2Engine{c}, nil
}

// NewF2Window builds the sliding-window flavor: per shard a ring of
// buckets sketches rotated by the logical bucket clock (see Windowed).
func NewF2Window(n, parts, rows, cols, buckets int, bucketNanos int64, seed uint64) (*F2WindowEngine, error) {
	c, err := newF2Core(n, parts, rows, cols, buckets, true, bucketNanos, seed)
	if err != nil {
		return nil, err
	}
	return &F2WindowEngine{c, ringWindow{c.ring}}, nil
}

func newF2Core(n, parts, rows, cols, buckets int, windowed bool, bucketNanos int64, seed uint64) (f2Core, error) {
	t, err := newAMSType(rows, cols)
	if err != nil {
		return f2Core{}, err
	}
	r, err := newRing(t, n, parts, buckets, windowed, bucketNanos, seed)
	if err != nil {
		return f2Core{}, err
	}
	return f2Core{r.fill(), t}, nil
}

// F2FromSnapshot reconstructs an f2 engine (either flavor) from a whole
// engine snapshot.
func F2FromSnapshot(snap *snapcodec.Snapshot) (Engine, error) {
	r, err := ringFromSnapshot(snap, &amsType{})
	if err != nil {
		return nil, err
	}
	c := f2Core{r, r.ct.(*amsType)}
	if r.windowed {
		return &F2WindowEngine{c, ringWindow{r}}, nil
	}
	return &F2Engine{c}, nil
}

// Rows returns the sketch's median width.
func (c f2Core) Rows() int { return c.ams.rows }

// Cols returns the sketch's per-row estimator count.
func (c f2Core) Cols() int { return c.ams.cols }

// RangeEstimate implements RangeEstimator: the estimated F₂ of keys
// [lo, hi) over the full window — exactly additive across partitions, since
// they tile disjoint key ranges and F₂ of a disjoint union of key sets is
// the sum of the parts.
func (c f2Core) RangeEstimate(lo, hi int) (float64, error) {
	return c.rangeEstimate(lo, hi, c.buckets)
}

// RangeEstimateWindow implements WindowRangeEstimator.
func (e *F2WindowEngine) RangeEstimateWindow(lo, hi, w int) (float64, error) {
	return e.rangeEstimate(lo, hi, w)
}

// amsType is the AMS cell type: a bucket is rows × cols signed counters
// and the length of the stream they absorbed.
type amsType struct {
	rows, cols int
	signSeed   uint64   // the engine seed: sketches only join within one sign universe
	salts      []uint64 // one sign-hash salt per cell
}

func newAMSType(rows, cols int) (*amsType, error) {
	if rows < 1 || rows > MaxF2Rows {
		return nil, fmt.Errorf("engine: f2 row count %d out of [1, %d]", rows, MaxF2Rows)
	}
	if cols < 1 || cols > MaxF2Cols {
		return nil, fmt.Errorf("engine: f2 column count %d out of [1, %d]", cols, MaxF2Cols)
	}
	return &amsType{rows: rows, cols: cols}, nil
}

func (t *amsType) cells() int          { return t.rows * t.cols }
func (t *amsType) kind() string        { return KindF2 }
func (t *amsType) alg() bank.Algorithm { return f2Alg() }

// seed draws one salt per cell: the cell's ±1 sign hash is fixed for the
// engine's lifetime, shared by every shard and bucket.
func (t *amsType) seed(seed uint64, _ int) {
	t.signSeed = seed
	sm := xrand.NewSplitMix64(seed)
	t.salts = make([]uint64, t.cells())
	for i := range t.salts {
		t.salts[i] = sm.Uint64()
	}
}

func (t *amsType) bucketRegs(int) int { return 0 }

// shardBytes: 8 bytes per cell plus the per-bucket stream-length words.
func (t *amsType) shardBytes(_, buckets int) int { return buckets * (t.cells() + 1) * 8 }

// appendShape: flag bit 0 is "windowed"; the shape prefix is rows, cols.
func (t *amsType) appendShape(buf []byte, windowed, _ bool) []byte {
	buf = binary.AppendUvarint(appendFlag(buf, windowed), uint64(t.rows))
	return binary.AppendUvarint(buf, uint64(t.cols))
}

func (t *amsType) parseShape(d *payloadReader) (cellType, bool, bool, error) {
	windowed, err := readFlag(d, KindF2)
	if err != nil {
		return nil, false, false, err
	}
	rows := int(d.uvarint())
	peer, err := newAMSType(rows, int(d.uvarint()))
	return peer, windowed, false, err
}

// checkPeer: like distinct, f2 requires seed equality — cells from
// different sign universes cannot be added or compared.
func (t *amsType) checkPeer(snap *snapcodec.Snapshot, peer cellType, _ bool) error {
	if snap.Seed != t.signSeed {
		return fmt.Errorf("hash seed mismatch: peer %d, local %d (f2 sketches only join within one seed universe)",
			snap.Seed, t.signSeed)
	}
	if p := peer.(*amsType); p.rows != t.rows || p.cols != t.cols {
		return fmt.Errorf("f2 shape mismatch: peer %d×%d cells, local %d×%d", p.rows, p.cols, t.rows, t.cols)
	}
	return nil
}

func (t *amsType) newCells(sh *ringShard, _ regSpan) cells {
	b := len(sh.epochs)
	return &amsCells{t: t, lo: sh.lo, span: sh.hi - sh.lo,
		lens: make([]uint64, b), counters: make([]int64, b*t.cells())}
}

// sign returns the cell's ±1 Tug-of-War sign for a key: bit 0 of the
// splitmix finalizer over (key XOR the cell's salt) — four-wise
// independent enough in practice, and a pure function of (seed, key).
func (t *amsType) sign(cell int, key uint64) int64 {
	x := key ^ t.salts[cell]
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	if x&1 == 0 {
		return 1
	}
	return -1
}

// amsCells is one shard's B bucket sketches: bucket j's cells at
// counters[j·rows·cols, (j+1)·rows·cols), its stream length at lens[j].
type amsCells struct {
	t        *amsType
	lo, span int
	lens     []uint64
	counters []int64
}

func (c *amsCells) bucket(j int) []int64 {
	n := c.t.cells()
	return c.counters[j*n : (j+1)*n]
}

// apply adds each key's ±1 sign to every cell of bucket j — order-
// independent and draw-free, so replay is exact by construction.
func (c *amsCells) apply(j int, keys []int) {
	bucket := c.bucket(j)
	for _, k := range keys {
		if c.lens[j] >= maxF2StreamLen {
			// Saturate rather than overflow; unreachable in practice
			// (2^60 events through one bucket).
			break
		}
		c.lens[j]++
		ku := uint64(k)
		for cell := range bucket {
			bucket[cell] += c.t.sign(cell, ku)
		}
	}
}

func (c *amsCells) zero(j int) {
	c.lens[j] = 0
	clear(c.bucket(j))
}

func (c *amsCells) reset() {
	clear(c.lens)
	clear(c.counters)
}

// join: an AMS sketch is a linear projection of the frequency vector, so
// the sketch of the union of two disjoint streams is the cell-wise sum.
// Signed cells have no register-wise max (summing replicas of the SAME
// stream would double-count), so the replica join is freshest-bucket
// takeover: the sketch that absorbed the longer stream wins wholesale, ties
// broken on cell bytes. Takeover under a total order is idempotent,
// commutative, and associative, so anti-entropy converges replicas to
// identical bytes; a replica's missed suffix is healed by hinted handoff
// replay, with takeover closing residual divergence — the same
// freshest-copy semantics the bounded top-k summary uses for evicted slots.
func (c *amsCells) join(j int, peer any, disjoint bool) {
	p := peer.(*amsCells)
	local, theirs := c.bucket(j), p.bucket(j)
	if disjoint {
		c.lens[j] = min(c.lens[j]+p.lens[j], maxF2StreamLen)
		for i, v := range theirs {
			local[i] += v
		}
	} else if f2BucketLess(c.lens[j], local, p.lens[j], theirs) {
		c.lens[j] = p.lens[j]
		copy(local, theirs)
	}
}

// f2BucketLess is the takeover total order on bucket sketches: stream
// length first, then lexicographic cell comparison.
func f2BucketLess(aLen uint64, a []int64, bLen uint64, b []int64) bool {
	if aLen != bLen {
		return aLen < bLen
	}
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// scan reports the shard's F₂ over the live slots: the cell-wise sum of
// their sketches (exact for time-disjoint substreams), then the median over
// rows of the mean over cols of squared cells.
func (c *amsCells) scan(slots []int, _, _ int, visit func(key, n int, v float64) float64) {
	agg := make([]int64, c.t.cells())
	total := uint64(0)
	for _, j := range slots {
		total += c.lens[j]
		for i, v := range c.bucket(j) {
			agg[i] += v
		}
	}
	visit(c.lo, c.span, c.t.medianOfMeans(agg, total))
}

func (t *amsType) medianOfMeans(agg []int64, streamLen uint64) float64 {
	if streamLen == 0 {
		return 0
	}
	means := make([]float64, t.rows)
	for r := range means {
		sum := 0.0
		for _, v := range agg[r*t.cols : (r+1)*t.cols] {
			sum += float64(v) * float64(v)
		}
		means[r] = sum / float64(t.cols)
	}
	sort.Float64s(means)
	if t.rows%2 == 1 {
		return means[t.rows/2]
	}
	return (means[t.rows/2-1] + means[t.rows/2]) / 2
}

func (c *amsCells) hash(h *fnv1a64) {
	for _, l := range c.lens {
		h.word(l)
	}
	for _, v := range c.counters {
		h.word(zigzag(v))
	}
}

// zigzag maps a signed counter onto the uvarint-friendly unsigned line
// (0, −1, 1, −2, … → 0, 1, 2, 3, …).
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// emit: the whole sketch rides the payload — B × uvarint stream length,
// then B × rows×cols × uvarint zigzag(cell) — and no registers. There is no
// generator state, so checkpoints and plain whole snapshots are
// byte-identical.
func (c *amsCells) emit(payload []byte, regs []uint64, _ bool) ([]byte, []uint64) {
	for _, l := range c.lens {
		payload = binary.AppendUvarint(payload, l)
	}
	for _, v := range c.counters {
		payload = binary.AppendUvarint(payload, zigzag(v))
	}
	return payload, regs
}

// decode reads a peer shard into cells of its own, validating as it fills:
// stream lengths within the overflow cap, and cell magnitudes bounded by
// their bucket's stream length (every event moves every cell by ±1).
func (t *amsType) decode(d *payloadReader, _ []uint64, buckets int, _ bool) (any, error) {
	// One uvarint — at least one byte — per stream length and per cell.
	if words := buckets * (t.cells() + 1); words > len(d.data)-d.pos {
		return nil, fmt.Errorf("%d cell words declared, %d bytes left", words, len(d.data)-d.pos)
	}
	c := &amsCells{t: t, lens: make([]uint64, buckets), counters: make([]int64, buckets*t.cells())}
	for j := range c.lens {
		if c.lens[j] = d.uvarint(); c.lens[j] > maxF2StreamLen {
			return nil, fmt.Errorf("bucket %d stream length %d exceeds cap", j, c.lens[j])
		}
	}
	for j, limit := range c.lens {
		for cell, bucket := 0, c.bucket(j); cell < len(bucket) && d.err == nil; cell++ {
			v := unzigzag(d.uvarint())
			if mag := max(v, -v); uint64(mag) > limit {
				return nil, fmt.Errorf("bucket %d cell %d magnitude %d exceeds stream length %d", j, cell, mag, limit)
			}
			bucket[cell] = v
		}
	}
	return c, nil
}

func (c *amsCells) load(peer any) {
	p := peer.(*amsCells)
	c.lens, c.counters = p.lens, p.counters
}
