// Package snapcodec is the durable wire format for counter-bank snapshots:
// a self-describing, versioned, checksummed encoding of a bank's complete
// state (algorithm parameters, shape, seed, all register values, and
// optionally the per-shard generator states).
//
// The payoff is in the register block. Registers are tiny integers — the
// whole point of the paper is that a counter's state fits in ~loglog N bits
// — and under a skewed workload most of them are *very* tiny: a handful of
// hot keys hold 10–12-bit values while the long tail sits at 1–4 bits. The
// codec exploits that with FastPFOR-style patched binary packing: registers
// are grouped into blocks of 128, each block is packed at a base width b
// chosen to minimize total bytes, and the few values that overflow b are
// "patched" through a per-block exception list (position byte + the high
// bits, themselves bit-packed). An all-zero block costs two bytes. On a
// Zipf-distributed million-key bank this lands at 3–6× smaller than the raw
// fixed-width payload; see TestZipfCompressionRatio.
//
// Layout (little-endian; see docs/FORMAT.md for the byte-level spec):
//
//	magic "NYS1" | version | alg name | width | param | n | shards | seed |
//	flags | block length | [partition section] | register blocks... |
//	[rng section] | CRC32C
//
// Version 2 adds the optional partition section (flag bit 1): a snapshot may
// carry just one partition of a bank — the contiguous key range
// PartitionRange(n, parts, partition) — identified by its partition id and
// the total partition count in the header. Partition snapshots are the unit
// of the cluster's anti-entropy exchange (internal/cluster): replicas swap
// compressed partitions and merge them, so only the owned slices of a large
// key space ever cross the wire. Version-1 snapshots (always whole-bank)
// still decode.
//
// Version 3 adds the optional engine-payload section (flag bit 2), the hook
// that lets sketches other than the register bank ride the same durability
// and replication machinery (internal/engine). An engine snapshot carries an
// engine kind name and an opaque engine-defined payload instead of register
// blocks; the header's algorithm/width fields describe the engine's slot
// registers and N/Shards/Seed its key space, stripe count, and rng universe,
// so shape checks and routing work unchanged. A snapshot without the flag is
// a register-bank snapshot, byte-identical to what versions 1 and 2 wrote —
// the bank engine's snapshots remain readable by un-upgraded peers.
//
// The trailer is a CRC32C (Castagnoli) of every preceding byte, so torn or
// bit-rotted snapshot files are detected before a single register is
// trusted. Encode/Decode work on []byte; EncodeTo/DecodeFrom stream over
// io.Writer/io.Reader (GET /v1/snapshot in internal/server streams straight
// from the bank into the response body).
//
// Both directions go a 128-register block at a time. The encoder pulls
// blocks from a RegisterSource (EachBlock); the decoder writes each block,
// width-checked as it is read, into a RegisterSink that a header callback
// chooses once the header is validated (DecodeInto). Decode's sink is
// Snapshot.Registers; a store restoring a checkpoint chain decodes the full
// snapshot and every delta straight into the packed registers of a new bank
// (shardbank.Restorer), so a restore never inflates them to 64 bits each.
// Blocks reach the sink before the trailer is checked, so a failed decode's
// sink is discarded, never served.
package snapcodec

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math/bits"

	"repro/internal/bank"
	"repro/internal/bitpack"
)

const (
	// Version is the newest format version the decoder accepts. Version 2
	// added the optional partition section, version 3 the optional engine
	// payload section, version 4 the engine register section (an engine
	// snapshot may carry block-packed registers next to its opaque payload,
	// so register-shaped engine state — e.g. the window engine's bucket
	// banks — rides the same FastPFOR compression as the counter bank),
	// version 5 the delta section (a snapshot may carry only the packed
	// blocks that changed since a named base snapshot — see delta.go);
	// older input still decodes, and the encoder stamps the lowest version
	// whose features the snapshot actually uses — a whole-bank snapshot's
	// bytes are identical under all versions, so keeping the 1 stamp lets
	// un-upgraded peers read new whole-bank snapshots during a rolling
	// upgrade.
	Version = 5
	// BlockLen is the number of registers per packed block. It must stay
	// ≤ 256 so exception positions fit one byte.
	BlockLen = 128
	// MaxRegisters caps the register count a decoder will allocate for,
	// bounding memory amplification from hostile headers (2^26 registers
	// decode into 512 MiB of uint64s at most).
	MaxRegisters = 1 << 26
	// maxShards caps the shard count a decoder will accept.
	maxShards = 1 << 20
	// MaxPartitions caps the partition count of a partitioned bank — enough
	// to spread MaxRegisters at ~4k registers per partition, small enough
	// that per-partition loops stay cheap.
	MaxPartitions = 1 << 14
	// MaxEnginePayload caps the opaque engine-payload section a decoder will
	// read (the same hostile-header bound MaxRegisters provides for register
	// blocks).
	MaxEnginePayload = 1 << 26
	// maxAlgName caps the algorithm-name length.
	maxAlgName = 32
)

var magic = [4]byte{'N', 'Y', 'S', '1'}

// flag bits in the header flags byte.
const (
	flagRNG    = 1 << 0
	flagPart   = 1 << 1 // version ≥ 2: partition section present
	flagEngine = 1 << 2 // version ≥ 3: engine payload section present
	flagDelta  = 1 << 3 // version ≥ 5: delta section present (changed blocks only)
)

// ErrChecksum is returned when the CRC32C trailer does not match the
// decoded content.
var ErrChecksum = errors.New("snapcodec: checksum mismatch")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Snapshot is the decoded form of a snapshot: the bank's identity (algorithm
// + shape + seed), every register value in global key order, and optionally
// the per-shard xoshiro256++ states that make a restore bit-exact under
// future increments.
type Snapshot struct {
	AlgName string // register algorithm name (bank.Algorithm.Name)
	Width   int    // register width in bits
	Param   uint64 // algorithm parameter (bank.Algorithm.Param)

	N      int    // number of registers in the full bank
	Shards int    // lock stripes of the originating bank
	Seed   uint64 // construction seed of the originating bank

	// Parts > 0 marks a partition snapshot: Registers then holds only the
	// keys of PartitionRange(N, Parts, Partition), in key order. Parts == 0
	// (the zero value) is a whole-bank snapshot and Partition is ignored.
	Partition int
	Parts     int

	// Engine != "" marks an engine snapshot (version ≥ 3): the state is the
	// opaque Payload in the engine's own encoding, and the algorithm header
	// fields describe the engine's slot registers. The empty string is the
	// register bank, whose snapshots carry no engine section and stay
	// byte-compatible with older decoders. An engine snapshot may
	// additionally carry Registers (version 4): an engine-defined number of
	// register values — the window engine's bucket banks, for example —
	// encoded as ordinary packed register blocks, with the payload
	// describing their structure.
	Engine  string
	Payload []byte

	// Delta marks a version-5 delta snapshot (see delta.go): Registers then
	// holds only the blocks listed in DeltaBlocks — concatenated in index
	// order — out of a full register section of DeltaRegs values, and the
	// snapshot applies on top of the base identified by DeltaBase. Payload
	// and RNG are always carried whole: only the register section is
	// differential.
	Delta       bool
	DeltaBase   uint64   // caller-defined base snapshot id (checkpoint sequence)
	DeltaBlocks []uint32 // strictly ascending BlockLen-block indices
	DeltaRegs   int      // register count of the FULL section the indices address

	// Registers holds n values for a whole-bank snapshot, the partition
	// range length for a bank partition snapshot, or an engine-defined
	// count for a version-4 engine snapshot (empty for version-3 engines).
	// For a delta snapshot it holds only the listed blocks' values.
	Registers []uint64
	// Source, when non-nil, is the register section in place of Registers
	// (which must then be empty): the encoder pulls it a block at a time,
	// so a snapshot of packed registers never inflates them. Decode fills
	// Registers; DecodeInto can send the section to a sink instead. Read
	// either through Regs.
	Source RegisterSource
	RNG    [][4]uint64 // len Shards or nil (whole-bank snapshots only)
}

// RegisterSource is a register section read in place, a span at a time —
// what lets a bank hand the encoder its packed words (shardbank.View)
// instead of a []uint64 of every register.
type RegisterSource interface {
	// Len returns the number of registers in the section.
	Len() int
	// ReadRegisters fills dst with registers [at, at+len(dst)).
	ReadRegisters(dst []uint64, at int)
}

// RegisterSink is a register section written in place, a span at a time —
// the mirror of RegisterSource, which lets a decoder fill a bank's packed
// registers (shardbank.Restorer) instead of a []uint64 of every register.
type RegisterSink interface {
	// WriteRegisters stores src as registers [at, at+len(src)).
	WriteRegisters(src []uint64, at int)
}

// RegisterSlice adapts a []uint64 to RegisterSource and RegisterSink.
type RegisterSlice []uint64

func (r RegisterSlice) Len() int                            { return len(r) }
func (r RegisterSlice) ReadRegisters(dst []uint64, at int)  { copy(dst, r[at:]) }
func (r RegisterSlice) WriteRegisters(src []uint64, at int) { copy(r[at:], src) }

// Regs returns the snapshot's register section: Source when set, else
// Registers.
func (s *Snapshot) Regs() RegisterSource {
	if s.Source != nil {
		return s.Source
	}
	return RegisterSlice(s.Registers)
}

// Release frees what a live register source holds until its reader is done
// with it — shardbank.View's copy-on-write cut, which makes writers save
// what they change while it is open. A no-op for a Source that holds
// nothing, and for decoded snapshots.
func (s *Snapshot) Release() {
	if r, ok := s.Source.(interface{ Release() }); ok {
		r.Release()
	}
}

// EachBlock calls fn on every BlockLen-register block of src in order (the
// last may be short), reading each into one reused buffer — the single
// register loop the encoder and the range hashes share.
func EachBlock(src RegisterSource, fn func(block []uint64)) {
	var buf [BlockLen]uint64
	for at, n := 0, src.Len(); at < n; at += BlockLen {
		block := buf[:min(BlockLen, n-at)]
		src.ReadRegisters(block, at)
		fn(block)
	}
}

// IsEngine reports whether s is an engine snapshot (opaque payload) rather
// than a register-bank snapshot.
func (s *Snapshot) IsEngine() bool { return s.Engine != "" }

// IsPartition reports whether s carries one partition rather than the whole
// bank.
func (s *Snapshot) IsPartition() bool { return s.Parts > 0 }

// IsDelta reports whether s is a delta snapshot: only the register blocks
// listed in DeltaBlocks are present, relative to the base DeltaBase.
func (s *Snapshot) IsDelta() bool { return s.Delta }

// PartitionOf returns the partition owning key k in a bank of n registers
// split into parts contiguous ranges.
func PartitionOf(k, n, parts int) int { return int(int64(k) * int64(parts) / int64(n)) }

// PartitionRange returns the key range [lo, hi) of partition p: the ranges
// of all parts partitions tile [0, n) exactly, and PartitionOf maps each key
// back to its partition.
func PartitionRange(n, parts, p int) (lo, hi int) {
	lo = int((int64(p)*int64(n) + int64(parts) - 1) / int64(parts))
	hi = int((int64(p+1)*int64(n) + int64(parts) - 1) / int64(parts))
	return lo, hi
}

// SetAlg fills the algorithm identity fields from a bank algorithm, and
// fails when bank.Decode cannot rebuild it from them.
func (s *Snapshot) SetAlg(alg bank.Algorithm) error {
	s.AlgName, s.Width, s.Param = alg.Name(), alg.Width(), alg.Param()
	_, err := s.Alg()
	return err
}

// Alg reconstructs the bank algorithm described by the header fields. The
// reconstruction is exact, so the returned value compares equal to the
// original algorithm and satisfies shardbank.Merge's identity check.
func (s *Snapshot) Alg() (bank.Algorithm, error) {
	return bank.Decode(s.AlgName, s.Width, s.Param)
}

// RawPayloadBytes returns the size of the uncompressed fixed-width register
// payload for a bank of the given shape — n registers of width bits packed
// with no padding, what a bank's registers occupy in memory — the baseline
// that compression ratios in this repository are quoted against.
func RawPayloadBytes(n, width int) int { return (n*width + 7) / 8 }

// validate checks a Snapshot before encoding. Register values are checked
// against the header width by the encoder, block by block, as it reads them.
func (s *Snapshot) validate() error {
	if s.Source != nil && len(s.Registers) != 0 {
		return errors.New("snapcodec: both Source and Registers set")
	}
	nregs := s.Regs().Len()
	if len(s.AlgName) == 0 || len(s.AlgName) > maxAlgName {
		return fmt.Errorf("snapcodec: algorithm name length %d out of [1, %d]", len(s.AlgName), maxAlgName)
	}
	if _, err := s.Alg(); err != nil {
		return fmt.Errorf("snapcodec: %w", err)
	}
	if s.N < 0 || s.N > MaxRegisters {
		return fmt.Errorf("snapcodec: register count %d out of [0, %d]", s.N, MaxRegisters)
	}
	if s.Parts < 0 || s.Parts > MaxPartitions {
		return fmt.Errorf("snapcodec: partition count %d out of [0, %d]", s.Parts, MaxPartitions)
	}
	if s.IsEngine() {
		if len(s.Engine) > maxAlgName {
			return fmt.Errorf("snapcodec: engine name length %d exceeds %d", len(s.Engine), maxAlgName)
		}
		if len(s.Payload) > MaxEnginePayload {
			return fmt.Errorf("snapcodec: engine payload %d bytes exceeds %d", len(s.Payload), MaxEnginePayload)
		}
		if nregs > MaxRegisters {
			return fmt.Errorf("snapcodec: engine register count %d exceeds %d", nregs, MaxRegisters)
		}
		if s.RNG != nil {
			return errors.New("snapcodec: engine snapshots encode generator state in the payload")
		}
	} else if len(s.Payload) != 0 {
		return errors.New("snapcodec: payload without an engine name")
	}
	if s.IsPartition() {
		if s.Partition < 0 || s.Partition >= s.Parts {
			return fmt.Errorf("snapcodec: partition %d out of [0, %d)", s.Partition, s.Parts)
		}
		lo, hi := PartitionRange(s.N, s.Parts, s.Partition)
		if !s.IsEngine() && !s.Delta && nregs != hi-lo {
			return fmt.Errorf("snapcodec: partition %d/%d of %d keys spans %d registers, got %d",
				s.Partition, s.Parts, s.N, hi-lo, nregs)
		}
		if s.RNG != nil {
			return errors.New("snapcodec: partition snapshots cannot carry rng state")
		}
	} else if !s.IsEngine() && !s.Delta && s.N != nregs {
		return fmt.Errorf("snapcodec: N = %d but %d registers", s.N, nregs)
	}
	if s.Delta {
		if err := s.validateDelta(); err != nil {
			return err
		}
	} else if s.DeltaBase != 0 || len(s.DeltaBlocks) != 0 || s.DeltaRegs != 0 {
		return errors.New("snapcodec: delta fields set without the delta mark")
	}
	if s.Shards < 0 || s.Shards > maxShards {
		return fmt.Errorf("snapcodec: shard count %d out of [0, %d]", s.Shards, maxShards)
	}
	if s.RNG != nil && len(s.RNG) != s.Shards {
		return fmt.Errorf("snapcodec: %d rng streams for %d shards", len(s.RNG), s.Shards)
	}
	return nil
}

// Encode serializes s to the snapshot wire format.
func Encode(s *Snapshot) ([]byte, error) {
	var buf bytes.Buffer
	if err := EncodeTo(&buf, s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decode parses a snapshot produced by Encode or EncodeTo. The input must
// contain exactly one snapshot and nothing else.
func Decode(data []byte) (*Snapshot, error) {
	return DecodeCapped(data, MaxRegisters)
}

// DecodeCapped is Decode with a caller-imposed register cap: a header
// claiming more than maxRegisters registers is rejected before any
// register-proportional allocation. Use it when the expected bank shape is
// known (e.g. ingesting an untrusted peer snapshot for a merge).
func DecodeCapped(data []byte, maxRegisters int) (*Snapshot, error) {
	s, consumed, err := decodeFrom(bytes.NewReader(data), maxRegisters, nil)
	if err != nil {
		return nil, err
	}
	if rest := len(data) - consumed; rest != 0 {
		return nil, fmt.Errorf("snapcodec: %d trailing bytes after snapshot", rest)
	}
	return s, nil
}

// EncodeTo streams the snapshot wire format to w: header, packed register
// blocks, optional rng section, CRC32C trailer. Writes are buffered and the
// register section is pulled from s.Regs() one block at a time, so the
// whole encode makes no allocation proportional to n. A register wider than
// the header width fails the encode at its block; bytes before it may
// already have reached w.
func EncodeTo(w io.Writer, s *Snapshot) error {
	if err := s.validate(); err != nil {
		return err
	}
	regs := s.Regs()
	bw := bufio.NewWriter(w)
	h := crc32.New(castagnoli)
	mw := io.MultiWriter(bw, h)
	e := &encoder{w: mw, width: s.Width}

	e.write(magic[:])
	// Stamp the lowest version whose features the snapshot uses: whole-bank
	// register snapshots keep the version-1 stamp (their layout is
	// unchanged), the partition section requires 2, the engine section 3,
	// the engine register section 4, and the delta section 5.
	switch {
	case s.Delta:
		e.writeByte(5)
	case s.IsEngine() && regs.Len() > 0:
		e.writeByte(4)
	case s.IsEngine():
		e.writeByte(3)
	case s.IsPartition():
		e.writeByte(2)
	default:
		e.writeByte(1)
	}
	e.writeByte(byte(len(s.AlgName)))
	e.write([]byte(s.AlgName))
	e.writeByte(byte(s.Width))
	e.writeU64(s.Param)
	e.writeUvarint(uint64(s.N))
	e.writeUvarint(uint64(s.Shards))
	e.writeU64(s.Seed)
	var flags byte
	if s.RNG != nil {
		flags |= flagRNG
	}
	if s.IsPartition() {
		flags |= flagPart
	}
	if s.IsEngine() {
		flags |= flagEngine
	}
	if s.Delta {
		flags |= flagDelta
	}
	e.writeByte(flags)
	e.writeUvarint(BlockLen)
	if s.Delta {
		// Delta section: base id, full-section register count, then the
		// changed-block index list delta/uvarint-coded (first index, then
		// gaps ≥ 1 — the PackDelta idiom, which also makes non-ascending or
		// overlapping lists unrepresentable on the wire).
		e.writeU64(s.DeltaBase)
		e.writeUvarint(uint64(s.DeltaRegs))
		e.writeUvarint(uint64(len(s.DeltaBlocks)))
		prev := uint32(0)
		for i, bi := range s.DeltaBlocks {
			if i == 0 {
				e.writeUvarint(uint64(bi))
			} else {
				e.writeUvarint(uint64(bi - prev))
			}
			prev = bi
		}
	}
	if s.IsPartition() {
		e.writeUvarint(uint64(s.Partition))
		e.writeUvarint(uint64(s.Parts))
	}
	if s.IsEngine() {
		e.writeByte(byte(len(s.Engine)))
		e.write([]byte(s.Engine))
		e.writeUvarint(uint64(len(s.Payload)))
		e.write(s.Payload)
		// Version 4 only: the engine register count (the register blocks
		// below hold engine-defined state, not one register per key). A
		// version-3 engine snapshot has no registers and no count field, so
		// its bytes are unchanged. A delta snapshot's count lives in the
		// delta section instead.
		if regs.Len() > 0 && !s.Delta {
			e.writeUvarint(uint64(regs.Len()))
		}
	}

	// A delta's section is its listed blocks back to back; only the full
	// section's final block can be short and it sorts last, so BlockLen
	// strides cut a delta at the same boundaries as a full section.
	EachBlock(regs, e.block)

	if s.RNG != nil {
		for _, st := range s.RNG {
			for _, wd := range st {
				e.writeU64(wd)
			}
		}
	}
	if e.err != nil {
		return e.err
	}
	// Trailer: CRC of everything written so far, excluded from the CRC
	// itself, so it goes to the buffered writer only.
	var tr [4]byte
	binary.LittleEndian.PutUint32(tr[:], h.Sum32())
	if _, err := bw.Write(tr[:]); err != nil {
		return err
	}
	return bw.Flush()
}

type encoder struct {
	w       io.Writer
	err     error
	width   int                  // header register width every block is checked against
	regs    int                  // registers encoded so far, for error positions
	scratch [4 + 9*BlockLen]byte // bitpack.MaxPatchedLen(BlockLen)
	varbuf  [binary.MaxVarintLen64]byte
}

func (e *encoder) write(p []byte) {
	if e.err == nil {
		_, e.err = e.w.Write(p)
	}
}

// writeByte and writeU64 stage through varbuf: a local array would escape
// through the io.Writer and allocate per call — 8 KiB of generator state
// per snapshot at 256 shards.
func (e *encoder) writeByte(b byte) {
	e.varbuf[0] = b
	e.write(e.varbuf[:1])
}

func (e *encoder) writeU64(v uint64) {
	binary.LittleEndian.PutUint64(e.varbuf[:8], v)
	e.write(e.varbuf[:8])
}

func (e *encoder) writeUvarint(v uint64) {
	n := binary.PutUvarint(e.varbuf[:], v)
	e.write(e.varbuf[:n])
}

// block emits one packed register block (bitpack.AppendPatched) after
// checking every register against the header width.
func (e *encoder) block(vals []uint64) {
	if err := checkWidth(vals, e.width, e.regs); err != nil && e.err == nil {
		e.err = err
	}
	e.regs += len(vals)
	e.write(bitpack.AppendPatched(e.scratch[:0], vals))
}

// checkWidth fails when a register of block, registers [at, at+len(block))
// of a section, is wider than width bits.
func checkWidth(block []uint64, width, at int) error {
	var or uint64
	for _, v := range block {
		or |= v
	}
	if bits.Len64(or) <= width {
		return nil
	}
	for i, v := range block {
		if bits.Len64(v) > width {
			return fmt.Errorf("snapcodec: register %d = %d exceeds %d-bit width", at+i, v, width)
		}
	}
	return nil
}

// DecodeFrom reads one snapshot from r, verifying the CRC32C trailer before
// returning. Reads are buffered, so r may be consumed beyond the snapshot's
// last byte; when exact framing matters, length-delimit the snapshot (as
// internal/wal merge records do) and use Decode.
func DecodeFrom(r io.Reader) (*Snapshot, error) {
	return DecodeInto(r, nil)
}

// SinkFunc chooses where a decode writes a snapshot's register section. It
// is called once, after every header, delta, partition and engine field has
// been read and validated — s holds them, and the engine payload — and
// before the first register block. A nil sink keeps the section in
// s.Registers, a delta's listed blocks back to back; any other sink gets
// each block at its place in the full section and leaves s.Registers
// empty. An error ends the decode with that error.
type SinkFunc func(s *Snapshot) (RegisterSink, error)

// DecodeInto is DecodeFrom with the register section written where header
// says. Blocks reach the sink before the CRC32C trailer is read, so when
// DecodeInto fails, whatever the sink was given must be discarded.
func DecodeInto(r io.Reader, header SinkFunc) (*Snapshot, error) {
	s, _, err := decodeFrom(r, MaxRegisters, header)
	return s, err
}

func decodeFrom(r io.Reader, maxRegisters int, header SinkFunc) (*Snapshot, int, error) {
	if maxRegisters > MaxRegisters {
		maxRegisters = MaxRegisters
	}
	if maxRegisters < 0 {
		maxRegisters = 0
	}
	cr := &crcReader{r: bufio.NewReader(r), h: crc32.New(castagnoli)}
	s, err := runDecode(cr, maxRegisters, header)
	if err != nil {
		return nil, 0, err
	}
	return s, cr.n + 4, nil // cr.n CRC-covered bytes plus the 4-byte trailer
}

func runDecode(cr *crcReader, maxRegisters int, header SinkFunc) (*Snapshot, error) {
	d := &decoder{r: cr}

	var hdr [4]byte
	d.read(hdr[:])
	if d.err != nil {
		return nil, d.fail("header")
	}
	if hdr != magic {
		return nil, fmt.Errorf("snapcodec: bad magic %q", hdr[:])
	}
	version := d.byte()
	if d.err != nil {
		return nil, d.fail("version")
	}
	if version < 1 || version > Version {
		return nil, fmt.Errorf("snapcodec: unsupported version %d", version)
	}
	s := &Snapshot{}
	nameLen := int(d.byte())
	if d.err == nil && (nameLen == 0 || nameLen > maxAlgName) {
		return nil, fmt.Errorf("snapcodec: algorithm name length %d out of [1, %d]", nameLen, maxAlgName)
	}
	name := make([]byte, nameLen)
	d.read(name)
	s.AlgName = string(name)
	s.Width = int(d.byte())
	s.Param = d.u64()
	n := d.uvarint()
	shards := d.uvarint()
	s.Seed = d.u64()
	flags := d.byte()
	blockLen := d.uvarint()
	if d.err != nil {
		return nil, d.fail("header")
	}
	if _, err := s.Alg(); err != nil {
		return nil, fmt.Errorf("snapcodec: %w", err)
	}
	d.width = s.Width
	if n > uint64(maxRegisters) {
		return nil, fmt.Errorf("snapcodec: register count %d exceeds %d", n, maxRegisters)
	}
	if shards > maxShards {
		return nil, fmt.Errorf("snapcodec: shard count %d exceeds %d", shards, maxShards)
	}
	if blockLen < 1 || blockLen > 256 {
		return nil, fmt.Errorf("snapcodec: block length %d out of [1, 256]", blockLen)
	}
	if known := byte(flagRNG | flagPart | flagEngine | flagDelta); flags&^known != 0 {
		return nil, fmt.Errorf("snapcodec: unknown flag bits %#02x", flags&^known)
	}
	if version < 2 && flags&flagPart != 0 {
		return nil, fmt.Errorf("snapcodec: version %d snapshot with partition flag", version)
	}
	if version < 3 && flags&flagEngine != 0 {
		return nil, fmt.Errorf("snapcodec: version %d snapshot with engine flag", version)
	}
	if version == 4 && flags&flagEngine == 0 {
		return nil, fmt.Errorf("snapcodec: version %d snapshot without engine flag", version)
	}
	if version < 5 && flags&flagDelta != 0 {
		return nil, fmt.Errorf("snapcodec: version %d snapshot with delta flag", version)
	}
	if version >= 5 && flags&flagDelta == 0 {
		return nil, fmt.Errorf("snapcodec: version %d snapshot without delta flag", version)
	}
	s.N = int(n)
	s.Shards = int(shards)

	if flags&flagDelta != 0 {
		s.Delta = true
		s.DeltaBase = d.u64()
		dr := d.uvarint()
		bc := d.uvarint()
		if d.err != nil {
			return nil, d.fail("delta section")
		}
		if dr < 1 || dr > uint64(maxRegisters) {
			return nil, fmt.Errorf("snapcodec: delta register count %d out of [1, %d]", dr, maxRegisters)
		}
		s.DeltaRegs = int(dr)
		nb := uint64((s.DeltaRegs + int(blockLen) - 1) / int(blockLen))
		if bc > nb {
			return nil, fmt.Errorf("snapcodec: delta lists %d blocks, section has %d", bc, nb)
		}
		s.DeltaBlocks = make([]uint32, 0, min(int(bc), 1<<16))
		prev := uint64(0)
		for i := uint64(0); i < bc; i++ {
			g := d.uvarint()
			if d.err != nil {
				return nil, d.fail("delta block list")
			}
			idx := g
			if i > 0 {
				if g == 0 {
					return nil, errors.New("snapcodec: delta block list not strictly ascending")
				}
				if g > nb { // pre-check so idx can never overflow
					return nil, fmt.Errorf("snapcodec: delta block gap %d out of range", g)
				}
				idx = prev + g
			}
			if idx >= nb {
				return nil, fmt.Errorf("snapcodec: delta block %d out of [0, %d)", idx, nb)
			}
			s.DeltaBlocks = append(s.DeltaBlocks, uint32(idx))
			prev = idx
		}
	}

	regCount := s.N
	if flags&flagPart != 0 {
		part := d.uvarint()
		parts := d.uvarint()
		if d.err != nil {
			return nil, d.fail("partition section")
		}
		if parts < 1 || parts > MaxPartitions {
			return nil, fmt.Errorf("snapcodec: partition count %d out of [1, %d]", parts, MaxPartitions)
		}
		if part >= parts {
			return nil, fmt.Errorf("snapcodec: partition %d out of [0, %d)", part, parts)
		}
		if flags&flagRNG != 0 {
			return nil, errors.New("snapcodec: partition snapshot with rng section")
		}
		s.Partition = int(part)
		s.Parts = int(parts)
		lo, hi := PartitionRange(s.N, s.Parts, s.Partition)
		regCount = hi - lo
	}

	if flags&flagEngine != 0 {
		if flags&flagRNG != 0 {
			return nil, errors.New("snapcodec: engine snapshot with rng section")
		}
		engLen := int(d.byte())
		if d.err == nil && (engLen == 0 || engLen > maxAlgName) {
			return nil, fmt.Errorf("snapcodec: engine name length %d out of [1, %d]", engLen, maxAlgName)
		}
		eng := make([]byte, engLen)
		d.read(eng)
		s.Engine = string(eng)
		plen := d.uvarint()
		if d.err != nil {
			return nil, d.fail("engine section")
		}
		if plen > MaxEnginePayload {
			return nil, fmt.Errorf("snapcodec: engine payload %d bytes exceeds %d", plen, MaxEnginePayload)
		}
		// Read in bounded chunks so allocation tracks bytes actually
		// present: a hostile header declaring MaxEnginePayload on a
		// 20-byte body must fail on truncation, not allocate 64 MiB first
		// (the same defense the register path gets from its incremental
		// block reads).
		s.Payload = make([]byte, 0, min(int(plen), 1<<16))
		for rem := int(plen); rem > 0; {
			chunk := min(rem, 1<<16)
			start := len(s.Payload)
			s.Payload = append(s.Payload, make([]byte, chunk)...)
			d.read(s.Payload[start:])
			if d.err != nil {
				return nil, d.fail("engine payload")
			}
			rem -= chunk
		}
		// Version 3: the payload is the whole state, no register blocks.
		// Version 4: an explicit engine register count follows, and that
		// many registers ride the ordinary block encoding. Version 5 deltas
		// carry the full-section count in the delta section instead.
		regCount = 0
		if version >= 4 && !s.Delta {
			rc := d.uvarint()
			if d.err != nil {
				return nil, d.fail("engine register count")
			}
			if rc < 1 || rc > uint64(maxRegisters) {
				return nil, fmt.Errorf("snapcodec: engine register count %d out of [1, %d]", rc, maxRegisters)
			}
			regCount = int(rc)
		}
	}

	// One loop reads the register section a block at a time into the sink:
	// a full section's blocks in order, or a delta's listed blocks, each at
	// its place in the full section.
	bl := int(blockLen)
	total, nb := regCount, (regCount+bl-1)/bl
	if s.Delta {
		// The full-section count claimed by the delta section must agree
		// with the shape the header derives (engine sections have no
		// independent count, so the delta section's is authoritative there).
		if !s.IsEngine() && s.DeltaRegs != regCount {
			return nil, fmt.Errorf("snapcodec: delta claims %d registers, section spans %d", s.DeltaRegs, regCount)
		}
		total, nb = s.DeltaRegs, len(s.DeltaBlocks)
	}
	var sink RegisterSink
	if header != nil {
		var err error
		if sink, err = header(s); err != nil {
			return nil, err
		}
	}
	var buf []uint64 // one block on its way to the sink
	if sink != nil {
		buf = make([]uint64, bl)
	} else {
		s.Registers = make([]uint64, 0, min(nb*bl, 1<<20))
	}
	for i := range nb {
		at := i * bl
		if s.Delta {
			at = int(s.DeltaBlocks[i]) * bl
		}
		cnt := min(bl, total-at)
		if sink == nil { // decode in place at the end of Registers
			s.Registers = append(s.Registers, make([]uint64, cnt)...)
			if err := d.block(s.Registers[len(s.Registers)-cnt:], at); err != nil {
				return nil, err
			}
			continue
		}
		if err := d.block(buf[:cnt], at); err != nil {
			return nil, err
		}
		sink.WriteRegisters(buf[:cnt], at)
	}

	if flags&flagRNG != 0 {
		s.RNG = make([][4]uint64, s.Shards)
		for i := range s.RNG {
			for j := range s.RNG[i] {
				s.RNG[i][j] = d.u64()
			}
		}
		if d.err != nil {
			return nil, d.fail("rng section")
		}
	}

	sum := cr.h.Sum32()
	var tr [4]byte
	if _, err := io.ReadFull(cr.r, tr[:]); err != nil {
		return nil, fmt.Errorf("snapcodec: read trailer: %w", noEOF(err))
	}
	if binary.LittleEndian.Uint32(tr[:]) != sum {
		return nil, ErrChecksum
	}
	return s, nil
}

// crcReader reads from an underlying bufio.Reader while folding every byte
// into a running CRC32C and counting bytes delivered (readahead excluded).
type crcReader struct {
	r *bufio.Reader
	h hash.Hash32
	n int
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if n > 0 {
		c.h.Write(p[:n])
		c.n += n
	}
	return n, err
}

// skip consumes p, the next len(p) bytes Peeked from the buffer, folding
// them into the CRC.
func (c *crcReader) skip(p []byte) {
	c.h.Write(p)
	c.n += len(p)
	c.r.Discard(len(p))
}

func (c *crcReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		c.h.Write([]byte{b})
		c.n++
	}
	return b, err
}

type decoder struct {
	r     *crcReader
	err   error
	width int // header register width every block is checked against
}

func (d *decoder) fail(what string) error {
	return fmt.Errorf("snapcodec: read %s: %w", what, noEOF(d.err))
}

// noEOF converts a bare io.EOF into ErrUnexpectedEOF: inside a snapshot,
// running out of bytes is always truncation, never a clean end.
func noEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

func (d *decoder) read(p []byte) {
	if d.err == nil {
		_, d.err = io.ReadFull(d.r, p)
	}
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	b, err := d.r.ReadByte()
	d.err = err
	return b
}

func (d *decoder) u64() uint64 {
	var b [8]byte
	d.read(b[:])
	return binary.LittleEndian.Uint64(b[:])
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(d.r)
	d.err = err
	return v
}

// block decodes one packed block into out (len = register count of the
// block) and checks it against the header width; at is the block's place in
// the register section, for error positions. bitpack.ReadPatched parses the
// block in the read buffer, then its bytes are consumed through the CRC. The
// buffer (4 KiB) holds the largest block a 256-register header can
// describe, so a Peek comes back short only at the end of the stream.
func (d *decoder) block(out []uint64, at int) error {
	if d.err != nil {
		return d.fail("block")
	}
	src, peekErr := d.r.r.Peek(bitpack.MaxPatchedLen(len(out)))
	rest, err := bitpack.ReadPatched(src, out)
	if errors.Is(err, bitpack.ErrOutOfBits) && peekErr != nil {
		d.err = peekErr
		return d.fail("block")
	}
	if err != nil {
		return fmt.Errorf("snapcodec: %w", err)
	}
	d.r.skip(src[:len(src)-len(rest)])
	return checkWidth(out, d.width, at)
}
