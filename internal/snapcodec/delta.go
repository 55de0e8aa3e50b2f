// Delta snapshots (format version 5): a snapshot that carries only the
// 128-register packed blocks that changed since a named base snapshot,
// making checkpoint and repair cost proportional to churn instead of
// keyspace.
//
// The record is a full snapshot header (algorithm, shape, seed, partition
// and engine sections, payload, rng) plus a delta section:
//
//	base id u64 | full-section register count uvarint | block count uvarint |
//	block indices, delta/uvarint-coded (first index, then gaps ≥ 1)
//
// followed by the listed blocks only, each packed with the ordinary
// FastPFOR-style block encoding. The gap coding is the PackDelta idiom the
// non-delta blocks already borrow: ascending lists compress to ~1 byte per
// changed block, and a descending or overlapping list is unrepresentable,
// so a decoder rejects it structurally rather than by scanning. Payload and
// RNG sections are always carried whole — only the register section is
// differential — so applying a delta on top of its base reproduces the full
// snapshot exactly, byte-identically under re-encode (blocks encode
// independently, so splicing value spans is enough).
package snapcodec

import (
	"errors"
	"fmt"
)

// NumBlocks returns the number of BlockLen-register blocks covering a
// register section of regs values.
func NumBlocks(regs int) int { return (regs + BlockLen - 1) / BlockLen }

// blockSpan returns the register count of block idx in a section of total
// registers split into blockLen-sized blocks (the last block may be short).
func blockSpan(total, blockLen, idx int) int {
	if sz := total - idx*blockLen; sz < blockLen {
		return sz
	}
	return blockLen
}

// validateDelta checks the delta fields of a Snapshot before encoding.
func (s *Snapshot) validateDelta() error {
	if s.DeltaRegs < 1 || s.DeltaRegs > MaxRegisters {
		return fmt.Errorf("snapcodec: delta register count %d out of [1, %d]", s.DeltaRegs, MaxRegisters)
	}
	if !s.IsEngine() {
		want := s.N
		if s.IsPartition() {
			lo, hi := PartitionRange(s.N, s.Parts, s.Partition)
			want = hi - lo
		}
		if s.DeltaRegs != want {
			return fmt.Errorf("snapcodec: delta claims %d registers, section spans %d", s.DeltaRegs, want)
		}
	}
	nb := NumBlocks(s.DeltaRegs)
	if len(s.DeltaBlocks) > nb {
		return fmt.Errorf("snapcodec: delta lists %d blocks, section has %d", len(s.DeltaBlocks), nb)
	}
	expect := 0
	prev := -1
	for _, bi := range s.DeltaBlocks {
		if int(bi) <= prev {
			return errors.New("snapcodec: delta block list not strictly ascending")
		}
		if int(bi) >= nb {
			return fmt.Errorf("snapcodec: delta block %d out of [0, %d)", bi, nb)
		}
		prev = int(bi)
		expect += blockSpan(s.DeltaRegs, BlockLen, int(bi))
	}
	if got := s.Regs().Len(); got != expect {
		return fmt.Errorf("snapcodec: delta blocks span %d registers, got %d", expect, got)
	}
	return nil
}

// blockSubset presents the listed blocks of a full register section back to
// back — the register section of a delta, read through to the full section
// without copying it. Every listed block is BlockLen long except possibly
// the section's final one, which can only come last.
type blockSubset struct {
	full   RegisterSource
	blocks []uint32
	n      int
}

func (b blockSubset) Len() int { return b.n }

func (b blockSubset) ReadRegisters(dst []uint64, at int) {
	for len(dst) > 0 {
		in := at % BlockLen
		n := min(len(dst), BlockLen-in)
		b.full.ReadRegisters(dst[:n], int(b.blocks[at/BlockLen])*BlockLen+in)
		dst, at = dst[n:], at+n
	}
}

// MakeDelta builds a delta snapshot from a full snapshot: the header,
// payload, and rng sections are shared (not copied), the register section
// is restricted to the listed blocks, and the result applies on top of the
// base identified by baseID. blocks must be strictly ascending indices into
// full's register section. The delta reads its blocks through full's
// section rather than copying them, so encoding it touches only the listed
// blocks and full must stay unmodified while the delta is in use.
func MakeDelta(full *Snapshot, baseID uint64, blocks []uint32) (*Snapshot, error) {
	if full.Delta {
		return nil, errors.New("snapcodec: delta of a delta snapshot")
	}
	total := full.Regs().Len()
	if total == 0 {
		return nil, errors.New("snapcodec: delta of a snapshot without registers")
	}
	nb := NumBlocks(total)
	d := &Snapshot{
		AlgName:   full.AlgName,
		Width:     full.Width,
		Base:      full.Base,
		Mantissa:  full.Mantissa,
		N:         full.N,
		Shards:    full.Shards,
		Seed:      full.Seed,
		Partition: full.Partition,
		Parts:     full.Parts,
		Engine:    full.Engine,
		Payload:   full.Payload,
		RNG:       full.RNG,
		Delta:     true,
		DeltaBase: baseID,
		DeltaRegs: total,
	}
	d.DeltaBlocks = make([]uint32, 0, len(blocks))
	prev := -1
	expect := 0
	for _, bi := range blocks {
		if int(bi) <= prev {
			return nil, errors.New("snapcodec: delta block list not strictly ascending")
		}
		if int(bi) >= nb {
			return nil, fmt.Errorf("snapcodec: delta block %d out of [0, %d)", bi, nb)
		}
		prev = int(bi)
		expect += blockSpan(total, BlockLen, int(bi))
		d.DeltaBlocks = append(d.DeltaBlocks, bi)
	}
	d.Source = blockSubset{full: full.Regs(), blocks: d.DeltaBlocks, n: expect}
	return d, nil
}

// spliceDelta overwrites the blocks d lists in regs, a full section of
// d.DeltaRegs registers, with d's values.
func spliceDelta(regs []uint64, d *Snapshot) {
	src := d.Regs()
	off := 0
	for _, bi := range d.DeltaBlocks {
		lo := int(bi) * BlockLen
		sz := blockSpan(d.DeltaRegs, BlockLen, int(bi))
		src.ReadRegisters(regs[lo:lo+sz], off)
		off += sz
	}
}

// MaterializeDelta builds the full snapshot a delta describes from the
// delta's own header plus a base register section supplied by the caller.
// Unlike ApplyDelta it carries no identity coupling to a base *Snapshot*:
// anti-entropy materializes a peer's delta against locally exported
// registers, and the peers may legitimately differ in seed (replica joins
// never compare seeds), so the result's header — including the seed — is
// the delta's, verbatim. base must span exactly d.DeltaRegs values; it is
// read into a fresh slice, never aliased.
func MaterializeDelta(d *Snapshot, base RegisterSource) (*Snapshot, error) {
	if !d.Delta {
		return nil, errors.New("snapcodec: MaterializeDelta of a non-delta snapshot")
	}
	if base.Len() != d.DeltaRegs {
		return nil, fmt.Errorf("snapcodec: delta addresses %d registers, base has %d", d.DeltaRegs, base.Len())
	}
	full := &Snapshot{
		AlgName:   d.AlgName,
		Width:     d.Width,
		Base:      d.Base,
		Mantissa:  d.Mantissa,
		N:         d.N,
		Shards:    d.Shards,
		Seed:      d.Seed,
		Partition: d.Partition,
		Parts:     d.Parts,
		Engine:    d.Engine,
		Payload:   d.Payload,
		RNG:       d.RNG,
	}
	full.Registers = make([]uint64, d.DeltaRegs)
	base.ReadRegisters(full.Registers, 0)
	spliceDelta(full.Registers, d)
	return full, nil
}

// ApplyDelta splices delta d onto base in place: the listed blocks replace
// base's register spans, and the payload and rng sections are replaced
// wholesale (they are carried complete in every delta). base must be a full
// (non-delta) snapshot with the same identity — algorithm, shape, seed,
// partition, engine kind — and a register section of exactly d.DeltaRegs
// values. After a successful apply, base is the full snapshot d described;
// re-encoding it reproduces the bytes a direct full encode would, because
// blocks encode independently.
func ApplyDelta(base, d *Snapshot) error {
	if !d.Delta {
		return errors.New("snapcodec: ApplyDelta of a non-delta snapshot")
	}
	if base.Delta {
		return errors.New("snapcodec: ApplyDelta onto a delta snapshot")
	}
	switch {
	case base.AlgName != d.AlgName || base.Width != d.Width ||
		base.Base != d.Base || base.Mantissa != d.Mantissa:
		return errors.New("snapcodec: delta algorithm mismatch with base")
	case base.N != d.N || base.Shards != d.Shards || base.Seed != d.Seed:
		return errors.New("snapcodec: delta shape mismatch with base")
	case base.Partition != d.Partition || base.Parts != d.Parts:
		return errors.New("snapcodec: delta partition mismatch with base")
	case base.Engine != d.Engine:
		return errors.New("snapcodec: delta engine mismatch with base")
	}
	if len(base.Registers) != d.DeltaRegs {
		return fmt.Errorf("snapcodec: delta addresses %d registers, base has %d", d.DeltaRegs, len(base.Registers))
	}
	spliceDelta(base.Registers, d)
	base.Payload = d.Payload
	base.RNG = d.RNG
	return nil
}
