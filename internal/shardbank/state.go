// Durability support for the sharded bank: restoring register payloads and
// exporting/importing the complete bank state (registers plus per-shard rng
// streams). internal/snapcodec serializes the exported state to a compressed
// on-disk format; internal/wal replays logged increments on top of it.
package shardbank

import (
	"fmt"

	"repro/internal/bitpack"
)

// Restore loads a packed register payload produced by Snapshot (or by
// bank.Bank.Snapshot on a bank of identical shape) into the sharded bank,
// overwriting every register. The payload is shape-validated: it must be
// exactly SizeBytes-of-the-merged-view long, i.e. ⌈n·width/8⌉ bytes, and
// every field must decode (the packed reader masks each field to the
// register width, so out-of-width values cannot arise). The shard rng
// streams are left untouched; use RestoreState to restore those too.
func (b *Bank) Restore(payload []byte) error {
	width := b.alg.Width()
	want := (b.n*width + 7) / 8
	if len(payload) != want {
		return fmt.Errorf("shardbank: restore payload is %d bytes, want %d (n=%d, width=%d)",
			len(payload), want, b.n, width)
	}
	r := bitpack.NewReader(payload, b.n*width)
	regs := make([]uint64, b.n)
	for i := range regs {
		v, err := r.ReadBits(width)
		if err != nil {
			return fmt.Errorf("shardbank: restore register %d: %w", i, err)
		}
		regs[i] = v
	}
	return b.RestoreState(State{Registers: regs})
}

// State is a complete serializable image of a Bank at one instant: all n
// register values in global key order, and optionally the 256-bit xoshiro
// state of every shard's generator. With RNG present, a restored bank is
// indistinguishable from the original — the same future operation sequence
// produces bit-identical registers — which is what lets a checkpoint plus a
// WAL suffix reproduce a crashed bank exactly. With RNG nil, only the
// registers transfer (enough for estimate serving and Remark 2.4 merging).
type State struct {
	Registers []uint64
	RNG       [][4]uint64
}

// ExportState captures the bank's state under every shard lock, so the image
// is a globally consistent cut: registers and rng states correspond to the
// same instant, with no increment straddling the capture.
func (b *Bank) ExportState() State {
	st := State{
		Registers: make([]uint64, b.n),
		RNG:       make([][4]uint64, len(b.shards)),
	}
	b.lockAll()
	defer b.unlockAll()
	for i := 0; i < b.n; i++ {
		s := b.shards[uint64(i)&b.mask]
		st.Registers[i] = s.arr.Get(i >> b.shift)
	}
	for si, s := range b.shards {
		st.RNG[si] = s.xo.State()
	}
	return st
}

// RestoreState overwrites the bank's registers (and, when st.RNG is
// non-nil, its per-shard generator states) with a previously exported State.
// The state is shape-validated: len(Registers) must equal Len, every
// register must fit the algorithm width, and RNG, if present, must have one
// entry per shard. On any validation error the bank is left unmodified.
func (b *Bank) RestoreState(st State) error {
	if len(st.Registers) != b.n {
		return fmt.Errorf("shardbank: state has %d registers, bank has %d", len(st.Registers), b.n)
	}
	if st.RNG != nil && len(st.RNG) != len(b.shards) {
		return fmt.Errorf("shardbank: state has %d rng streams, bank has %d shards",
			len(st.RNG), len(b.shards))
	}
	maxReg := ^uint64(0) >> uint(64-b.alg.Width())
	for i, v := range st.Registers {
		if v > maxReg {
			return fmt.Errorf("shardbank: state register %d = %d exceeds %d-bit width",
				i, v, b.alg.Width())
		}
	}
	b.lockAll()
	defer b.unlockAll()
	for i, v := range st.Registers {
		s := b.shards[uint64(i)&b.mask]
		s.arr.Set(i>>b.shift, v)
	}
	if st.RNG != nil {
		for si, s := range b.shards {
			s.xo.SetState(st.RNG[si])
		}
	}
	// A restore rewrites the whole register section; conservatively mark
	// every block so the next checkpoint cannot miss restored state. The
	// store's recovery path drains the bitmap right after construction when
	// it knows the restored image is already durable.
	b.dirty.MarkRange(0, b.n)
	b.rebuildBlockMax(0, b.n)
	return nil
}
