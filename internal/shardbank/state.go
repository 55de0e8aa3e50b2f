// Durability support for the sharded bank: exporting the complete bank
// state (registers plus per-shard rng streams) and restoring a new bank a
// block at a time. internal/snapcodec serializes the state to a compressed
// on-disk format and decodes it straight into a Restorer; internal/wal
// replays logged increments on top of it.
package shardbank

import (
	"fmt"
	"math/bits"
	"runtime"

	"repro/internal/bank"
)

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
		st.Registers[i] = s.get(i >> b.shift)
	}
	for si, s := range b.shards {
		st.RNG[si] = s.xo.State()
	}
	return st
}

// Restorer fills the registers of a new bank — the only way to restore
// one — and hands the bank out only when it is whole. It holds every shard
// lock until Finish, so nothing can read a half-restored bank; a restorer
// dropped without Finish takes its bank, locks and all, with it. Its
// WriteRegisters is a snapcodec.RegisterSink: a checkpoint chain decodes
// into it block by block, the full snapshot first and then each delta's
// changed blocks, and the registers are never inflated to 64 bits each.
//
// Its bank's chunks start with no words (slab.go). A restore that is
// planned (Plan) lays every shard's slab out once, each chunk at the width
// of the largest register planned for it. Unplanned, a chunk takes words
// at its first non-zero register and widens as larger ones arrive, and a
// heap slab is reallocated when it runs out of room; a full snapshot
// writes chunk after chunk in key order, so the chunk that widens is the
// last one in its slab and grows where it lies. Finish closes the holes
// deltas leave and gives the chunks still without words their narrowest
// width: the bank comes back at its registers' widths, compact.
type Restorer struct {
	b     *Bank
	err   error     // the first bad write; Finish returns it
	bits  [][]uint8 // a plan: bits[si][c] is the bit length chunk c of shard si needs
	wrote bool      // WriteRegisters has run: too late to plan
}

// NewRestorer returns a restorer of the bank New(n, alg, shards, seed)
// builds, all registers zero.
func NewRestorer(n int, alg bank.Algorithm, shards int, seed uint64) *Restorer {
	b := newBank(n, alg, shards, seed, false)
	b.lockAll()
	return &Restorer{b: b}
}

// Plan is a restore's planning sink: fed every register the restore will
// write, before the first WriteRegisters, it sizes each chunk for the
// largest of them, so the slabs are allocated once and no chunk widens. A
// checkpoint chain is decoded into it first, then into the Restorer.
type Plan struct{ r *Restorer }

// Plan returns the restore's planning sink; after the first
// WriteRegisters, one that plans nothing.
func (r *Restorer) Plan() Plan {
	if r.wrote {
		return Plan{}
	}
	if r.bits == nil {
		r.bits = make([][]uint8, len(r.b.shards))
		for si, s := range r.b.shards {
			r.bits[si] = make([]uint8, len(s.tab))
		}
	}
	return Plan{r}
}

// WriteRegisters records that registers [at, at+len(src)) will be restored
// as src. A span the restore will refuse is left to WriteRegisters to
// report.
func (p Plan) WriteRegisters(src []uint64, at int) {
	if p.r == nil || at < 0 || at > p.r.b.n-len(src) {
		return
	}
	b := p.r.b
	for i, v := range src {
		k := at + i
		c := k >> b.shift >> chunkShift
		need := &p.r.bits[uint64(k)&b.mask][c]
		*need = max(*need, uint8(min(bits.Len64(v), b.width)))
	}
}

// layOut places every chunk of every shard at its planned width, in chunk
// order, and drops the plan. A heap bank's slabs are cut from one
// allocation of exactly the words planned, each on its own cache line.
func (r *Restorer) layOut() {
	b := r.b
	sizes := make([]int, len(b.shards))
	total := 0
	for si, s := range b.shards {
		for c, need := range r.bits[si] {
			sizes[si] += packedWords(s.chunkRegs(c), b.widthFor(int(need)))
		}
		total += lineUp(sizes[si])
	}
	var heap []uint64
	if b.mapped == 0 {
		heap = heapWords(total)
	}
	for si, s := range b.shards {
		if heap != nil {
			s.words, heap = heap[:sizes[si]:sizes[si]], heap[lineUp(sizes[si]):]
		}
		for c, need := range r.bits[si] {
			w := b.widthFor(int(need))
			s.tab[c] = entry(s.end, w)
			s.end += packedWords(s.chunkRegs(c), w)
		}
		s.live, s.high = s.end, s.end
	}
	r.bits = nil
}

// WriteRegisters stores src as registers [at, at+len(src)). A span outside
// the bank, or a register wider than the algorithm, writes nothing and
// fails Finish.
func (r *Restorer) WriteRegisters(src []uint64, at int) {
	b := r.b
	if r.err != nil {
		return
	}
	if r.bits != nil {
		r.layOut()
	}
	r.wrote = true
	if at < 0 || at > b.n-len(src) {
		r.err = fmt.Errorf("shardbank: restore of registers [%d, %d) in a bank of %d", at, at+len(src), b.n)
		return
	}
	var or uint64
	for _, v := range src {
		or |= v
	}
	if bits.Len64(or) > b.alg.Width() {
		r.err = fmt.Errorf("shardbank: restored register above %d bits in [%d, %d)", b.alg.Width(), at, at+len(src))
		return
	}
	for i, v := range src {
		k := at + i
		b.put(b.shards[uint64(k)&b.mask], k>>b.shift, v)
	}
	runtime.KeepAlive(b) // the words may be mapped (arena.go)
}

// Finish completes the restore, once, and returns the bank: rng, when
// non-nil, sets every shard's generator state (one entry per shard), every
// slab is settled, every block is marked dirty and the block maxima are
// rebuilt from the registers. After an error the bank is dropped, and with it anything
// written to it.
func (r *Restorer) Finish(rng [][4]uint64) (*Bank, error) {
	b := r.b
	defer b.unlockAll()
	if r.err != nil {
		return nil, r.err
	}
	if r.bits != nil {
		r.layOut() // planned, never written: every register is 0
	}
	if rng != nil {
		if len(rng) != len(b.shards) {
			return nil, fmt.Errorf("shardbank: state has %d rng streams, bank has %d shards", len(rng), len(b.shards))
		}
		for si, s := range b.shards {
			s.xo.SetState(rng[si])
		}
	}
	for _, s := range b.shards {
		b.settle(s)
	}
	// A restore writes the whole register section; conservatively mark
	// every block so the next checkpoint cannot miss restored state. The
	// store's recovery path drains the bitmap right after construction when
	// it knows the restored image is already durable.
	b.dirty.MarkRange(0, b.n)
	b.rebuildBlockMax(0, b.n)
	return b, nil
}
