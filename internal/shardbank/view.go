// The packed read path: every consumer that reads registers in bulk —
// snapshots, checkpoints, range hashes, top-k — reads them where they lie,
// as fields of the shards' packed chunks (slab.go), instead of inflating
// them to one uint64 each. Two entry points:
//
//   - FreezeRange/Freeze take a copy-on-write cut of a key range (cut.go):
//     under every shard lock they capture the generator states and list the
//     cut, and they copy no register. The returned View serves the
//     registers of the instant of the cut, one chunk at a time through one
//     reused buffer, taking each shard lock briefly per chunk. A view costs
//     that buffer plus the words writers change while it is open — never
//     more than the packed size of the range, which is what a frozen copy
//     cost up front.
//   - TopRegisters ranks raw registers in place, opening only the blocks
//     whose block-max entry says they can rank, so a top-k read allocates k
//     entries and one bit per block, not n estimates.
package shardbank

import (
	"runtime"
	"sort"
	"sync/atomic"
)

// View is an image of the registers of a key range [lo, hi) and of every
// shard's generator state, all as of one instant. It satisfies
// snapcodec.RegisterSource, so the codec packs a snapshot straight off it.
//
// A view may be read in any order, any number of times, until Release;
// while it is open, writers save the words of each chunk they change
// first. Release it as soon as it has been read. A view dropped unreleased
// is released by the garbage collector, so an abandoned view never leaves
// writers copying for good. A view is read by one goroutine at a time.
type View struct {
	lo, n int
	shift uint
	mask  uint64
	rng   [][4]uint64

	cut     *cut // nil once released, and for an empty range
	cleanup runtime.Cleanup
	// buf holds the loaded chunk: each shard's words of it, back to back.
	// Shard si's part starts at bit base[si] and is packed at widths[si],
	// so slot l of shard si sits at base[si] + (l mod 128)·widths[si].
	buf    []uint64
	base   []uint
	widths []uint
	cur    int // chunk held in buf, −1 for none
}

// Freeze captures the whole bank: FreezeRange(0, Len).
func (b *Bank) Freeze() *View {
	v, _ := b.FreezeRange(0, b.n)
	return v
}

// FreezeRange cuts keys [lo, hi) as a View. Every shard lock is held while
// the generator states are captured and the cut is listed — no register is
// copied — so the view is a globally consistent cut: registers and
// generator states correspond to the same instant, with no increment
// straddling it.
func (b *Bank) FreezeRange(lo, hi int) (*View, error) {
	if err := b.checkRange(lo, hi); err != nil {
		return nil, err
	}
	p := len(b.shards)
	v := &View{
		lo: lo, n: hi - lo,
		shift: b.shift, mask: b.mask,
		rng: make([][4]uint64, p),
		cur: -1,
	}
	var ct *cut
	if hi > lo {
		ct = b.newCut(lo, hi)
		v.buf = make([]uint64, b.chunkBufWords())
		v.base = make([]uint, p)
		v.widths = make([]uint, p)
	}
	b.lockAll()
	for si, s := range b.shards {
		v.rng[si] = s.xo.State()
	}
	if ct != nil {
		b.cuts = append(b.cuts, ct)
	}
	b.unlockAll()
	if ct != nil {
		v.cut = ct
		v.cleanup = runtime.AddCleanup(v, (*cut).release, ct)
	}
	return v, nil
}

// Len returns the number of registers in the view.
func (v *View) Len() int { return v.n }

// RNG returns the per-shard generator states captured with the registers
// (shared; do not mutate).
func (v *View) RNG() [][4]uint64 { return v.rng }

// Release ends the view's cut: writers stop saving for it and the words
// they saved are dropped. Reading after Release panics. Idempotent.
func (v *View) Release() {
	if v.cut == nil {
		return
	}
	v.cleanup.Stop()
	v.cut.release()
	v.cut, v.buf, v.cur = nil, nil, -1
}

// ReadRegisters fills dst with the registers of view positions
// [at, at+len(dst)) — keys lo+at onward — in key order.
func (v *View) ReadRegisters(dst []uint64, at int) {
	if at < 0 || at+len(dst) > v.n {
		panic("shardbank: view read out of range")
	}
	cs := v.shift + chunkShift
	for k, end := v.lo+at, v.lo+at+len(dst); k < end; {
		if c := k >> cs; c != v.cur {
			v.load(c)
		}
		for stop := min(end, (v.cur+1)<<cs); k < stop; k++ {
			si := uint64(k) & v.mask
			w := v.widths[si]
			dst[k-v.lo-at] = field(v.buf, v.base[si]+uint((k>>v.shift)&chunkMask)*w, w)
		}
	}
}

// load fills buf with chunk c as of the cut, one shard lock at a time.
func (v *View) load(c int) {
	ct := v.cut
	if ct == nil {
		panic("shardbank: view read after release")
	}
	off := 0
	for si, s := range ct.b.shards {
		s.mu.Lock()
		n, w := ct.read(v.buf[off:], si, c)
		s.mu.Unlock()
		v.base[si], v.widths[si] = uint(off)*64, w
		off += n
	}
	runtime.KeepAlive(ct.b)
	v.cur = c
}

// RegEntry is one ranked register of a TopRegisters report.
type RegEntry struct {
	Key int
	Reg uint64
}

// TopRegisters returns up to k keys of [lo, hi) holding the largest
// non-zero registers, ranked by descending register with ties toward the
// smaller key. Every bank.Algorithm's estimate is strictly increasing in
// its register, so this is also the ranking by estimate — computed without
// evaluating one.
//
// It reads the block-max column (blockmax.go) before any register. The
// index pass — no shard lock held — takes the k-th largest bound of the
// blocks overlapping the range as a threshold and lists the blocks whose
// bound reaches it; the register pass then takes each shard's lock once and
// reads only that shard's slots of the listed blocks. If the k-th register
// found reaches the threshold it beats every register of every unlisted
// block and the ranking is final; otherwise (an edge block whose bound came
// from a key outside the range, a reset in flight) the threshold drops to
// that register and the blocks in between are read the same way. A loose
// bound therefore costs a second pass, never a wrong answer.
//
// Consistency: each shard is read under its own lock (consistent per shard,
// not a global cut), and a register raised after the index pass looked at
// its block may be missed — the answer is the top-k of a state every key of
// which existed during the call.
func (b *Bank) TopRegisters(k, lo, hi int) ([]RegEntry, error) {
	if err := b.checkRange(lo, hi); err != nil {
		return nil, err
	}
	// k may come straight off a query string — cap the buffers at the range
	// size so a hostile k cannot allocate gigabytes.
	if k > hi-lo {
		k = hi - lo
	}
	if k <= 0 {
		return []RegEntry{}, nil
	}
	b0 := lo >> dirtyBlockShift
	bounds := b.blockMax[b0 : (hi-1)>>dirtyBlockShift+1]
	// A zero block holds nothing that ranks, so the threshold never goes
	// below 1 — the value at which every block left unread is all-zero.
	thr := max(kthLargest(bounds, k), 1)
	read := make([]uint64, (len(bounds)+63)/64) // blocks already ranked
	out := make([]RegEntry, 0, k+1)
	var runs []keyRun
	for {
		runs = runs[:0]
		for i := range bounds {
			if read[i>>6]>>(i&63)&1 != 0 || bounds[i].Load() < thr {
				continue
			}
			read[i>>6] |= 1 << (i & 63)
			from := max(lo, (b0+i)<<dirtyBlockShift)
			to := min(hi, (b0+i+1)<<dirtyBlockShift)
			if n := len(runs); n > 0 && runs[n-1].hi == from {
				runs[n-1].hi = to // adjacent blocks walk as one run
			} else {
				runs = append(runs, keyRun{from, to})
			}
		}
		out = b.rankRuns(out, k, runs)
		switch {
		case thr == 1 || len(out) == k && out[k-1].Reg >= thr:
			return out, nil
		case len(out) == k:
			thr = out[k-1].Reg
		default:
			thr = 1
		}
	}
}

// keyRun is a key range [lo, hi) of whole blocks clipped to a query range.
type keyRun struct{ lo, hi int }

// kthLargest returns the k-th largest entry of bounds, 0 when there are
// fewer than k: a min-heap of the k largest seen so far, seeded with zeros.
func kthLargest(bounds []atomic.Uint64, k int) uint64 {
	if len(bounds) < k {
		return 0
	}
	heap := make([]uint64, k)
	for i := range bounds {
		v := bounds[i].Load()
		if v <= heap[0] {
			continue
		}
		// v replaces the root; sift it down.
		j := 0
		for {
			c := 2*j + 1
			if c+1 < k && heap[c+1] < heap[c] {
				c++
			}
			if c >= k || heap[c] >= v {
				break
			}
			heap[j] = heap[c]
			j = c
		}
		heap[j] = v
	}
	return heap[0]
}

// rankRuns folds the registers of the given key runs into out, a ≤ k-entry
// buffer sorted by descending register then ascending key. Each shard with
// a key in some run is locked once, for as long as it takes to read its
// slots of the runs; a register is looked at twice only when it reaches
// the current k-th.
func (b *Bank) rankRuns(out []RegEntry, k int, runs []keyRun) []RegEntry {
	floor := uint64(1) // registers below it cannot rank
	if len(out) == k {
		floor = out[k-1].Reg
	}
	p := len(b.shards)
	for si, s := range b.shards {
		locked := false
		for _, r := range runs {
			first := b.firstInShard(r.lo, si)
			if first >= r.hi {
				continue
			}
			if !locked {
				s.mu.Lock()
				locked = true
			}
			for key := first; key < r.hi; key += p {
				reg := s.get(key >> b.shift)
				if reg < floor {
					continue
				}
				if len(out) == k {
					if last := out[k-1]; reg == last.Reg && key > last.Key {
						continue
					}
				}
				i := sort.Search(len(out), func(i int) bool {
					return out[i].Reg < reg || (out[i].Reg == reg && out[i].Key > key)
				})
				out = append(out, RegEntry{})
				copy(out[i+1:], out[i:])
				out[i] = RegEntry{Key: key, Reg: reg}
				if len(out) > k {
					out = out[:k]
				}
				if len(out) == k {
					floor = out[k-1].Reg
				}
			}
		}
		if locked {
			s.mu.Unlock()
		}
	}
	runtime.KeepAlive(b)
	return out
}
