// The packed read path: every consumer that reads registers in bulk —
// snapshots, checkpoints, range hashes, top-k — reads them where they lie,
// as width-bit fields of the shards' packed words, instead of inflating them
// to one uint64 each. Two entry points:
//
//   - FreezeRange/Freeze copy the packed words (and generator states) of a
//     key range under every shard lock and release the locks at once; the
//     returned View is immutable and serves registers in key order, a block
//     at a time, with no further locking. A frozen partition costs its
//     packed size — width/64 of what a []uint64 export cost.
//   - TopRegisters ranks raw registers in place, opening only the blocks
//     whose block-max entry says they can rank, so a top-k read allocates k
//     entries and one bit per block, not n estimates.
package shardbank

import (
	"sort"
	"sync/atomic"
)

// View is an immutable image of the registers of a key range [lo, hi) and
// of every shard's generator state, all captured at one instant. It
// satisfies snapcodec.RegisterSource, so the codec packs a snapshot
// straight off it.
type View struct {
	lo, n int
	width uint
	shift uint
	mask  uint64
	// words holds each shard's copied word span back to back; base[s] is
	// the bit position in words at which shard s's local slot 0 would
	// start, so slot l of shard s sits at base[s] + l·width.
	words []uint64
	base  []int
	rng   [][4]uint64
}

// Freeze captures the whole bank: FreezeRange(0, Len).
func (b *Bank) Freeze() *View {
	v, _ := b.FreezeRange(0, b.n)
	return v
}

// FreezeRange captures keys [lo, hi) as a View. Every shard lock is held
// for the duration of the packed copy — a memcpy of ⌈(hi−lo)·width/8⌉
// bytes plus one pad word per shard — so the image is a globally consistent
// cut: registers and generator states correspond to the same instant, with
// no increment straddling the capture.
func (b *Bank) FreezeRange(lo, hi int) (*View, error) {
	if err := b.checkRange(lo, hi); err != nil {
		return nil, err
	}
	p := len(b.shards)
	width := b.alg.Width()
	v := &View{
		lo: lo, n: hi - lo,
		width: uint(width), shift: b.shift, mask: b.mask,
		base: make([]int, p),
		rng:  make([][4]uint64, p),
	}
	// Word spans depend only on the bank's shape, so size and place them
	// before taking any lock.
	type span struct{ from, to int }
	spans := make([]span, p)
	total := 0
	for si := range b.shards {
		first := b.firstInShard(lo, si)
		if first >= hi {
			continue
		}
		l0 := first >> b.shift
		l1 := (hi-1-si)>>b.shift + 1 // one past the last slot of a key < hi
		from := l0 * width >> 6
		// One word past the payload so ReadRegisters can always touch
		// idx+1, as bitpack.Array does; the shard's own pad word covers it.
		to := (l1*width+63)>>6 + 1
		spans[si] = span{from, to}
		v.base[si] = (total - from) * 64
		total += to - from
	}
	v.words = make([]uint64, total)
	b.lockAll()
	off := 0
	for si, s := range b.shards {
		off += copy(v.words[off:], s.words[spans[si].from:spans[si].to])
		v.rng[si] = s.xo.State()
	}
	b.unlockAll()
	return v, nil
}

// Len returns the number of registers in the view.
func (v *View) Len() int { return v.n }

// RNG returns the per-shard generator states captured with the registers
// (shared; do not mutate).
func (v *View) RNG() [][4]uint64 { return v.rng }

// ReadRegisters fills dst with the registers of view positions
// [at, at+len(dst)) — keys lo+at onward — in key order.
func (v *View) ReadRegisters(dst []uint64, at int) {
	if at < 0 || at+len(dst) > v.n {
		panic("shardbank: view read out of range")
	}
	rmask := ^uint64(0) >> (64 - v.width)
	width := int(v.width)
	k := v.lo + at
	for i := range dst {
		pos := uint(v.base[uint64(k)&v.mask] + (k>>v.shift)*width)
		idx, off := pos>>6, pos&63
		dst[i] = (v.words[idx]>>off | v.words[idx+1]<<(64-off)) & rmask
		k++
	}
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
// slots of the runs with a running bit offset; a register is looked at
// twice only when it reaches the current k-th.
func (b *Bank) rankRuns(out []RegEntry, k int, runs []keyRun) []RegEntry {
	floor := uint64(1) // registers below it cannot rank
	if len(out) == k {
		floor = out[k-1].Reg
	}
	p := len(b.shards)
	width := uint(b.alg.Width())
	rmask := ^uint64(0) >> (64 - width)
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
			words := s.words
			pos := uint(first>>b.shift) * width
			for key := first; key < r.hi; key += p {
				idx, off := pos>>6, pos&63
				pos += width
				reg := (words[idx]>>off | words[idx+1]<<(64-off)) & rmask
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
	return out
}
