// The register layout: each shard keeps its registers in chunks of 128
// local slots — chunk c holds slots [c·128, (c+1)·128), the unit cut.go
// saves — and packs each chunk at its own width, the narrowest of 2, 4, 8
// and the algorithm's width that holds its largest register. It is the
// snapshot codec's per-block width (FastPFOR, Lemire & Boytsov, SPE 2015)
// kept live: a Morris register that saw a few events needs 2 to 4 bits,
// not the 14 its algorithm can reach, so a bank of mostly small counts
// costs a few bits per key.
//
// A shard's chunks sit in one slab of words. tab[c] holds chunk c's word
// offset in the slab and its width; a chunk's words are its registers at
// that width back to back, so a field at width 2, 4 or 8 never straddles a
// word. A write that would overflow its chunk re-packs the chunk wider, at
// the slab's end if it is not the last chunk already, and leaves a hole
// where it was. When the slab has no room, and for a mapped slab also when
// the holes reach 1/16 of the chunks' words, the shard compacts in place,
// under its own lock: the chunks slide down over the holes. A slab never
// needs more words than every chunk at the algorithm's width, the packed
// size of fixed-width registers, so a mapped slab (arena.go) holds that
// much and is only ever touched up to its high water. A heap bank sits
// under the garbage collector's 4 MiB floor, so New gives each heap slab
// that much at once; a restored heap slab starts at its chunks' planned
// words and takes that much when a chunk first outgrows it.
//
// Widths only grow while a bank serves, and width is storage only: no step,
// draw or emitted byte depends on it. Every read and write of a shard's
// words goes through this file; cut.go and view.go copy whole chunks with
// their widths.
package shardbank

import (
	"cmp"
	"math/bits"
	"os"
	"slices"
)

const (
	chunkShift = 7 // log2 of the local slots of one chunk
	chunkLen   = 1 << chunkShift
	chunkMask  = chunkLen - 1

	// A tab entry is offset<<offShift | width; width 0 marks a chunk with
	// no words yet (a Restorer's chunks before their first non-zero write,
	// and a chunk while it moves), all of whose registers read 0. The
	// offset's 25 bits bound a shard's slab at 2^25 words (New).
	offShift  = 7
	widthMask = 1<<offShift - 1
	maxSlab   = 1 << (32 - offShift)

	// compactRatio: a mapped slab compacts once its holes reach
	// 1/compactRatio of its chunks' words, so its high water stays within
	// about 6 % of them and a hole word costs at most compactRatio moves.
	compactRatio = 16
)

// entry returns the tab entry of a chunk at word off, packed at width w.
func entry(off int, w uint) uint32 { return uint32(off)<<offShift | uint32(w) }

// packedWords returns the words of m registers packed at width w.
func packedWords(m int, w uint) int { return (m*int(w) + 63) >> 6 }

// field reads the w-bit field starting at bit pos of words. Only a field
// that straddles two words reads the second.
func field(words []uint64, pos, w uint) uint64 {
	idx, off := pos>>6, pos&63
	v := words[idx] >> off
	if off+w > 64 {
		v |= words[idx+1] << (64 - off)
	}
	return v & (1<<w - 1)
}

// setField stores v, which fits in w > 0 bits, in the w-bit field starting
// at bit pos of words.
func setField(words []uint64, pos, w uint, v uint64) {
	idx, off := pos>>6, pos&63
	mask := uint64(1)<<w - 1
	words[idx] = words[idx]&^(mask<<off) | v<<off
	if off+w > 64 {
		words[idx+1] = words[idx+1]&^(mask>>(64-off)) | v>>(64-off)
	}
}

// widthFor returns the narrowest chunk width that holds registers of the
// given bit length: 2, 4 or 8 when the algorithm is wider, else the
// algorithm's width.
func (b *Bank) widthFor(bitLen int) uint {
	for w := 2; w <= 8; w *= 2 {
		if bitLen <= w && w < b.width {
			return uint(w)
		}
	}
	return uint(b.width)
}

// chunkRegs returns the registers of chunk c: 128, fewer in the last.
func (s *shard) chunkRegs(c int) int { return min(chunkLen, s.n-c<<chunkShift) }

// get returns local register l. Caller holds the shard's lock.
func (s *shard) get(l int) uint64 {
	loc := s.tab[l>>chunkShift]
	w := uint(loc) & widthMask
	return field(s.words, uint(loc>>offShift)<<6+uint(l&chunkMask)*w, w)
}

// put stores v at local register l, re-packing its chunk wider first if v
// does not fit. Caller holds the shard's lock and has run cow.
func (b *Bank) put(s *shard, l int, v uint64) {
	loc := s.tab[l>>chunkShift]
	w := uint(loc) & widthMask
	if v>>w != 0 {
		loc = b.widen(s, l>>chunkShift, v)
		w = uint(loc) & widthMask
	} else if w == 0 {
		return // a zero in a chunk that has no words yet
	}
	setField(s.words, uint(loc>>offShift)<<6+uint(l&chunkMask)*w, w, v)
}

// chunk returns chunk c's words in the slab and its width. Caller holds
// the shard's lock.
func (s *shard) chunk(c int) ([]uint64, uint) {
	loc := s.tab[c]
	w := uint(loc) & widthMask
	off := int(loc >> offShift)
	return s.words[off : off+packedWords(s.chunkRegs(c), w)], w
}

// widen re-packs chunk c at the narrowest width that holds v and returns
// its new tab entry. The chunk moves to the slab's end unless it is the
// last chunk there, which grows where it lies.
func (b *Bank) widen(s *shard, c int, v uint64) uint32 {
	var regs [chunkLen]uint64
	m := s.chunkRegs(c)
	words, w := s.chunk(c)
	if w != 0 {
		for j := range regs[:m] {
			regs[j] = field(words, uint(j)*w, w)
		}
	}
	loc := s.tab[c]
	s.tab[c] = 0 // no words while it moves, so a compaction leaves it out
	s.live -= len(words)
	if off := int(loc >> offShift); off+len(words) == s.end {
		s.end = off
	}
	w = b.widthFor(bits.Len64(v))
	off := b.room(s, packedWords(m, w))
	s.pack(off, w, regs[:m])
	s.tab[c] = entry(off, w)
	return s.tab[c]
}

// room takes need words at the slab's end for a chunk and returns their
// offset. It compacts first when there is no room, and a mapped slab also
// once its holes have reached 1/compactRatio of the chunks' words: what
// of a mapping a slab never reaches is never resident, while a heap slab
// is all allocated. A heap slab that still has no room grows to the words
// of every chunk at the algorithm's width. Any slab of that size has room
// once compacted: the chunk being placed has no words until it is.
func (b *Bank) room(s *shard, need int) int {
	if holes := s.end - s.live; holes > 0 && (s.end+need > len(s.words) || b.mapped != 0 && holes*compactRatio >= s.live) {
		s.compact(s.words)
	}
	if s.end+need > len(s.words) {
		s.compact(heapWords(s.max))
	}
	off := s.end
	s.end += need
	s.live += need
	s.high = max(s.high, s.end)
	return off
}

// pack writes regs at width w into the slab words from off, which it
// clears first.
func (s *shard) pack(off int, w uint, regs []uint64) {
	words := s.words[off : off+packedWords(len(regs), w)]
	clear(words)
	for j, v := range regs {
		if v != 0 {
			setField(words, uint(j)*w, w, v)
		}
	}
}

// compact moves every chunk that has words, in slab order, to the start of
// dst, closing the holes between them, and makes dst the slab. dst may be
// the slab itself: a chunk only ever moves down.
func (s *shard) compact(dst []uint64) {
	order := make([]int32, 0, len(s.tab))
	for c, loc := range s.tab {
		if loc&widthMask != 0 {
			order = append(order, int32(c))
		}
	}
	slices.SortFunc(order, func(a, c int32) int { return cmp.Compare(s.tab[a], s.tab[c]) })
	end := 0
	for _, c := range order {
		words, w := s.chunk(int(c))
		copy(dst[end:], words)
		s.tab[c] = entry(end, w)
		end += len(words)
	}
	s.words, s.end = dst, end
}

// settle readies a shard's slab for serving: it closes the holes and gives
// every chunk without words its narrowest width, all zero. New lays out a
// fresh shard with it, Restorer.Finish a restored one.
func (b *Bank) settle(s *shard) {
	w := b.widthFor(0)
	zero := 0
	for c, loc := range s.tab {
		if loc&widthMask == 0 {
			zero += packedWords(s.chunkRegs(c), w)
		}
	}
	if s.live+zero > len(s.words) {
		s.compact(heapWords(s.live + zero)) // a restored heap slab; any other fits
	} else if s.end != s.live {
		s.compact(s.words)
	}
	if written := min(s.end+zero, s.high); written > s.end {
		clear(s.words[s.end:written]) // words above the high water are still zero
	}
	for c, loc := range s.tab {
		if loc&widthMask == 0 {
			s.tab[c] = entry(s.end, w)
			s.end += packedWords(s.chunkRegs(c), w)
		}
	}
	s.live = s.end
	s.high = max(s.high, s.end)
}

// SizeBytes returns the bytes of the registers' chunks, summed over
// shards: what the registers occupy at their chunks' widths, holes left by
// widened chunks not included.
func (b *Bank) SizeBytes() int {
	total := 0
	for _, s := range b.shards {
		s.mu.Lock()
		total += 8 * s.live
		s.mu.Unlock()
	}
	return total
}

// MappedBytes returns the bytes of the pages of the registers' mapping
// outside the Go heap (arena.go) that some shard's slab has reached: its
// resident size once they are all written. It is 0 for a bank under
// 4 MiB, and for every bank of a build that keeps registers on the heap.
func (b *Bank) MappedBytes() int {
	if b.mapped == 0 {
		return 0
	}
	page := os.Getpagesize()
	pages, last := 0, -1 // last: the highest page counted
	for _, s := range b.shards {
		s.mu.Lock()
		high := s.high
		s.mu.Unlock()
		if high == 0 {
			continue
		}
		first, end := max(8*s.at/page, last+1), (8*(s.at+high)-1)/page
		if end >= first {
			pages += end - first + 1
			last = end
		}
	}
	return pages * page
}
