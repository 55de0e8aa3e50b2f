package bitpack

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// MaxPatchedBlock is the most values one patched block may hold: exception
// positions are one byte each.
const MaxPatchedBlock = 256

// MaxPatchedLen bounds the bytes AppendPatched appends for n values: a
// 3-byte header, at most 64 bits per value split between the base payload
// and the exception high bits (plus one byte of rounding), and one
// position byte per exception.
func MaxPatchedLen(n int) int { return 4 + 9*n }

// AppendPatched appends vals as one patched block — FastPFOR-style patched
// binary packing (docs/FORMAT.md, "Register block"):
//
//	b | E | [eW, iff E > 0] | low b bits of every value |
//	[E exception positions | E high parts of eW bits, iff E > 0]
//
// The base width b is chosen by exact cost minimisation over the block's
// bit-length histogram; a value whose bit length exceeds b keeps its low b
// bits in the base payload and ships v>>b through the exception list. An
// all-zero block costs two bytes. len(vals) must not exceed
// MaxPatchedBlock.
func AppendPatched(dst []byte, vals []uint64) []byte {
	cnt := len(vals)
	if cnt > MaxPatchedBlock {
		panic("bitpack: patched block longer than MaxPatchedBlock")
	}
	// One pass: every value's bit length, their histogram — striped over
	// four tables so runs of equal lengths (a Zipf batch's zero gaps) do
	// not serialise on one counter — and the block maximum. i <
	// MaxPatchedBlock, so the index masks only spare bounds checks.
	var lens [MaxPatchedBlock]uint8
	var hist [4][65]uint8
	var or uint64
	i := 0
	for ; i+4 <= cnt; i += 4 {
		v0, v1, v2, v3 := vals[i], vals[i+1], vals[i+2], vals[i+3]
		l0, l1, l2, l3 := bits.Len64(v0), bits.Len64(v1), bits.Len64(v2), bits.Len64(v3)
		hist[0][l0]++
		hist[1][l1]++
		hist[2][l2]++
		hist[3][l3]++
		binary.LittleEndian.PutUint32(lens[i&(MaxPatchedBlock-4):], uint32(l0)|uint32(l1)<<8|uint32(l2)<<16|uint32(l3)<<24)
		or |= v0 | v1 | v2 | v3
	}
	for ; i < cnt; i++ {
		l := bits.Len64(vals[i])
		hist[0][l]++
		lens[i&(MaxPatchedBlock-1)] = uint8(l)
		or |= vals[i]
	}
	maxw := bits.Len64(or)
	// exceeding[b] = number of values with bit length > b.
	var exceeding [65]int
	for b := maxw - 1; b >= 0; b-- {
		exceeding[b] = exceeding[b+1] + int(hist[0][b+1]) + int(hist[1][b+1]) + int(hist[2][b+1]) + int(hist[3][b+1])
	}
	// The tie rule (maxw unless strictly beaten, else the smallest b) is
	// part of the byte format the snapshot pins hold.
	b, bestCost := maxw, patchedCost(cnt, maxw, maxw, 0)
	for w := 0; w < maxw; w++ {
		if c := patchedCost(cnt, w, maxw, exceeding[w]); c < bestCost {
			b, bestCost = w, c
		}
	}
	ex := exceeding[b]
	eW := uint(maxw - b)

	dst = append(dst, byte(b), byte(ex))
	if ex == 0 {
		return pack(dst, vals, uint(b))
	}
	dst = append(dst, byte(eW))
	dst = pack(dst, vals, uint(b))
	// Find the exceptions eight lengths at a time: a length byte l > b
	// (both ≤ 64) is exactly one whose l + 127 − b reaches the byte's top
	// bit, with no carry into the next byte. Positions go to their
	// reserved bytes as the high parts are packed behind them. Here
	// b < maxw ≤ 64, so the shift mask only spares the overflow check.
	at := len(dst)
	w := bitWriter{dst: slices.Grow(dst, ex)[:at+ex]}
	add := uint64(127-b) * 0x0101010101010101
	for base := 0; base < cnt; base += 8 {
		m := (binary.LittleEndian.Uint64(lens[base:]) + add) & 0x8080808080808080
		for ; m != 0; m &= m - 1 {
			p := base + bits.TrailingZeros64(m)>>3
			w.dst[at] = byte(p)
			at++
			w.put(vals[p]>>(uint(b)&63), eW)
		}
	}
	return w.flush()
}

// patchedCost returns the encoded byte size of a block of cnt values packed
// at base width b with ex exceptions of width maxw−b.
func patchedCost(cnt, b, maxw, ex int) int {
	cost := 2 + (cnt*b+7)/8
	if ex > 0 {
		cost += 1 + ex + (ex*(maxw-b)+7)/8
	}
	return cost
}

// pack appends the low w bits of every value, LSB-first within bytes.
func pack(dst []byte, vals []uint64, w uint) []byte {
	if w == 0 {
		return dst
	}
	mask := ^uint64(0) >> (64 - w)
	bw := bitWriter{dst: dst}
	for _, v := range vals {
		bw.put(v&mask, w)
	}
	return bw.flush()
}

// bitWriter appends fields to dst LSB-first, a 64-bit word at a time.
type bitWriter struct {
	dst []byte
	acc uint64 // pending bits
	n   uint   // pending bit count, < 64
}

// put appends the field f of width w (f < 2^w, 1 ≤ w ≤ 64).
func (bw *bitWriter) put(f uint64, w uint) {
	bw.acc |= f << (bw.n & 63)
	if bw.n+w < 64 {
		bw.n += w
		return
	}
	bw.dst = binary.LittleEndian.AppendUint64(bw.dst, bw.acc)
	bw.acc = f >> (64 - bw.n) // 0 when n == 0 (Go shift semantics)
	bw.n += w - 64
}

// flush appends the ⌈n/8⌉ pending bytes and returns the stream.
func (bw *bitWriter) flush() []byte {
	for ; bw.n > 0; bw.n -= min(bw.n, 8) {
		bw.dst = append(bw.dst, byte(bw.acc))
		bw.acc >>= 8
	}
	return bw.dst
}

// ReadPatched decodes one block written by AppendPatched into out, whose
// length is the block's value count (at most MaxPatchedBlock), and returns
// the bytes after the block. A block that runs past src fails with
// ErrOutOfBits; a header no encoder writes — b > 64, more exceptions than
// values, an exception width outside [1, 64−b], a position outside the
// block — fails with a descriptive error. Nothing is allocated.
func ReadPatched(src []byte, out []uint64) ([]byte, error) {
	cnt := len(out)
	if len(src) < 2 {
		return nil, ErrOutOfBits
	}
	b, ex := uint(src[0]), int(src[1])
	src = src[2:]
	if b > 64 {
		return nil, fmt.Errorf("bitpack: block base width %d exceeds 64", b)
	}
	if ex > cnt {
		return nil, fmt.Errorf("bitpack: block has %d exceptions for %d values", ex, cnt)
	}
	var eW uint
	if ex > 0 {
		if len(src) < 1 {
			return nil, ErrOutOfBits
		}
		eW = uint(src[0])
		src = src[1:]
		if eW < 1 || b+eW > 64 {
			return nil, fmt.Errorf("bitpack: block exception width %d invalid for base %d", eW, b)
		}
	}
	nbytes := (cnt*int(b) + 7) / 8
	if len(src) < nbytes {
		return nil, ErrOutOfBits
	}
	// The unpackers read the bytes after a field too (and mask them off),
	// so they get all of src: whole 8-byte loads reach the block's end.
	unpack(out, src, b)
	src = src[nbytes:]
	if ex == 0 {
		return src, nil
	}
	hbytes := (ex*int(eW) + 7) / 8
	if len(src) < ex+hbytes {
		return nil, ErrOutOfBits
	}
	pos, highs := src[:ex], src[ex:]
	mask := ^uint64(0) >> (64 - eW)
	for i, p := range pos {
		if int(p) >= cnt {
			return nil, fmt.Errorf("bitpack: block exception position %d out of range [0, %d)", p, cnt)
		}
		out[p] |= field(highs, uint(i)*eW, eW, mask) << b
	}
	return src[ex+hbytes:], nil
}

// unpack fills out with len(out) w-bit fields from the start of src,
// LSB-first.
func unpack(out []uint64, src []byte, w uint) {
	if w == 0 {
		clear(out)
		return
	}
	mask := ^uint64(0) >> (64 - w)
	pos := uint(0)
	i := 0
	if w <= 56 {
		// A field of ≤ 56 bits at bit offset ≤ 7 lies inside the 8 bytes
		// at its first byte: one load while 8 bytes remain.
		for ; i < len(out) && int(pos>>3)+8 <= len(src); i++ {
			out[i] = binary.LittleEndian.Uint64(src[pos>>3:]) >> (pos & 7) & mask
			pos += w
		}
	}
	for ; i < len(out); i++ {
		out[i] = field(src, pos, w, mask)
		pos += w
	}
}

// field returns the w-bit field at bit offset pos of src. A field spans at
// most 9 bytes (offset ≤ 7, w ≤ 64): it is gathered as one 8-byte
// little-endian word plus, when it straddles past that word, the ninth byte.
func field(src []byte, pos, w uint, mask uint64) uint64 {
	idx := int(pos >> 3)
	off := pos & 7
	v := le64pad(src, idx) >> off
	if off+w > 64 && idx+8 < len(src) {
		v |= uint64(src[idx+8]) << (64 - off)
	}
	return v & mask
}

// le64pad reads 8 little-endian bytes at idx, zero-padding past the end of
// src.
func le64pad(src []byte, idx int) uint64 {
	if idx+8 <= len(src) {
		return binary.LittleEndian.Uint64(src[idx:])
	}
	var v uint64
	for j := 0; idx+j < len(src); j++ {
		v |= uint64(src[idx+j]) << uint(8*j)
	}
	return v
}
