// Package bitpack provides bit-granular storage: a Writer/Reader pair for
// variable-width serialization and a fixed-width packed Array.
//
// The whole point of the paper is that a counter's *state* fits in far fewer
// bits than a machine word. To make that claim operational rather than
// rhetorical, every counter in this repository can serialize its state
// through a bitpack.Writer, and the sharded bank (internal/shardbank) stores
// millions of counters physically packed in bitpack.Arrays, so the reported
// memory numbers are real bytes, not bookkeeping.
package bitpack

import (
	"errors"
	"fmt"
	"math/bits"
)

// ErrOutOfBits is returned by Reader methods when the requested field runs
// past the end of the underlying buffer.
var ErrOutOfBits = errors.New("bitpack: read past end of buffer")

// Writer appends bit fields to a growing buffer, least significant bit of
// each field first, packed with no padding.
type Writer struct {
	buf  []uint64
	nbit int
}

// NewWriter returns an empty Writer.
func NewWriter() *Writer { return &Writer{} }

// WriteBits appends the low width bits of v. width must be in [0, 64];
// anything else panics, as does a v with bits set above width (that is
// always a caller bug, and masking silently would corrupt counter state).
func (w *Writer) WriteBits(v uint64, width int) {
	if width < 0 || width > 64 {
		panic(fmt.Sprintf("bitpack: invalid width %d", width))
	}
	if width < 64 && v>>uint(width) != 0 {
		panic(fmt.Sprintf("bitpack: value %d does not fit in %d bits", v, width))
	}
	if width == 0 {
		return
	}
	off := w.nbit & 63
	idx := w.nbit >> 6
	for idx >= len(w.buf) {
		w.buf = append(w.buf, 0)
	}
	w.buf[idx] |= v << uint(off)
	if off+width > 64 {
		w.buf = append(w.buf, v>>uint(64-off))
	}
	w.nbit += width
}

// WriteBool appends a single bit.
func (w *Writer) WriteBool(b bool) {
	var v uint64
	if b {
		v = 1
	}
	w.WriteBits(v, 1)
}

// WriteUvarint appends v in a self-delimiting form: a unary-coded length
// (⌈log2(v+1)⌉ written as that many 1 bits and a 0) followed by the value
// bits. Costs 2⌈log2(v+1)⌉ + 1 bits — within a factor 2 of optimal, and
// crucially it lets a reader recover a field whose width was not known in
// advance (e.g. the Morris X whose width is itself the quantity under study).
func (w *Writer) WriteUvarint(v uint64) {
	n := bits.Len64(v)
	for i := 0; i < n; i++ {
		w.WriteBool(true)
	}
	w.WriteBool(false)
	w.WriteBits(v, n)
}

// Len reports the number of bits written.
func (w *Writer) Len() int { return w.nbit }

// Bytes returns the packed buffer, zero-padded to a whole byte count.
func (w *Writer) Bytes() []byte {
	out := make([]byte, (w.nbit+7)/8)
	for i := range out {
		word := w.buf[i/8]
		out[i] = byte(word >> uint(8*(i%8)))
	}
	return out
}

// Words returns the underlying packed words (shared, do not mutate).
func (w *Writer) Words() []uint64 { return w.buf }

// Reset empties the writer for reuse.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.nbit = 0
}

// Reader consumes bit fields previously produced by a Writer.
type Reader struct {
	buf  []uint64
	nbit int // total valid bits
	pos  int
}

// NewReader returns a Reader over nbit valid bits of bytes.
func NewReader(data []byte, nbit int) *Reader {
	words := make([]uint64, (len(data)+7)/8)
	for i, b := range data {
		words[i/8] |= uint64(b) << uint(8*(i%8))
	}
	if nbit > len(data)*8 {
		nbit = len(data) * 8
	}
	return &Reader{buf: words, nbit: nbit}
}

// NewReaderWords returns a Reader over nbit valid bits of words.
func NewReaderWords(words []uint64, nbit int) *Reader {
	if nbit > len(words)*64 {
		nbit = len(words) * 64
	}
	return &Reader{buf: words, nbit: nbit}
}

// ReadBits consumes and returns the next width bits.
func (r *Reader) ReadBits(width int) (uint64, error) {
	if width < 0 || width > 64 {
		return 0, fmt.Errorf("bitpack: invalid width %d", width)
	}
	if width == 0 {
		return 0, nil
	}
	if r.pos+width > r.nbit {
		return 0, ErrOutOfBits
	}
	off := r.pos & 63
	idx := r.pos >> 6
	v := r.buf[idx] >> uint(off)
	if off+width > 64 {
		v |= r.buf[idx+1] << uint(64-off)
	}
	if width < 64 {
		v &= (1 << uint(width)) - 1
	}
	r.pos += width
	return v, nil
}

// ReadBool consumes one bit.
func (r *Reader) ReadBool() (bool, error) {
	v, err := r.ReadBits(1)
	return v == 1, err
}

// ReadUvarint consumes a value written by WriteUvarint.
func (r *Reader) ReadUvarint() (uint64, error) {
	n := 0
	for {
		b, err := r.ReadBool()
		if err != nil {
			return 0, err
		}
		if !b {
			break
		}
		n++
		if n > 64 {
			return 0, errors.New("bitpack: uvarint length prefix exceeds 64")
		}
	}
	return r.ReadBits(n)
}

// Remaining reports how many unread bits are left.
func (r *Reader) Remaining() int { return r.nbit - r.pos }

// Array is a fixed-width packed array of n unsigned fields of width bits
// each, stored contiguously with no per-element padding. Total footprint is
// ⌈n·width/64⌉ machine words. It is the physical home of the engines'
// bucket-ring registers.
type Array struct {
	words []uint64
	n     int
	width int
}

// NewArray allocates an Array of n fields of the given bit width (1..64).
// One extra word beyond the ⌈n·width/64⌉ payload is allocated so Get and
// Set can touch words[idx+1] unconditionally (see below); it never holds
// field bits and is excluded from SizeBytes.
func NewArray(n, width int) *Array {
	if n < 0 {
		panic("bitpack: negative array length")
	}
	if width < 1 || width > 64 {
		panic(fmt.Sprintf("bitpack: invalid field width %d", width))
	}
	return &Array{words: make([]uint64, (n*width+63)/64+1), n: n, width: width}
}

// Len returns the number of fields.
func (a *Array) Len() int { return a.n }

// Width returns the per-field width in bits.
func (a *Array) Width() int { return a.width }

// SizeBytes returns the physical footprint of the packed payload,
// ⌈n·width/64⌉ words (the internal pad word is not payload).
func (a *Array) SizeBytes() int { return (a.n*a.width + 63) / 64 * 8 }

// Get returns field i.
//
// Get and Set are the per-increment hot path of every counter bank, so both
// are written to stay within the compiler's inlining budget: constant panic
// strings (no fmt), and branchless word handling — thanks to the trailing
// pad word they always read/write words[idx+1], relying on Go's defined
// shift semantics (x>>s and x<<s are 0 for s ≥ 64) to make the second word
// a no-op when the field does not cross a boundary.
func (a *Array) Get(i int) uint64 {
	if uint(i) >= uint(a.n) {
		panic("bitpack: array index out of range")
	}
	mask := ^uint64(0) >> uint(64-a.width)
	pos := i * a.width
	off := uint(pos & 63)
	idx := pos >> 6
	return (a.words[idx]>>off | a.words[idx+1]<<(64-off)) & mask
}

// Set stores v into field i. v must fit in the field width.
func (a *Array) Set(i int, v uint64) {
	if uint(i) >= uint(a.n) {
		panic("bitpack: array index out of range")
	}
	mask := ^uint64(0) >> uint(64-a.width)
	if v&^mask != 0 {
		panic("bitpack: value does not fit in field width")
	}
	pos := i * a.width
	off := uint(pos & 63)
	idx := pos >> 6
	a.words[idx] = a.words[idx]&^(mask<<off) | v<<off
	a.words[idx+1] = a.words[idx+1]&^(mask>>(64-off)) | v>>(64-off)
}

// Words returns the Array's backing words (shared, including the trailing
// pad word — see NewArray). It exists for expert packed hot loops that fuse
// field addressing across a read-modify-write (see internal/shardbank);
// such callers take over the coherence obligations Get/Set normally
// enforce: field bounds, value width, and synchronization.
func (a *Array) Words() []uint64 { return a.words }

// Max returns the largest value a field can hold.
func (a *Array) Max() uint64 {
	if a.width == 64 {
		return ^uint64(0)
	}
	return (1 << uint(a.width)) - 1
}
