package bitpack

import (
	"math/bits"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestWriterReaderRoundTripFixed(t *testing.T) {
	w := NewWriter()
	w.WriteBits(0b101, 3)
	w.WriteBits(0xffff, 16)
	w.WriteBits(0, 5)
	w.WriteBits(1<<63|1, 64)
	w.WriteBool(true)
	w.WriteBool(false)
	if w.Len() != 3+16+5+64+2 {
		t.Fatalf("Len = %d", w.Len())
	}
	r := NewReader(w.Bytes(), w.Len())
	checks := []struct {
		width int
		want  uint64
	}{{3, 0b101}, {16, 0xffff}, {5, 0}, {64, 1<<63 | 1}}
	for i, c := range checks {
		got, err := r.ReadBits(c.width)
		if err != nil {
			t.Fatalf("field %d: %v", i, err)
		}
		if got != c.want {
			t.Fatalf("field %d: got %d want %d", i, got, c.want)
		}
	}
	b1, _ := r.ReadBool()
	b2, _ := r.ReadBool()
	if !b1 || b2 {
		t.Fatalf("bools: %v %v", b1, b2)
	}
	if r.Remaining() != 0 {
		t.Fatalf("Remaining = %d", r.Remaining())
	}
}

func TestReaderPastEnd(t *testing.T) {
	w := NewWriter()
	w.WriteBits(3, 2)
	r := NewReader(w.Bytes(), w.Len())
	if _, err := r.ReadBits(3); err != ErrOutOfBits {
		t.Fatalf("want ErrOutOfBits, got %v", err)
	}
	// The failed read must not consume anything.
	v, err := r.ReadBits(2)
	if err != nil || v != 3 {
		t.Fatalf("after failed read: v=%d err=%v", v, err)
	}
}

func TestWriterPanicsOnOverflowValue(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic writing 4 into 2 bits")
		}
	}()
	NewWriter().WriteBits(4, 2)
}

func TestWriterPanicsOnBadWidth(t *testing.T) {
	for _, width := range []int{-1, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("no panic for width %d", width)
				}
			}()
			NewWriter().WriteBits(0, width)
		}()
	}
}

func TestZeroWidthWrite(t *testing.T) {
	w := NewWriter()
	w.WriteBits(0, 0)
	if w.Len() != 0 {
		t.Fatalf("zero-width write changed length: %d", w.Len())
	}
	r := NewReader(nil, 0)
	if v, err := r.ReadBits(0); err != nil || v != 0 {
		t.Fatalf("zero-width read: %d %v", v, err)
	}
}

func TestUvarintRoundTrip(t *testing.T) {
	values := []uint64{0, 1, 2, 3, 127, 128, 1 << 20, 1<<63 - 1, 1 << 63, ^uint64(0)}
	w := NewWriter()
	for _, v := range values {
		w.WriteUvarint(v)
	}
	r := NewReader(w.Bytes(), w.Len())
	for _, v := range values {
		got, err := r.ReadUvarint()
		if err != nil {
			t.Fatalf("ReadUvarint(%d): %v", v, err)
		}
		if got != v {
			t.Fatalf("uvarint round trip: got %d want %d", got, v)
		}
	}
}

func TestUvarintCost(t *testing.T) {
	// WriteUvarint(v) must cost exactly 2*bits.Len64(v) + 1 bits.
	for _, v := range []uint64{0, 1, 5, 1000, 1 << 40} {
		w := NewWriter()
		w.WriteUvarint(v)
		want := 2*bits.Len64(v) + 1
		if w.Len() != want {
			t.Fatalf("uvarint(%d) cost %d bits, want %d", v, w.Len(), want)
		}
	}
}

func TestWriterReset(t *testing.T) {
	w := NewWriter()
	w.WriteBits(0xdead, 16)
	w.Reset()
	if w.Len() != 0 {
		t.Fatalf("Len after reset = %d", w.Len())
	}
	w.WriteBits(0xbeef, 16)
	r := NewReader(w.Bytes(), w.Len())
	v, err := r.ReadBits(16)
	if err != nil || v != 0xbeef {
		t.Fatalf("after reset: %x %v", v, err)
	}
}

func TestReaderWordsEquivalentToBytes(t *testing.T) {
	w := NewWriter()
	for i := 0; i < 100; i++ {
		w.WriteBits(uint64(i*7)%64, 6)
	}
	rb := NewReader(w.Bytes(), w.Len())
	rw := NewReaderWords(w.Words(), w.Len())
	for i := 0; i < 100; i++ {
		a, errA := rb.ReadBits(6)
		b, errB := rw.ReadBits(6)
		if errA != nil || errB != nil || a != b {
			t.Fatalf("readers diverged at %d: %d(%v) vs %d(%v)", i, a, errA, b, errB)
		}
	}
}

func TestQuickWriterReaderRoundTrip(t *testing.T) {
	r := xrand.NewSeeded(99)
	f := func(n uint8) bool {
		type field struct {
			v     uint64
			width int
		}
		fields := make([]field, int(n)%40+1)
		w := NewWriter()
		for i := range fields {
			width := 1 + r.Intn(64)
			v := r.Uint64()
			if width < 64 {
				v &= (1 << uint(width)) - 1
			}
			fields[i] = field{v, width}
			w.WriteBits(v, width)
		}
		rd := NewReader(w.Bytes(), w.Len())
		for _, f := range fields {
			got, err := rd.ReadBits(f.width)
			if err != nil || got != f.v {
				return false
			}
		}
		return rd.Remaining() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestArrayBasic(t *testing.T) {
	a := NewArray(100, 7)
	for i := 0; i < 100; i++ {
		a.Set(i, uint64(i)%128)
	}
	for i := 0; i < 100; i++ {
		if got := a.Get(i); got != uint64(i)%128 {
			t.Fatalf("Get(%d) = %d", i, got)
		}
	}
	if a.Len() != 100 || a.Width() != 7 {
		t.Fatalf("Len/Width = %d/%d", a.Len(), a.Width())
	}
	if a.Max() != 127 {
		t.Fatalf("Max = %d", a.Max())
	}
}

func TestArraySizeIsPacked(t *testing.T) {
	a := NewArray(1000, 17)
	wantWords := (1000*17 + 63) / 64
	if a.SizeBytes() != wantWords*8 {
		t.Fatalf("SizeBytes = %d, want %d", a.SizeBytes(), wantWords*8)
	}
	// A packed array of 17-bit fields must be well under 1/3 the footprint
	// of a []uint64 of the same length.
	if a.SizeBytes()*3 > 1000*8 {
		t.Fatalf("array not actually packed: %d bytes", a.SizeBytes())
	}
}

func TestArrayNeighborIsolation(t *testing.T) {
	// Writing one field must never disturb its neighbors, including across
	// word boundaries (width 13 guarantees frequent straddles).
	a := NewArray(200, 13)
	r := xrand.NewSeeded(5)
	ref := make([]uint64, 200)
	for iter := 0; iter < 5000; iter++ {
		i := r.Intn(200)
		v := r.Uint64n(1 << 13)
		a.Set(i, v)
		ref[i] = v
	}
	for i, want := range ref {
		if got := a.Get(i); got != want {
			t.Fatalf("slot %d corrupted: got %d want %d", i, got, want)
		}
	}
}

func TestArrayWidth64(t *testing.T) {
	a := NewArray(10, 64)
	a.Set(3, ^uint64(0))
	a.Set(4, 12345)
	if a.Get(3) != ^uint64(0) || a.Get(4) != 12345 {
		t.Fatal("64-bit fields corrupted")
	}
	if a.Max() != ^uint64(0) {
		t.Fatalf("Max = %d", a.Max())
	}
}

func TestArrayPanics(t *testing.T) {
	a := NewArray(4, 3)
	cases := []func(){
		func() { a.Get(-1) },
		func() { a.Get(4) },
		func() { a.Set(4, 0) },
		func() { a.Set(0, 8) },
		func() { NewArray(-1, 3) },
		func() { NewArray(4, 0) },
		func() { NewArray(4, 65) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestQuickArrayRandomAccess(t *testing.T) {
	r := xrand.NewSeeded(6)
	f := func(widthSeed, lenSeed uint8) bool {
		width := int(widthSeed)%64 + 1
		n := int(lenSeed)%100 + 1
		a := NewArray(n, width)
		ref := make([]uint64, n)
		for iter := 0; iter < 200; iter++ {
			i := r.Intn(n)
			v := r.Uint64()
			if width < 64 {
				v &= (1 << uint(width)) - 1
			}
			a.Set(i, v)
			ref[i] = v
		}
		for i := range ref {
			if a.Get(i) != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
