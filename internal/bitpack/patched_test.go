package bitpack

import (
	"bytes"
	"errors"
	"math/bits"
	"testing"

	"repro/internal/xrand"
)

// patchedBlocks returns blocks of every length 0..MaxPatchedBlock in shapes
// the coder sees: all zero, one width, a skewed tail with rare wide values
// (the exception path), full 64-bit values, and gap runs with zeros.
func patchedBlocks() [][]uint64 {
	rng := xrand.NewSeeded(11)
	var out [][]uint64
	for n := 0; n <= MaxPatchedBlock; n += 1 + n/16 {
		for shape := 0; shape < 5; shape++ {
			vals := make([]uint64, n)
			for i := range vals {
				r := rng.Uint64()
				switch shape {
				case 1:
					vals[i] = r & 0x1f
				case 2:
					if r%16 == 0 {
						vals[i] = r >> (r % 40)
					} else {
						vals[i] = r % 4
					}
				case 3:
					vals[i] = r
				case 4:
					if r%3 != 0 {
						vals[i] = r >> (50 + r%14)
					}
				}
			}
			out = append(out, vals)
		}
	}
	return out
}

// Every block decodes to its values, consumes exactly its own bytes, stays
// within MaxPatchedLen, and costs the minimum over all base widths.
func TestPatchedRoundTrip(t *testing.T) {
	trailer := []byte{0xde, 0xad}
	for bi, vals := range patchedBlocks() {
		enc := AppendPatched([]byte{0x55}, vals)[1:]
		if len(enc) > MaxPatchedLen(len(vals)) {
			t.Fatalf("block %d: %d bytes exceed MaxPatchedLen(%d)", bi, len(enc), len(vals))
		}
		maxw := 0
		for _, v := range vals {
			maxw = max(maxw, bits.Len64(v))
		}
		best := patchedCost(len(vals), maxw, maxw, 0)
		for b := 0; b < maxw; b++ {
			ex := 0
			for _, v := range vals {
				if bits.Len64(v) > b {
					ex++
				}
			}
			best = min(best, patchedCost(len(vals), b, maxw, ex))
		}
		if len(enc) != best {
			t.Fatalf("block %d: %d bytes, cheapest base width costs %d", bi, len(enc), best)
		}
		got := make([]uint64, len(vals))
		rest, err := ReadPatched(append(bytes.Clone(enc), trailer...), got)
		if err != nil {
			t.Fatalf("block %d: %v", bi, err)
		}
		if !bytes.Equal(rest, trailer) {
			t.Fatalf("block %d: left %x, want the trailer", bi, rest)
		}
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("block %d value %d: got %d, want %d", bi, i, got[i], vals[i])
			}
		}
		for cut := 0; cut < len(enc); cut++ {
			if _, err := ReadPatched(enc[:cut], got); err == nil {
				t.Fatalf("block %d cut to %d of %d bytes decoded", bi, cut, len(enc))
			}
		}
	}
}

func TestReadPatchedRejectsMalformedHeaders(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  []byte
		cnt  int
	}{
		{"empty", nil, 4},
		{"base width 65", []byte{65, 0}, 1},
		{"more exceptions than values", []byte{1, 3, 1, 0, 0, 1, 2, 0}, 2},
		{"exception width 0", []byte{1, 1, 0, 0, 0, 0}, 2},
		{"exception width past 64", []byte{60, 1, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 1},
		{"exception position outside the block", []byte{0, 1, 1, 2, 1}, 2},
		{"missing exception width", []byte{0, 1}, 2},
	} {
		out := make([]uint64, tc.cnt)
		if _, err := ReadPatched(tc.src, out); err == nil {
			t.Errorf("%s: decoded", tc.name)
		} else if tc.name == "empty" && !errors.Is(err, ErrOutOfBits) {
			t.Errorf("%s: %v, want ErrOutOfBits", tc.name, err)
		}
	}
}
