package snapcodec

import (
	"bytes"
	"testing"

	"repro/internal/bank"
	"repro/internal/xrand"
)

func TestDeltaRoundTripAndApply(t *testing.T) {
	alg := bank.NewMorrisAlg(0.005, 14)
	for _, n := range []int{1, 127, 128, 129, 1000, 4096} {
		base := testSnapshot(t, zipfRegisters(n, 1e5, 1.05, 0.005, 14), alg, 8, false)
		full := testSnapshot(t, append([]uint64(nil), base.Registers...), alg, 8, false)
		// Mutate a scattered set of registers and record the touched blocks.
		touched := map[uint32]bool{}
		for _, k := range []int{0, n / 3, n / 2, n - 1} {
			full.Registers[k]++
			touched[uint32(k/BlockLen)] = true
		}
		blocks := make([]uint32, 0, len(touched))
		for b := 0; b < NumBlocks(n); b++ {
			if touched[uint32(b)] {
				blocks = append(blocks, uint32(b))
			}
		}
		d, err := MakeDelta(full, 7, blocks)
		if err != nil {
			t.Fatalf("n=%d: MakeDelta: %v", n, err)
		}
		data, err := Encode(d)
		if err != nil {
			t.Fatalf("n=%d: encode delta: %v", n, err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("n=%d: decode delta: %v", n, err)
		}
		if !got.IsDelta() || got.DeltaBase != 7 || got.DeltaRegs != n {
			t.Fatalf("n=%d: decoded delta header %+v", n, got)
		}
		// Applying the decoded delta onto the base reproduces the mutated
		// full snapshot, byte-identically under re-encode.
		if err := ApplyDelta(base, got); err != nil {
			t.Fatalf("n=%d: ApplyDelta: %v", n, err)
		}
		wantBytes, err := Encode(full)
		if err != nil {
			t.Fatal(err)
		}
		gotBytes, err := Encode(base)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBytes, wantBytes) {
			t.Fatalf("n=%d: delta-reconstructed snapshot re-encodes differently", n)
		}
	}
}

func TestMaterializeDelta(t *testing.T) {
	alg := bank.NewCsurosAlg(16, 10)
	full := testSnapshot(t, zipfRegisters(1000, 1e5, 1.05, 0.005, 16), alg, 8, false)
	baseRegs := append([]uint64(nil), full.Registers...)
	for _, k := range []int{5, 200, 999} {
		full.Registers[k] += 3
	}
	d, err := MakeDelta(full, 0, []uint32{0, 1, 7})
	if err != nil {
		t.Fatal(err)
	}
	// Materializing against a base with a different seed succeeds — the
	// result's header, including the seed, is the delta's.
	got, err := MaterializeDelta(d, RegisterSlice(baseRegs))
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != full.Seed || got.IsDelta() {
		t.Fatalf("materialized header: seed=%d delta=%v", got.Seed, got.IsDelta())
	}
	for i, v := range full.Registers {
		if got.Registers[i] != v {
			t.Fatalf("register %d = %d, want %d", i, got.Registers[i], v)
		}
	}
	// The base slice is copied, never aliased.
	got.Registers[0] = 1 << 60
	if baseRegs[0] == 1<<60 {
		t.Fatal("MaterializeDelta aliased the caller's base registers")
	}
	if _, err := MaterializeDelta(d, RegisterSlice(baseRegs[:999])); err == nil {
		t.Fatal("short base accepted")
	}
	if _, err := MaterializeDelta(full, RegisterSlice(baseRegs)); err == nil {
		t.Fatal("non-delta snapshot accepted")
	}
}

func TestDeltaValidation(t *testing.T) {
	alg := bank.NewExactAlg(16)
	full := testSnapshot(t, make([]uint64, 1000), alg, 4, false)
	if _, err := MakeDelta(full, 0, []uint32{3, 3}); err == nil {
		t.Fatal("duplicate block list accepted")
	}
	if _, err := MakeDelta(full, 0, []uint32{2, 1}); err == nil {
		t.Fatal("descending block list accepted")
	}
	if _, err := MakeDelta(full, 0, []uint32{uint32(NumBlocks(1000))}); err == nil {
		t.Fatal("out-of-range block accepted")
	}
	d, err := MakeDelta(full, 0, []uint32{1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MakeDelta(d, 0, nil); err == nil {
		t.Fatal("delta of a delta accepted")
	}
	other := testSnapshot(t, make([]uint64, 1000), alg, 4, false)
	other.Seed = 99
	if err := ApplyDelta(other, d); err == nil {
		t.Fatal("seed mismatch accepted by ApplyDelta")
	}
	short := testSnapshot(t, make([]uint64, 999), alg, 4, false)
	short.N = 1000 // identity matches; register section does not
	if err := ApplyDelta(short, d); err == nil {
		t.Fatal("short base accepted by ApplyDelta")
	}
	// Zero-block deltas are legal: payload/rng still ride them.
	empty, err := MakeDelta(full, 3, nil)
	if err != nil {
		t.Fatalf("zero-block delta: %v", err)
	}
	data, err := Encode(empty)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsDelta() || len(got.DeltaBlocks) != 0 || len(got.Registers) != 0 {
		t.Fatalf("zero-block delta decoded as %+v", got)
	}
}

// FuzzDeltaSnapshot drives the delta lifecycle from fuzzer-chosen shapes:
// build a full snapshot, mutate keys, cut a delta, encode, decode, apply —
// the reconstruction must be byte-identical to the mutated full snapshot,
// and no stage may panic. Raw decode of mutated delta bytes is covered by
// FuzzDecodeNeverPanics; this target owns the semantic round trip.
func FuzzDeltaSnapshot(f *testing.F) {
	f.Add(uint16(1000), uint64(1), uint8(3))
	f.Add(uint16(128), uint64(99), uint8(0))
	f.Add(uint16(1), uint64(0), uint8(255))
	f.Fuzz(func(t *testing.T, n16 uint16, seed uint64, mutations uint8) {
		n := int(n16)
		if n == 0 {
			return
		}
		alg := bank.NewExactAlg(16)
		rng := xrand.New(seed)
		regs := make([]uint64, n)
		for i := range regs {
			regs[i] = rng.Uint64() & 0xffff
		}
		base := testSnapshot(t, regs, alg, 4, false)
		full := testSnapshot(t, append([]uint64(nil), regs...), alg, 4, false)
		touched := map[uint32]bool{}
		for i := 0; i < int(mutations); i++ {
			k := int(rng.Uint64() % uint64(n))
			full.Registers[k] = (full.Registers[k] + 1) & 0xffff
			touched[uint32(k/BlockLen)] = true
		}
		blocks := make([]uint32, 0, len(touched))
		for b := 0; b < NumBlocks(n); b++ {
			if touched[uint32(b)] {
				blocks = append(blocks, uint32(b))
			}
		}
		d, err := MakeDelta(full, seed, blocks)
		if err != nil {
			t.Fatalf("MakeDelta: %v", err)
		}
		data, err := Encode(d)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		mat, err := MaterializeDelta(got, base.Regs())
		if err != nil {
			t.Fatalf("materialize: %v", err)
		}
		if err := ApplyDelta(base, got); err != nil {
			t.Fatalf("apply: %v", err)
		}
		for i := range full.Registers {
			if base.Registers[i] != full.Registers[i] || mat.Registers[i] != full.Registers[i] {
				t.Fatalf("register %d: apply=%d materialize=%d want %d",
					i, base.Registers[i], mat.Registers[i], full.Registers[i])
			}
		}
		wantBytes, err := Encode(full)
		if err != nil {
			t.Fatal(err)
		}
		gotBytes, err := Encode(base)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBytes, wantBytes) {
			t.Fatal("delta reconstruction re-encodes differently from the full snapshot")
		}
	})
}
