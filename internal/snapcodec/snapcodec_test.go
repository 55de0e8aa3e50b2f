package snapcodec

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"

	"repro/internal/bank"
	"repro/internal/xrand"
)

// morrisReg returns the (deterministic) expected Morris register for a true
// count c under base a, capped at width bits — a cheap way to synthesize a
// realistic register distribution without running millions of increments.
func morrisReg(c float64, a float64, width int) uint64 {
	if c <= 0 {
		return 0
	}
	r := uint64(math.Log1p(c*a) / math.Log1p(a))
	if lim := uint64(1)<<uint(width) - 1; r > lim {
		r = lim
	}
	return r
}

// zipfRegisters synthesizes the register vector of an n-key bank that
// absorbed `events` total events under a Zipf(s) popularity law, key 0
// hottest.
func zipfRegisters(n int, events float64, s, a float64, width int) []uint64 {
	h := 0.0
	for i := 1; i <= n; i++ {
		h += math.Pow(float64(i), -s)
	}
	regs := make([]uint64, n)
	for i := range regs {
		c := events * math.Pow(float64(i+1), -s) / h
		regs[i] = morrisReg(c, a, width)
	}
	return regs
}

func testSnapshot(t *testing.T, regs []uint64, alg bank.Algorithm, shards int, withRNG bool) *Snapshot {
	t.Helper()
	s := &Snapshot{N: len(regs), Shards: shards, Seed: 42, Registers: regs}
	if err := s.SetAlg(alg); err != nil {
		t.Fatalf("SetAlg: %v", err)
	}
	if withRNG {
		s.RNG = make([][4]uint64, shards)
		rng := xrand.New(7)
		for i := range s.RNG {
			s.RNG[i] = [4]uint64{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()}
		}
	}
	return s
}

func assertEqual(t *testing.T, got, want *Snapshot) {
	t.Helper()
	if got.AlgName != want.AlgName || got.Width != want.Width ||
		got.Param != want.Param ||
		got.N != want.N || got.Shards != want.Shards || got.Seed != want.Seed {
		t.Fatalf("header mismatch: got %+v want %+v", got, want)
	}
	if len(got.Registers) != len(want.Registers) {
		t.Fatalf("register count %d, want %d", len(got.Registers), len(want.Registers))
	}
	for i := range want.Registers {
		if got.Registers[i] != want.Registers[i] {
			t.Fatalf("register %d = %d, want %d", i, got.Registers[i], want.Registers[i])
		}
	}
	if got.Partition != want.Partition || got.Parts != want.Parts {
		t.Fatalf("partition mismatch: got %d/%d want %d/%d",
			got.Partition, got.Parts, want.Partition, want.Parts)
	}
	if (got.RNG == nil) != (want.RNG == nil) || len(got.RNG) != len(want.RNG) {
		t.Fatalf("rng presence mismatch: %d vs %d streams", len(got.RNG), len(want.RNG))
	}
	for i := range want.RNG {
		if got.RNG[i] != want.RNG[i] {
			t.Fatalf("rng stream %d mismatch", i)
		}
	}
}

func TestRoundTripShapes(t *testing.T) {
	rng := xrand.NewSeeded(3)
	algs := []bank.Algorithm{
		bank.NewMorrisAlg(0.005, 14),
		bank.NewCsurosAlg(16, 10),
		bank.NewExactAlg(8),
		bank.NewMorrisAlg(1, 1), // extreme: 1-bit registers
	}
	for _, alg := range algs {
		for _, n := range []int{0, 1, 127, 128, 129, 1000, 4096} {
			for _, withRNG := range []bool{false, true} {
				regs := make([]uint64, n)
				lim := uint64(1)<<uint(alg.Width()) - 1
				for i := range regs {
					regs[i] = rng.Uint64() % (lim + 1)
				}
				want := testSnapshot(t, regs, alg, 16, withRNG)
				data, err := Encode(want)
				if err != nil {
					t.Fatalf("%s n=%d: encode: %v", alg.Name(), n, err)
				}
				got, err := Decode(data)
				if err != nil {
					t.Fatalf("%s n=%d rng=%v: decode: %v", alg.Name(), n, withRNG, err)
				}
				assertEqual(t, got, want)
				back, err := got.Alg()
				if err != nil {
					t.Fatalf("%s: alg reconstruction: %v", alg.Name(), err)
				}
				if back != alg {
					t.Fatalf("%s: reconstructed algorithm %+v != original %+v", alg.Name(), back, alg)
				}
			}
		}
	}
}

func TestStreamingMatchesBuffered(t *testing.T) {
	regs := zipfRegisters(10_000, 1e6, 1.05, 0.005, 14)
	s := testSnapshot(t, regs, bank.NewMorrisAlg(0.005, 14), 64, true)
	data, err := Encode(s)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	var buf bytes.Buffer
	if err := EncodeTo(&buf, s); err != nil {
		t.Fatalf("encode to: %v", err)
	}
	if !bytes.Equal(data, buf.Bytes()) {
		t.Fatal("EncodeTo output differs from Encode")
	}
	got, err := DecodeFrom(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("decode from: %v", err)
	}
	assertEqual(t, got, s)
}

func TestCorruptionDetected(t *testing.T) {
	regs := zipfRegisters(2000, 1e5, 1.05, 0.005, 14)
	s := testSnapshot(t, regs, bank.NewMorrisAlg(0.005, 14), 8, true)
	data, err := Encode(s)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	// Any single flipped bit must be rejected (CRC or structural error, but
	// never silently accepted with different content). Sample positions
	// across the whole stream.
	for pos := 0; pos < len(data); pos += 37 {
		bad := bytes.Clone(data)
		bad[pos] ^= 0x10
		got, err := Decode(bad)
		if err == nil {
			assertEqual(t, got, s) // only acceptable if the flip was immaterial — it never is
			t.Fatalf("flip at byte %d accepted", pos)
		}
	}
	// Truncations must be rejected too.
	for _, cut := range []int{1, 4, len(data) / 2, len(data) - 1} {
		if _, err := Decode(data[:len(data)-cut]); err == nil {
			t.Fatalf("truncation by %d accepted", cut)
		}
	}
	// Trailing garbage must be rejected by Decode.
	if _, err := Decode(append(bytes.Clone(data), 0xFF)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// The headline compression claim: a Zipf-distributed million-key Morris bank
// encodes ≥ 3× smaller than the raw fixed-width payload (the acceptance bar
// for GET /snapshot; in practice this lands well above 3×).
func TestZipfCompressionRatio(t *testing.T) {
	const n = 1_000_000
	regs := zipfRegisters(n, 1e7, 1.05, 0.005, 14)
	s := testSnapshot(t, regs, bank.NewMorrisAlg(0.005, 14), 256, true)
	data, err := Encode(s)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	raw := RawPayloadBytes(n, 14)
	ratio := float64(raw) / float64(len(data))
	t.Logf("raw %d bytes, encoded %d bytes, ratio %.2f×, %.2f bits/register",
		raw, len(data), ratio, 8*float64(len(data))/n)
	if ratio < 3 {
		t.Fatalf("compression ratio %.2f× below the 3× acceptance bar", ratio)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	assertEqual(t, got, s)
}

// Patched packing must stay efficient when hot keys are scattered uniformly
// (no locality to exploit): the per-block exception list absorbs isolated
// large registers without inflating the base width.
func TestScatteredHotKeys(t *testing.T) {
	const n = 100_000
	regs := make([]uint64, n)
	rng := xrand.NewSeeded(11)
	for i := range regs {
		regs[i] = rng.Uint64() % 8 // 3-bit tail
	}
	for i := 0; i < n/200; i++ { // 0.5% hot keys, anywhere
		regs[rng.Uint64()%n] = 8000 + rng.Uint64()%2000 // 13–14 bit
	}
	s := testSnapshot(t, regs, bank.NewMorrisAlg(0.005, 14), 64, false)
	data, err := Encode(s)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	assertEqual(t, got, s)
	ratio := float64(RawPayloadBytes(n, 14)) / float64(len(data))
	t.Logf("scattered-hot ratio %.2f×", ratio)
	if ratio < 2.5 {
		t.Fatalf("scattered hot keys collapsed the ratio to %.2f× — exceptions not working", ratio)
	}
}

func TestValidationErrors(t *testing.T) {
	alg := bank.NewMorrisAlg(0.005, 14)
	base := func() *Snapshot { return testSnapshot(t, []uint64{1, 2, 3}, alg, 2, false) }

	s := base()
	s.N = 4 // register count mismatch
	if _, err := Encode(s); err == nil {
		t.Fatal("N mismatch accepted")
	}
	s = base()
	s.Registers[1] = 1 << 14 // out of width
	if _, err := Encode(s); err == nil {
		t.Fatal("out-of-width register accepted")
	}
	s = base()
	s.RNG = make([][4]uint64, 5) // wrong rng count
	if _, err := Encode(s); err == nil {
		t.Fatal("rng/shards mismatch accepted")
	}
	s = base()
	s.AlgName = ""
	if _, err := Encode(s); err == nil {
		t.Fatal("empty algorithm name accepted")
	}
}

func TestDecodeRejectsHostileHeaders(t *testing.T) {
	// A header claiming more registers than MaxRegisters must be rejected
	// before any large allocation happens.
	s := testSnapshot(t, []uint64{1}, bank.NewExactAlg(8), 1, false)
	data, err := Encode(s)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	// Corrupt systematically and ensure no panic; errors are expected.
	for pos := 0; pos < len(data); pos++ {
		for _, b := range []byte{0x00, 0xFF, data[pos] ^ 0x80} {
			bad := bytes.Clone(data)
			bad[pos] = b
			_, _ = Decode(bad) // must not panic
		}
	}
}

func FuzzEncodeDecodeRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 200, 0, 0, 255}, uint8(14), uint8(3))
	f.Add([]byte{}, uint8(1), uint8(0))
	f.Add(bytes.Repeat([]byte{0}, 300), uint8(8), uint8(5))
	f.Fuzz(func(t *testing.T, raw []byte, width, shardsB uint8) {
		w := 1 + int(width)%62
		regs := make([]uint64, len(raw))
		lim := uint64(1)<<uint(w) - 1
		for i, b := range raw {
			// Spread input bytes across the width range so exceptions and
			// multi-word fields get exercised.
			v := uint64(b) * 0x9e3779b97f4a7c15
			regs[i] = v % (lim + 1)
		}
		s := &Snapshot{
			AlgName: "exact", Width: w,
			N: len(regs), Shards: int(shardsB), Seed: 99,
			Registers: regs,
		}
		data, err := Encode(s)
		if err != nil {
			t.Fatalf("encode rejected valid snapshot: %v", err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("decode of fresh encode failed: %v", err)
		}
		if got.N != s.N || got.Width != s.Width || got.Shards != s.Shards {
			t.Fatalf("header round-trip mismatch: %+v vs %+v", got, s)
		}
		for i := range regs {
			if got.Registers[i] != regs[i] {
				t.Fatalf("register %d = %d, want %d", i, got.Registers[i], regs[i])
			}
		}
	})
}

// testSnapshotBytes encodes a 500-key Zipf register section (14-bit
// registers) under alg's header.
func testSnapshotBytes(f *testing.F, alg bank.Algorithm) []byte {
	regs := zipfRegisters(500, 1e4, 1.05, 0.005, 14)
	s := &Snapshot{N: 500, Shards: 4, Seed: 1, Registers: regs}
	if err := s.SetAlg(alg); err != nil {
		f.Fatalf("seed header: %v", err)
	}
	data, err := Encode(s)
	if err != nil {
		f.Fatalf("seed encode: %v", err)
	}
	return data
}

func BenchmarkEncodeZipf1M(b *testing.B) {
	const n = 1_000_000
	regs := zipfRegisters(n, 1e7, 1.05, 0.005, 14)
	s := &Snapshot{AlgName: "morris", Width: 14, Param: math.Float64bits(0.005), N: n, Shards: 256, Seed: 1, Registers: regs}
	data, err := Encode(s)
	if err != nil {
		b.Fatalf("encode: %v", err)
	}
	b.SetBytes(int64(RawPayloadBytes(n, 14)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		buf.Grow(len(data))
		if err := EncodeTo(&buf, s); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(8*float64(len(data))/n, "bits/register")
	b.ReportMetric(float64(len(data))/n, "bytes/register")
}

func BenchmarkDecodeZipf1M(b *testing.B) {
	const n = 1_000_000
	regs := zipfRegisters(n, 1e7, 1.05, 0.005, 14)
	s := &Snapshot{AlgName: "morris", Width: 14, Param: math.Float64bits(0.005), N: n, Shards: 256, Seed: 1, Registers: regs}
	data, err := Encode(s)
	if err != nil {
		b.Fatalf("encode: %v", err)
	}
	b.SetBytes(int64(RawPayloadBytes(n, 14)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(data); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(data))/n, "bytes/register")
}

// DecodeCapped must reject an oversized register claim from the header
// alone, before any register-proportional allocation.
func TestDecodeCappedRejectsEarly(t *testing.T) {
	regs := make([]uint64, 1000)
	s := &Snapshot{AlgName: "exact", Width: 8, N: 1000, Shards: 4, Seed: 1, Registers: regs}
	data, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCapped(data, 999); err == nil {
		t.Fatal("cap below header n accepted")
	}
	got, err := DecodeCapped(data, 1000)
	if err != nil {
		t.Fatalf("cap equal to header n rejected: %v", err)
	}
	if got.N != 1000 {
		t.Fatalf("n = %d", got.N)
	}
	if _, err := DecodeCapped(data, -5); err == nil {
		t.Fatal("negative cap accepted")
	}
}

func TestPartitionRangeTiles(t *testing.T) {
	for _, tc := range []struct{ n, parts int }{
		{1, 1}, {7, 3}, {100, 7}, {1000, 16}, {1_000_000, 64}, {5, 5},
	} {
		prev := 0
		for p := 0; p < tc.parts; p++ {
			lo, hi := PartitionRange(tc.n, tc.parts, p)
			if lo != prev {
				t.Fatalf("n=%d parts=%d: partition %d starts at %d, want %d", tc.n, tc.parts, p, lo, prev)
			}
			if hi < lo {
				t.Fatalf("n=%d parts=%d: partition %d range [%d,%d) inverted", tc.n, tc.parts, p, lo, hi)
			}
			for k := lo; k < hi; k++ {
				if got := PartitionOf(k, tc.n, tc.parts); got != p {
					t.Fatalf("n=%d parts=%d: PartitionOf(%d) = %d, want %d", tc.n, tc.parts, k, got, p)
				}
			}
			prev = hi
		}
		if prev != tc.n {
			t.Fatalf("n=%d parts=%d: partitions end at %d", tc.n, tc.parts, prev)
		}
	}
}

func TestPartitionRoundTrip(t *testing.T) {
	alg := bank.NewMorrisAlg(0.005, 14)
	const n, parts = 10_000, 16
	full := zipfRegisters(n, 1e6, 1.05, 0.005, 14)
	for _, p := range []int{0, 1, 7, parts - 1} {
		lo, hi := PartitionRange(n, parts, p)
		s := &Snapshot{
			N: n, Shards: 64, Seed: 42,
			Partition: p, Parts: parts,
			Registers: full[lo:hi],
		}
		if err := s.SetAlg(alg); err != nil {
			t.Fatalf("SetAlg: %v", err)
		}
		data, err := Encode(s)
		if err != nil {
			t.Fatalf("partition %d: encode: %v", p, err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("partition %d: decode: %v", p, err)
		}
		if !got.IsPartition() {
			t.Fatalf("partition %d: decoded as whole bank", p)
		}
		assertEqual(t, got, s)
	}
}

func TestPartitionValidation(t *testing.T) {
	alg := bank.NewMorrisAlg(0.005, 14)
	const n, parts = 1000, 8
	lo, hi := PartitionRange(n, parts, 3)
	base := func() *Snapshot {
		s := &Snapshot{N: n, Shards: 4, Seed: 1, Partition: 3, Parts: parts,
			Registers: make([]uint64, hi-lo)}
		if err := s.SetAlg(alg); err != nil {
			t.Fatal(err)
		}
		return s
	}
	if _, err := Encode(base()); err != nil {
		t.Fatalf("valid partition snapshot rejected: %v", err)
	}
	s := base()
	s.Partition = parts // out of range
	if _, err := Encode(s); err == nil {
		t.Fatal("partition >= parts accepted")
	}
	s = base()
	s.Registers = s.Registers[:len(s.Registers)-1] // wrong range length
	if _, err := Encode(s); err == nil {
		t.Fatal("short partition register slice accepted")
	}
	s = base()
	s.RNG = make([][4]uint64, 4) // rng on a partition snapshot
	if _, err := Encode(s); err == nil {
		t.Fatal("partition snapshot with rng accepted")
	}
	s = base()
	s.Parts = MaxPartitions + 1
	if _, err := Encode(s); err == nil {
		t.Fatal("oversized partition count accepted")
	}
}

// TestDecodeVersion1 pins backward compatibility: a version-1 snapshot (the
// pre-partition format) must still decode. The fixture is synthesized by
// rewriting the version byte of a fresh whole-bank encode — byte-identical
// to what the v1 encoder produced, since v2 only added an optional section.
func TestDecodeVersion1(t *testing.T) {
	regs := zipfRegisters(500, 1e4, 1.05, 0.005, 14)
	want := testSnapshot(t, regs, bank.NewMorrisAlg(0.005, 14), 8, true)
	data, err := Encode(want)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	v1 := bytes.Clone(data)
	v1[4] = 1 // version byte follows the 4-byte magic
	crc := crc32.Checksum(v1[:len(v1)-4], castagnoli)
	binary.LittleEndian.PutUint32(v1[len(v1)-4:], crc)
	got, err := Decode(v1)
	if err != nil {
		t.Fatalf("decode v1: %v", err)
	}
	assertEqual(t, got, want)

	// A v1 snapshot must not carry the partition flag.
	bad := bytes.Clone(v1)
	flagOff := 4 + 1 + 1 + len("morris") + 1 + 8 // magic+ver, name len, name, width, param
	// flags byte sits after the n and shards uvarints and the seed; locate it
	// by re-deriving: n=500 (2-byte uvarint), shards=8 (1 byte), seed 8 bytes.
	flagOff += 2 + 1 + 8
	bad[flagOff] |= flagPart
	crc = crc32.Checksum(bad[:len(bad)-4], castagnoli)
	binary.LittleEndian.PutUint32(bad[len(bad)-4:], crc)
	if _, err := Decode(bad); err == nil {
		t.Fatal("v1 snapshot with partition flag accepted")
	}
}

// Engine snapshots (version 3): opaque payload round-trips, whole and
// partitioned, and the validation rules hold.
func TestEngineSectionRoundTrip(t *testing.T) {
	payload := []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}
	s := &Snapshot{N: 10_000, Shards: 16, Seed: 7, Engine: "topk", Payload: payload}
	if err := s.SetAlg(bank.NewMorrisAlg(0.01, 12)); err != nil {
		t.Fatal(err)
	}
	data, err := Encode(s)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if data[4] != 3 {
		t.Fatalf("engine snapshot stamped version %d, want 3", data[4])
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Engine != "topk" || !bytes.Equal(got.Payload, payload) {
		t.Fatalf("engine round-trip: %q %v", got.Engine, got.Payload)
	}
	if got.N != s.N || got.Shards != s.Shards || got.Seed != s.Seed || got.AlgName != "morris" {
		t.Fatalf("engine header mismatch: %+v", got)
	}
	if len(got.Registers) != 0 {
		t.Fatalf("engine snapshot decoded %d registers", len(got.Registers))
	}

	// Partitioned engine snapshot.
	p := &Snapshot{N: 10_000, Shards: 16, Seed: 7, Engine: "topk",
		Payload: payload, Partition: 3, Parts: 16}
	if err := p.SetAlg(bank.NewMorrisAlg(0.01, 12)); err != nil {
		t.Fatal(err)
	}
	data, err = Encode(p)
	if err != nil {
		t.Fatalf("encode partition: %v", err)
	}
	got, err = Decode(data)
	if err != nil {
		t.Fatalf("decode partition: %v", err)
	}
	if !got.IsPartition() || got.Partition != 3 || got.Parts != 16 || !bytes.Equal(got.Payload, payload) {
		t.Fatalf("partitioned engine round-trip: %+v", got)
	}
}

func TestEngineSectionValidation(t *testing.T) {
	base := func() *Snapshot {
		s := &Snapshot{N: 100, Shards: 4, Seed: 1, Engine: "topk", Payload: []byte{1}}
		if err := s.SetAlg(bank.NewMorrisAlg(0.01, 12)); err != nil {
			t.Fatal(err)
		}
		return s
	}
	// Version 4: an engine snapshot MAY carry registers (the engine
	// register section); it round-trips and stamps version 4, while a
	// register-free engine snapshot keeps the version-3 stamp.
	s := base()
	s.Registers = []uint64{1, 0, 3}
	data4, err := Encode(s)
	if err != nil {
		t.Fatalf("engine snapshot with registers: %v", err)
	}
	if data4[4] != 4 {
		t.Fatalf("engine+registers snapshot stamped version %d, want 4", data4[4])
	}
	dec, err := Decode(data4)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Engine != "topk" || len(dec.Registers) != 3 || dec.Registers[2] != 3 {
		t.Fatalf("engine register section did not round-trip: %+v", dec)
	}
	s = base()
	if data3, err := Encode(s); err != nil || data3[4] != 3 {
		t.Fatalf("register-free engine snapshot stamp: version %d, err %v", data3[4], err)
	}
	s = base()
	s.RNG = make([][4]uint64, 4)
	if _, err := Encode(s); err == nil {
		t.Fatal("engine snapshot with rng section accepted")
	}
	s = base()
	s.Engine = ""
	if _, err := Encode(s); err == nil {
		t.Fatal("payload without engine name accepted")
	}
	// A version-2 stamp with the engine flag must be rejected.
	s = base()
	data, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Clone(data)
	bad[4] = 2
	crc := crc32.Checksum(bad[:len(bad)-4], castagnoli)
	binary.LittleEndian.PutUint32(bad[len(bad)-4:], crc)
	if _, err := Decode(bad); err == nil {
		t.Fatal("v2 snapshot with engine flag accepted")
	}
}

// TestDecodeRejectsBadAlgorithmHeader patches the algorithm fields of valid
// snapshots, re-seals the checksum, and expects bank.Decode's verdict from
// both Decode and Encode: a non-finite or out-of-range Morris base, a
// Csűrös mantissa past the width, a stray parameter on exact, a width past
// 62, and an unknown name are each an error.
func TestDecodeRejectsBadAlgorithmHeader(t *testing.T) {
	regs := []uint64{1, 2, 3}
	for _, tc := range []struct {
		alg   bank.Algorithm
		name  string // replaces the algorithm name, same length
		width int    // replaces the width when non-zero
		param uint64
	}{
		{alg: bank.NewMorrisAlg(0.01, 12), param: math.Float64bits(math.NaN())},
		{alg: bank.NewMorrisAlg(0.01, 12), param: math.Float64bits(math.Inf(1))},
		{alg: bank.NewMorrisAlg(0.01, 12), param: math.Float64bits(2)},
		{alg: bank.NewMorrisAlg(0.01, 12), param: math.Float64bits(0.01), width: 63},
		{alg: bank.NewCsurosAlg(12, 4), param: 63},
		{alg: bank.NewCsurosAlg(12, 4), param: 12},
		{alg: bank.NewExactAlg(12), param: 1},
		{alg: bank.NewExactAlg(12), param: 0, width: 64},
		{alg: bank.NewExactAlg(12), param: 0, name: "exakt"},
	} {
		s := &Snapshot{N: len(regs), Shards: 1, Seed: 1, Registers: regs}
		if err := s.SetAlg(tc.alg); err != nil {
			t.Fatal(err)
		}
		data, err := Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		nameOff := 4 + 1 + 1 // magic, version, name length
		widthOff := nameOff + len(tc.alg.Name())
		if tc.name != "" {
			copy(data[nameOff:], tc.name)
			s.AlgName = tc.name
		}
		if tc.width != 0 {
			data[widthOff] = byte(tc.width)
			s.Width = tc.width
		}
		binary.LittleEndian.PutUint64(data[widthOff+1:], tc.param)
		s.Param = tc.param
		binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.Checksum(data[:len(data)-4], castagnoli))
		if _, err := Decode(data); err == nil {
			t.Fatalf("%+v: decode accepted the header", tc)
		}
		if _, err := Encode(s); err == nil {
			t.Fatalf("%+v: encode accepted the header", tc)
		}
	}
}
