package engine

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"repro/internal/bank"
	"repro/internal/shardbank"
	"repro/internal/snapcodec"
	"repro/internal/xrand"
)

// estimateScanTopK is the estimate-space top-k the bank engine used before
// it ranked raw registers: every register converted to its estimate, keys
// scanned in ascending order, ties to the smaller key. Kept as the reference
// the register-space ranking must reproduce.
func estimateScanTopK(b *shardbank.Bank, k, lo, hi int) []Entry {
	if k > hi-lo {
		k = hi - lo
	}
	if k <= 0 {
		return []Entry{}
	}
	est := b.EstimateAll()
	out := make([]Entry, 0, k+1)
	for key := lo; key < hi; key++ {
		if v := est[key]; v > 0 {
			out = topkPush(out, k, key, v)
		}
	}
	return out
}

func TestBankTopKMatchesEstimateScan(t *testing.T) {
	const n = 5000
	rng := xrand.NewSeeded(77)
	for _, alg := range []bank.Algorithm{
		bank.NewMorrisAlg(0.005, 14), bank.NewCsurosAlg(16, 10), bank.NewExactAlg(12),
	} {
		for _, shards := range []int{1, 8, 256} {
			b := shardbank.New(n, alg, shards, 3)
			e := NewBank(b)
			check := func(what string) {
				t.Helper()
				for _, r := range [][3]int{
					{10, 0, n}, {1, 0, n}, {n + 5, 0, n}, {25, 1234, 1302}, {500, 600, 700},
					{7, n - 1, n}, {3, 40, 40}, {10, 4000, 4100},
				} {
					got, err := e.TopK(r[0], r[1], r[2])
					if err != nil {
						t.Fatalf("%s/%d %s: TopK%v: %v", alg.Name(), shards, what, r, err)
					}
					want := estimateScanTopK(b, r[0], r[1], r[2])
					if len(got) != len(want) {
						t.Fatalf("%s/%d %s: TopK%v ranks %d keys, reference %d", alg.Name(), shards, what, r, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s/%d %s: TopK%v rank %d = %+v, reference %+v", alg.Name(), shards, what, r, i, got[i], want[i])
						}
					}
				}
			}
			check("empty bank")
			// Heavy ties: every key of a stretch at the same small count
			// (exact registers tie exactly; Morris/Csűrös ones mostly do),
			// with [4000, 4100) left all-zero.
			for key := 0; key < 2000; key++ {
				b.IncrementBy(key, 2)
			}
			check("tied")
			keys := make([]int, 60_000)
			for i := range keys {
				if keys[i] = int(rng.Uint64() % n); keys[i] >= 4000 && keys[i] < 4100 {
					keys[i] = 0
				}
			}
			b.IncrementBatch(keys)
			b.IncrementBatch(zipfKeys(4000, 40_000, 1.1, 5))
			check("loaded")
			// An evict lowers registers — and with them the block maxima the
			// ranking skips by — over a range no block boundary lines up with.
			if err := e.ResetRange(0, 1301); err != nil {
				t.Fatal(err)
			}
			check("evicted")
			// A replica max-join raises them again, the evicted stretch
			// included, without going through an increment.
			peer := shardbank.New(n, alg, shards, 4)
			peer.IncrementBatch(zipfKeys(n, 50_000, 1.3, 6))
			if err := b.MergeMaxRange(700, peer.ExportState().Registers[700:4050]); err != nil {
				t.Fatal(err)
			}
			check("max-joined")
		}
	}
	if _, err := NewBank(shardbank.New(10, bank.NewExactAlg(8), 2, 1)).TopK(3, 0, 11); err == nil {
		t.Fatal("range past n accepted")
	}
}

// allocatedBy returns the heap bytes f allocates (one run, after a GC so
// nothing concurrent muddies the delta).
func allocatedBy(f func()) uint64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// Every bulk read of the bank engine runs on the packed words: on a 1M-key
// bank none may allocate more than the packed registers it covers plus
// 64 KiB — one-eighth of what inflating them to []uint64 costs, so
// re-inflating is a test failure rather than a surprise in production RSS.
func TestBankReadsAllocatePackedBytes(t *testing.T) {
	const n, parts, slack = 1 << 20, 16, 64 << 10
	alg := bank.NewMorrisAlg(0.005, 14)
	b := shardbank.New(n, alg, 256, 42)
	for _, batch := range batches(zipfKeys(n, 1_000_000, 1.05, 9), 4096) {
		b.IncrementBatch(batch)
	}
	e := NewBank(b)
	whole := uint64(b.SizeBytes())
	lo, hi := snapcodec.PartitionRange(n, parts, 3)
	part := uint64((hi-lo)*alg.Width()/8) + 8*256 // its packed bits plus a pad word per shard
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name  string
		limit uint64
		read  func()
	}{
		{"SnapshotTo/whole", whole + slack, func() { must(SnapshotTo(io.Discard, e, 0, 0, false)) }},
		{"SnapshotTo/checkpoint", whole + slack, func() { must(SnapshotTo(io.Discard, e, 0, 0, true)) }},
		{"SnapshotTo/partition", part + slack, func() { must(SnapshotTo(io.Discard, e, 3, parts, false)) }},
		{"HashRange", part + slack, func() { _, err := e.HashRange(lo, hi); must(err) }},
		{"BlockHashes", part + slack, func() { _, err := e.BlockHashes(3, parts); must(err) }},
		{"TopK", slack, func() { _, err := e.TopK(10, 0, n); must(err) }},
		{"TopK/partition", slack, func() { _, err := e.TopK(100, lo, hi); must(err) }},
	} {
		if got := allocatedBy(tc.read); got > tc.limit {
			t.Errorf("%s allocated %d bytes, limit %d (a []uint64 of the registers is %d)",
				tc.name, got, tc.limit, 8*n)
		}
	}
}

// countingSource counts the registers read through it.
type countingSource struct {
	snapcodec.RegisterSource
	read int
}

func (c *countingSource) ReadRegisters(dst []uint64, at int) {
	c.read += len(dst)
	c.RegisterSource.ReadRegisters(dst, at)
}

// A delta checkpoint of the bank reads exactly its dirty blocks off the
// view, and encodes to the bytes a delta cut from inflated registers does.
func TestBankDeltaReadsOnlyDirtyBlocks(t *testing.T) {
	const n = 1 << 16
	b := shardbank.New(n, bank.NewMorrisAlg(0.005, 14), 64, 1)
	b.IncrementBatch(zipfKeys(n, 300_000, 1.05, 4))
	e := NewBank(b)
	b.TakeDirty()
	b.IncrementBatch([]int{5, 130, 131, 9000, n - 1})
	dirty := b.TakeDirty()
	if len(dirty) != 4 {
		t.Fatalf("dirty blocks %v", dirty)
	}
	snap, err := e.Snapshot(0, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	src := &countingSource{RegisterSource: snap.Source}
	snap.Source = src
	d, err := snapcodec.MakeDelta(snap, 9, dirty)
	if err != nil {
		t.Fatal(err)
	}
	got, err := snapcodec.Encode(d)
	if err != nil {
		t.Fatal(err)
	}
	if src.read != len(dirty)*snapcodec.BlockLen {
		t.Fatalf("delta encode read %d registers for %d dirty blocks", src.read, len(dirty))
	}
	st := b.ExportState()
	ref := &snapcodec.Snapshot{N: n, Shards: 64, Seed: 1, Registers: st.Registers, RNG: st.RNG}
	if err := ref.SetAlg(b.Algorithm()); err != nil {
		t.Fatal(err)
	}
	rd, err := snapcodec.MakeDelta(ref, 9, dirty)
	if err != nil {
		t.Fatal(err)
	}
	want, err := snapcodec.Encode(rd)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("delta cut from the packed view encodes differently from one cut from inflated registers")
	}
}

// HashRange and BlockHashes fold the same FNV bytes as before: a fold over
// the inflated registers (the pre-view implementation) gives the same
// values, so mixed-version rings still agree.
func TestBankHashesMatchInflatedFold(t *testing.T) {
	const n, parts = 10_000, 7
	b := shardbank.New(n, bank.NewCsurosAlg(16, 10), 16, 2)
	b.IncrementBatch(zipfKeys(n, 200_000, 1.05, 6))
	e := NewBank(b)
	regs := b.ExportState().Registers
	for p := 0; p < parts; p++ {
		lo, hi := snapcodec.PartitionRange(n, parts, p)
		want := newFNV()
		for _, v := range regs[lo:hi] {
			want.word(v)
		}
		got, err := e.HashRange(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if got != want.sum() {
			t.Fatalf("partition %d: HashRange %016x, inflated fold %016x", p, got, want.sum())
		}
		gotB, err := e.BlockHashes(p, parts)
		if err != nil {
			t.Fatal(err)
		}
		var wantB []uint64
		for at := lo; at < hi; at += snapcodec.BlockLen {
			h := newFNV()
			for _, v := range regs[at:min(at+snapcodec.BlockLen, hi)] {
				h.word(v)
			}
			wantB = append(wantB, h.sum())
		}
		if len(gotB) != len(wantB) {
			t.Fatalf("partition %d: %d block hashes, want %d", p, len(gotB), len(wantB))
		}
		for i := range wantB {
			if gotB[i] != wantB[i] {
				t.Fatalf("partition %d block %d: %016x, want %016x", p, i, gotB[i], wantB[i])
			}
		}
	}
}
