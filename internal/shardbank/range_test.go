package shardbank

import (
	"testing"

	"repro/internal/bank"
	"repro/internal/stream"
	"repro/internal/xrand"
)

func loadedBank(t *testing.T, n, shards int, seed uint64, events int) *Bank {
	t.Helper()
	b := New(n, bank.NewMorrisAlg(0.005, 14), shards, seed)
	src := stream.NewZipf(uint64(n), 1.05, xrand.NewSeeded(seed+1))
	keys := make([]int, 1024)
	for done := 0; done < events; {
		batch := keys
		if rest := events - done; rest < len(batch) {
			batch = batch[:rest]
		}
		for i := range batch {
			batch[i] = int(src.Next())
		}
		b.IncrementBatch(batch)
		done += len(batch)
	}
	return b
}

// rangeRegs reads the registers of keys [lo, hi) through the packed view.
func rangeRegs(t *testing.T, b *Bank, lo, hi int) []uint64 {
	t.Helper()
	v, err := b.FreezeRange(lo, hi)
	if err != nil {
		t.Fatalf("FreezeRange(%d, %d): %v", lo, hi, err)
	}
	regs := make([]uint64, v.Len())
	v.ReadRegisters(regs, 0)
	return regs
}

// MergeMaxRange is the anti-entropy join: after exchanging ranges in both
// directions two replicas hold identical (element-wise max) registers, and a
// repeat exchange changes nothing.
func TestMergeMaxRangeConverges(t *testing.T) {
	const n = 5_000
	a := loadedBank(t, n, 8, 11, 150_000)
	b := loadedBank(t, n, 8, 22, 150_000)

	lo, hi := 1000, 4000
	aRegs := rangeRegs(t, a, lo, hi)
	bRegs := rangeRegs(t, b, lo, hi)
	if err := a.MergeMaxRange(lo, bRegs); err != nil {
		t.Fatal(err)
	}
	if err := b.MergeMaxRange(lo, aRegs); err != nil {
		t.Fatal(err)
	}
	aAfter := rangeRegs(t, a, lo, hi)
	bAfter := rangeRegs(t, b, lo, hi)
	for i := range aAfter {
		if aAfter[i] != bAfter[i] {
			t.Fatalf("key %d: replicas diverge after exchange: %d vs %d", lo+i, aAfter[i], bAfter[i])
		}
		if want := max(aRegs[i], bRegs[i]); aAfter[i] != want {
			t.Fatalf("key %d: max join = %d, want %d", lo+i, aAfter[i], want)
		}
	}
	// Idempotent: a second identical exchange is a no-op.
	if err := a.MergeMaxRange(lo, bAfter); err != nil {
		t.Fatal(err)
	}
	again := rangeRegs(t, a, lo, hi)
	for i := range again {
		if again[i] != aAfter[i] {
			t.Fatalf("key %d: repeated max join changed register", lo+i)
		}
	}
	// Keys outside the range are untouched.
	outside := rangeRegs(t, a, 0, lo)
	orig := loadedBank(t, n, 8, 11, 150_000)
	origOutside := rangeRegs(t, orig, 0, lo)
	for i := range outside {
		if outside[i] != origOutside[i] {
			t.Fatalf("key %d outside range modified", i)
		}
	}

	if err := a.MergeMaxRange(0, make([]uint64, n+1)); err == nil {
		t.Fatal("oversized range accepted")
	}
	if err := a.MergeMaxRange(0, []uint64{1 << 14}); err == nil {
		t.Fatal("out-of-width register accepted")
	}
}

// A full-range MergeRange must be bit-identical to the existing whole-bank
// Merge: same Remark 2.4 draws from the same shard generators in the same
// order.
func TestMergeRangeMatchesFullMerge(t *testing.T) {
	const n = 4_000
	mk := func() (*Bank, *Bank) {
		return loadedBank(t, n, 8, 31, 100_000), loadedBank(t, n, 8, 32, 100_000)
	}
	a1, b1 := mk()
	a2, _ := mk()

	donor := rangeRegs(t, b1, 0, n)
	if err := a1.Merge(b1); err != nil {
		t.Fatal(err)
	}
	if err := a2.MergeRange(0, donor); err != nil {
		t.Fatal(err)
	}
	r1 := a1.ExportState().Registers
	r2 := a2.ExportState().Registers
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("key %d: MergeRange diverges from Merge: %d vs %d", i, r1[i], r2[i])
		}
	}
}

// MergeRange on a bank whose algorithm cannot merge must fail cleanly.
func TestMergeRangeRequiresMergeAlgorithm(t *testing.T) {
	b := New(100, bank.NewCsurosAlg(16, 10), 4, 1)
	if err := b.MergeRange(0, make([]uint64, 10)); err == nil {
		t.Fatal("csuros range merge accepted")
	}
	// Max needs no merge support — it is pure state.
	if err := b.MergeMaxRange(0, make([]uint64, 10)); err != nil {
		t.Fatalf("max join rejected: %v", err)
	}
}
