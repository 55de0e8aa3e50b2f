package shardbank

import (
	"reflect"
	"testing"

	"repro/internal/bank"
)

func takeSorted(b *Bank) []uint32 { return b.TakeDirty() }

func TestDirtyTrackingIncrement(t *testing.T) {
	b := New(1000, bank.NewExactAlg(16), 8, 1)
	if got := b.TakeDirty(); got != nil {
		t.Fatalf("fresh bank dirty: %v", got)
	}
	if n := b.DirtyBlocks(); n != 0 {
		t.Fatalf("fresh bank DirtyBlocks = %d", n)
	}
	b.Increment(5)        // block 0
	b.Increment(300)      // block 2
	b.IncrementBy(999, 3) // block 7 (the short tail)
	if n := b.DirtyBlocks(); n != 3 {
		t.Fatalf("DirtyBlocks = %d, want 3", n)
	}
	want := []uint32{0, 2, 7}
	if got := takeSorted(b); !reflect.DeepEqual(got, want) {
		t.Fatalf("TakeDirty = %v, want %v", got, want)
	}
	if got := b.TakeDirty(); got != nil {
		t.Fatalf("second TakeDirty = %v, want nil", got)
	}
}

func TestDirtyTrackingBatch(t *testing.T) {
	for _, shards := range []int{1, 8} {
		b := New(4096, bank.NewExactAlg(16), shards, 1)
		b.IncrementBatch([]int{0, 127, 128, 4000, 4095})
		want := []uint32{0, 1, 31}
		if got := takeSorted(b); !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: TakeDirty = %v, want %v", shards, got, want)
		}
	}
}

func TestDirtyTrackingMergesAndResets(t *testing.T) {
	b := New(1024, bank.NewExactAlg(16), 4, 1)
	regs := make([]uint64, 128)
	regs[0] = 9 // key 256, block 2
	if err := b.MergeMaxRange(256, regs); err != nil {
		t.Fatal(err)
	}
	if got := takeSorted(b); !reflect.DeepEqual(got, []uint32{2}) {
		t.Fatalf("after MergeMaxRange: %v", got)
	}
	// A max-join that changes nothing marks nothing.
	if err := b.MergeMaxRange(256, make([]uint64, 128)); err != nil {
		t.Fatal(err)
	}
	if got := b.TakeDirty(); got != nil {
		t.Fatalf("no-op MergeMaxRange marked %v", got)
	}
	// ResetRange marks only blocks with previously nonzero registers.
	if err := b.ResetRange(0, 1024); err != nil {
		t.Fatal(err)
	}
	if got := takeSorted(b); !reflect.DeepEqual(got, []uint32{2}) {
		t.Fatalf("after ResetRange: %v", got)
	}
}

func TestDirtyTrackingRestoreMarksAll(t *testing.T) {
	b, err := restoreState(300, bank.NewExactAlg(16), 4, 1, State{Registers: make([]uint64, 300)})
	if err != nil {
		t.Fatal(err)
	}
	if got := takeSorted(b); !reflect.DeepEqual(got, []uint32{0, 1, 2}) {
		t.Fatalf("after a restore: %v", got)
	}
}

func TestDirtyTrackingRearm(t *testing.T) {
	b := New(1000, bank.NewExactAlg(16), 4, 1)
	b.Increment(200)
	got := b.TakeDirty()
	b.MarkDirtyBlocks(got)
	b.MarkDirtyBlocks([]uint32{99}) // out of range: ignored
	if again := takeSorted(b); !reflect.DeepEqual(again, got) {
		t.Fatalf("re-armed %v, drained %v", got, again)
	}
}
