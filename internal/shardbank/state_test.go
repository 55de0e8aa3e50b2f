package shardbank

import (
	"testing"

	"repro/internal/bank"
)

// Restore must invert Snapshot exactly, across shard counts and widths.
func TestRestoreInvertsSnapshot(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		alg := bank.NewMorrisAlg(0.02, 11)
		src := New(1000, alg, shards, 42)
		src.IncrementBatch(zipfKeys(1000, 20_000, 7))
		snap := src.Snapshot()

		dst := New(1000, alg, shards, 999) // different seed: registers still transfer
		if err := dst.Restore(snap); err != nil {
			t.Fatalf("shards=%d: restore: %v", shards, err)
		}
		for i := 0; i < 1000; i++ {
			if got, want := dst.Register(i), src.Register(i); got != want {
				t.Fatalf("shards=%d: register %d = %d after restore, want %d", shards, i, got, want)
			}
		}
	}
}

func TestRestoreShapeValidation(t *testing.T) {
	alg := bank.NewMorrisAlg(0.02, 11)
	b := New(100, alg, 4, 1)
	snap := b.Snapshot()
	if err := b.Restore(snap[:len(snap)-1]); err == nil {
		t.Fatal("short payload accepted")
	}
	if err := b.Restore(append(snap, 0)); err == nil {
		t.Fatal("long payload accepted")
	}
	wrong := New(100, bank.NewMorrisAlg(0.02, 12), 4, 1).Snapshot()
	if err := b.Restore(wrong); err == nil {
		t.Fatal("payload of a different width accepted")
	}
}

// A bank restored from ExportState (registers + rng) must be bit-identical
// to the original under any shared future workload — the property that makes
// checkpoint + WAL-suffix recovery exact.
func TestRestoreStateContinuesExactly(t *testing.T) {
	const n = 2000
	alg := bank.NewMorrisAlg(0.01, 12)
	orig := New(n, alg, 8, 42)
	orig.IncrementBatch(zipfKeys(n, 50_000, 3))

	st := orig.ExportState()
	clone := New(n, alg, 8, 777) // wrong seed; RestoreState must overwrite rng
	if err := clone.RestoreState(st); err != nil {
		t.Fatalf("restore state: %v", err)
	}

	future := zipfKeys(n, 50_000, 4)
	orig.IncrementBatch(future)
	clone.IncrementBatch(future)
	for i := 0; i < n; i++ {
		if a, b := orig.Register(i), clone.Register(i); a != b {
			t.Fatalf("register %d diverged after restored continuation: %d vs %d", i, a, b)
		}
	}
}

func TestRestoreStateValidation(t *testing.T) {
	alg := bank.NewExactAlg(8)
	b := New(64, alg, 4, 1)
	if err := b.RestoreState(State{Registers: make([]uint64, 63)}); err == nil {
		t.Fatal("wrong register count accepted")
	}
	bad := make([]uint64, 64)
	bad[10] = 1 << 8
	if err := b.RestoreState(State{Registers: bad}); err == nil {
		t.Fatal("out-of-width register accepted")
	}
	if err := b.RestoreState(State{
		Registers: make([]uint64, 64),
		RNG:       make([][4]uint64, 3),
	}); err == nil {
		t.Fatal("wrong rng stream count accepted")
	}
	// Failed validation must leave the bank untouched.
	b.Increment(5)
	reg := b.Register(5)
	_ = b.RestoreState(State{Registers: bad})
	if b.Register(5) != reg {
		t.Fatal("failed RestoreState mutated the bank")
	}
}

func TestRestoreStateInvalidatesEstimateCache(t *testing.T) {
	alg := bank.NewExactAlg(8)
	b := New(16, alg, 4, 1)
	b.Increment(0)
	_ = b.EstimateAll()
	regs := make([]uint64, 16)
	regs[3] = 200
	if err := b.RestoreState(State{Registers: regs}); err != nil {
		t.Fatalf("restore state: %v", err)
	}
	est := b.EstimateAll()
	if est[3] != 200 || est[0] != 0 {
		t.Fatalf("EstimateAll served stale estimates after RestoreState: %v", est[:4])
	}
}
