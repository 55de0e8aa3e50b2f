package shardbank

import (
	"bytes"
	"testing"

	"repro/internal/bank"
	"repro/internal/snapcodec"
)

// restoreState builds a bank of the given shape from an exported state
// through a Restorer, a block at a time.
func restoreState(n int, alg bank.Algorithm, shards int, seed uint64, st State) (*Bank, error) {
	r := NewRestorer(n, alg, shards, seed)
	at := 0
	snapcodec.EachBlock(snapcodec.RegisterSlice(st.Registers), func(block []uint64) {
		r.WriteRegisters(block, at)
		at += len(block)
	})
	return r.Finish(st.RNG)
}

// restoreVia builds a bank with the given shard count and seed holding
// src's registers the way a checkpoint restores one: src frozen, encoded by
// snapcodec and decoded straight into a Restorer.
func restoreVia(t testing.TB, src *Bank, shards int, seed uint64) *Bank {
	t.Helper()
	v := src.Freeze()
	snap := &snapcodec.Snapshot{N: src.Len(), Shards: src.Shards(), Seed: src.Seed(), Source: v}
	if err := snap.SetAlg(src.Algorithm()); err != nil {
		t.Fatal(err)
	}
	data, err := snapcodec.Encode(snap)
	v.Release()
	if err != nil {
		t.Fatal(err)
	}
	var r *Restorer
	if _, err := snapcodec.DecodeInto(bytes.NewReader(data), func(h *snapcodec.Snapshot) (snapcodec.RegisterSink, error) {
		r = NewRestorer(h.N, src.Algorithm(), shards, seed)
		return r, nil
	}); err != nil {
		t.Fatal(err)
	}
	b, err := r.Finish(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// A restore through the codec must invert the encode exactly, across shard
// counts and widths.
func TestRestoreInvertsSnapshot(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		alg := bank.NewMorrisAlg(0.02, 11)
		src := New(1000, alg, shards, 42)
		src.IncrementBatch(zipfKeys(1000, 20_000, 7))
		dst := restoreVia(t, src, shards, 999) // different seed: registers still transfer
		for i := 0; i < 1000; i++ {
			if got, want := dst.Register(i), src.Register(i); got != want {
				t.Fatalf("shards=%d: register %d = %d after restore, want %d", shards, i, got, want)
			}
		}
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

	clone, err := restoreState(n, alg, 8, 777, orig.ExportState()) // wrong seed; the rng states overwrite it
	if err != nil {
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

// A restorer refuses a write outside the bank, a register wider than the
// algorithm and a wrong rng stream count, and then hands out no bank.
func TestRestoreStateValidation(t *testing.T) {
	alg := bank.NewExactAlg(8)
	for name, finish := range map[string]func(r *Restorer) (*Bank, error){
		"write past the end": func(r *Restorer) (*Bank, error) {
			r.WriteRegisters(make([]uint64, 2), 63)
			return r.Finish(nil)
		},
		"negative position": func(r *Restorer) (*Bank, error) {
			r.WriteRegisters(make([]uint64, 1), -1)
			return r.Finish(nil)
		},
		"out-of-width register": func(r *Restorer) (*Bank, error) {
			r.WriteRegisters([]uint64{0, 1 << 8}, 10)
			return r.Finish(nil)
		},
		"wrong rng stream count": func(r *Restorer) (*Bank, error) {
			return r.Finish(make([][4]uint64, 3))
		},
	} {
		if b, err := finish(NewRestorer(64, alg, 4, 1)); err == nil || b != nil {
			t.Errorf("%s: accepted (bank %v, err %v)", name, b != nil, err)
		}
	}
}

// A restored bank serves the restored registers, estimates included.
func TestRestoreStateInvalidatesEstimateCache(t *testing.T) {
	regs := make([]uint64, 16)
	regs[3] = 200
	b, err := restoreState(16, bank.NewExactAlg(8), 4, 1, State{Registers: regs})
	if err != nil {
		t.Fatalf("restore state: %v", err)
	}
	est := b.EstimateAll()
	if est[3] != 200 || est[0] != 0 {
		t.Fatalf("EstimateAll served %v after a restore", est[:4])
	}
}
