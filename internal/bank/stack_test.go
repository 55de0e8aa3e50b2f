package bank_test

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/bank"
	"repro/internal/engine"
	"repro/internal/shardbank"
	"repro/internal/snapcodec"
	"repro/internal/stream"
	"repro/internal/xrand"
)

// halvingAlg is a toy register that steps with probability 2^-reg. It is
// declared in this file alone: a new register algorithm needs nothing
// outside its own declaration and a Decode entry to be stepped, stored,
// snapshotted and restored by the rest of the system.
type halvingAlg struct{ width int }

func (h halvingAlg) Width() int { return h.width }

func (h halvingAlg) StepProb(reg uint64) float64 {
	if reg >= 1<<uint(h.width)-1 {
		return 0
	}
	return math.Ldexp(1, -int(reg))
}

func (h halvingAlg) Step(reg uint64, rng *xrand.Rand) uint64 {
	if rng.Bernoulli(h.StepProb(reg)) {
		return reg + 1
	}
	return reg
}

func (h halvingAlg) Estimate(reg uint64) float64 { return math.Ldexp(1, int(reg)) - 1 }
func (h halvingAlg) Name() string                { return "halving" }
func (h halvingAlg) Param() uint64               { return 0 }

func decodeHalving(width int, param uint64) (bank.Algorithm, error) {
	if width < 1 || width > 32 || param != 0 {
		return nil, fmt.Errorf("halving: bad shape width=%d param=%d", width, param)
	}
	return halvingAlg{width}, nil
}

// TestBankSnapshotRestore takes every register algorithm, the toy one too,
// through the whole storage stack: a sharded bank counts a Zipf batch
// through the bank engine, its snapshot is encoded and decoded, and the
// bank rebuilt from it must hold identical registers and go on stepping
// identically. The packed payload must restore into a one-stripe bank too.
// The toy runs at a tabulated width and above maxTableWidth, so both step
// paths see it.
func TestBankSnapshotRestore(t *testing.T) {
	bank.RegisterForTest(t, "halving", decodeHalving)
	const n = 500
	src := stream.NewZipf(n, 1.1, xrand.NewSeeded(3))
	keys := make([]int, 20000)
	for i := range keys {
		keys[i] = int(src.Next())
	}
	for _, alg := range []bank.Algorithm{
		bank.NewMorrisAlg(0.05, 13), bank.NewCsurosAlg(16, 10), bank.NewExactAlg(12),
		halvingAlg{8}, halvingAlg{20},
	} {
		name := fmt.Sprintf("%s/%d", alg.Name(), alg.Width())
		live := engine.NewBank(shardbank.New(n, alg, 4, 7))
		live.ApplyBatch(keys)
		snap, err := live.Snapshot(0, 0, true)
		if err != nil {
			t.Fatalf("%s: snapshot: %v", name, err)
		}
		blob, err := snapcodec.Encode(snap)
		snap.Release()
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		dec, err := snapcodec.Decode(blob)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		back, err := engine.BankFromSnapshot(dec)
		if err != nil {
			t.Fatalf("%s: restore: %v", name, err)
		}
		if back.Algorithm() != alg {
			t.Fatalf("%s: restored algorithm %v", name, back.Algorithm())
		}
		// The same blob decoded straight into a one-stripe bank, as a
		// store restores its checkpoints.
		var r *shardbank.Restorer
		if _, err := snapcodec.DecodeInto(bytes.NewReader(blob), func(h *snapcodec.Snapshot) (snapcodec.RegisterSink, error) {
			r = shardbank.NewRestorer(h.N, alg, 1, 1)
			return r, nil
		}); err != nil {
			t.Fatalf("%s: streamed decode: %v", name, err)
		}
		streamed, err := r.Finish(nil)
		if err != nil {
			t.Fatalf("%s: streamed restore: %v", name, err)
		}
		moved := false
		for i := 0; i < n; i++ {
			reg := live.Bank().Register(i)
			if back.Bank().Register(i) != reg || streamed.Register(i) != reg {
				t.Fatalf("%s: register %d restored as %d (decoded) and %d (streamed), want %d",
					name, i, back.Bank().Register(i), streamed.Register(i), reg)
			}
			moved = moved || reg != 0
		}
		if !moved {
			t.Fatalf("%s: no register moved", name)
		}
		// The snapshot carried the generator states: both banks step on alike.
		live.ApplyBatch(keys)
		back.ApplyBatch(keys)
		for i := 0; i < n; i++ {
			if got, want := back.Bank().Register(i), live.Bank().Register(i); got != want {
				t.Fatalf("%s: register %d = %d after restore and replay, want %d", name, i, got, want)
			}
		}
	}
}

// TestBankIsPacked checks the paper's memory claim on the bank that serves
// it: a register costs its width in bits, not a machine word.
func TestBankIsPacked(t *testing.T) {
	b := shardbank.New(10000, bank.NewMorrisAlg(0.05, 12), 8, 1)
	// 10000 × 12 bits = 15000 bytes; a []uint64 would be 80000.
	if b.SizeBytes() > 16000 {
		t.Fatalf("bank footprint %d bytes, want ≈ 15000", b.SizeBytes())
	}
}
