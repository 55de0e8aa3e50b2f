package engine

import (
	"testing"

	"repro/internal/bank"
	"repro/internal/snapcodec"
)

// fuzzShape is the fixed engine shape the snapshot fuzz targets validate
// against — small enough to keep iterations fast, multi-shard and
// multi-bucket so the shard/ring validation paths all run.
const (
	fuzzN         = 2000
	fuzzParts     = 4
	fuzzPrecision = 8
	fuzzBuckets   = 4
)

// FuzzDistinctSnapshot throws arbitrary bytes at the distinct engine's
// payload parser through every consumer — parse, CheckPeer, FromSnapshot —
// and pins the validate-before-stage contract: malformed payloads must
// error (never panic, never mis-decode into a working engine), and any
// snapshot CheckPeer accepts must merge without error.
func FuzzDistinctSnapshot(f *testing.F) {
	seedCorpus := func(mk func() (Engine, error)) {
		e, err := mk()
		if err != nil {
			f.Fatal(err)
		}
		e.ApplyBatch([]int{1, 2, 3, 999, 1500})
		snap, err := e.Snapshot(0, 0, false)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(snap.Payload, uint16(len(snap.Registers)))
		part, err := e.Snapshot(1, fuzzParts, false)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(part.Payload, uint16(len(part.Registers)))
	}
	seedCorpus(func() (Engine, error) { return NewDistinct(fuzzN, fuzzParts, fuzzPrecision, 42) })
	seedCorpus(func() (Engine, error) {
		return NewDistinctWindow(fuzzN, fuzzParts, fuzzPrecision, fuzzBuckets, 0, 42)
	})
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{1, 0, 8, 1, 0, 0}, uint16(0))

	plain, err := NewDistinct(fuzzN, fuzzParts, fuzzPrecision, 42)
	if err != nil {
		f.Fatal(err)
	}
	windowed, err := NewDistinctWindow(fuzzN, fuzzParts, fuzzPrecision, fuzzBuckets, 0, 42)
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, payload []byte, nRegs uint16) {
		// A register section sized by the fuzzer, filled with in-width
		// values derived from the payload (the codec would have rejected
		// out-of-width registers before the engine ever sees them).
		regs := make([]uint64, int(nRegs)%(fuzzParts*fuzzBuckets*(1<<fuzzPrecision)+1))
		for i := range regs {
			if len(payload) > 0 {
				regs[i] = uint64(payload[i%len(payload)]) % 62
			}
		}
		snap := &snapcodec.Snapshot{
			N: fuzzN, Shards: fuzzParts, Seed: 42,
			Engine: KindDistinct, Payload: payload, Registers: regs,
		}
		if err := snap.SetAlg(distinctAlg()); err != nil {
			t.Fatal(err)
		}
		for _, local := range []Engine{plain, windowed} {
			for _, disjoint := range []bool{false, true} {
				if err := local.CheckPeer(snap, disjoint); err != nil {
					continue
				}
				// Accepted ⇒ staged ⇒ the merge may not fail.
				if err := local.MergeMax(snap); err != nil {
					t.Fatalf("CheckPeer accepted but MergeMax failed: %v", err)
				}
				if err := local.Merge(snap); err != nil {
					t.Fatalf("CheckPeer accepted but Merge failed: %v", err)
				}
			}
		}
		restored, err := DistinctFromSnapshot(snap)
		if err != nil {
			return
		}
		// A payload good enough to restore must yield a fully working
		// engine: re-snapshot and re-restore without error.
		again, err := restored.Snapshot(0, 0, true)
		if err != nil {
			t.Fatalf("restored engine cannot snapshot: %v", err)
		}
		if _, err := DistinctFromSnapshot(again); err != nil {
			t.Fatalf("restored engine's snapshot does not restore: %v", err)
		}
	})
}

// FuzzF2Snapshot is the f2 companion of FuzzDistinctSnapshot: arbitrary
// payload bytes must error or decode into a mergeable sketch — never
// panic — and a forged register section on the payload-only engine must
// always be rejected.
func FuzzF2Snapshot(f *testing.F) {
	const rows, cols = 3, 8
	seedCorpus := func(mk func() (Engine, error)) {
		e, err := mk()
		if err != nil {
			f.Fatal(err)
		}
		e.ApplyBatch([]int{1, 2, 3, 999, 1500})
		snap, err := e.Snapshot(0, 0, false)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(snap.Payload, false)
		part, err := e.Snapshot(1, fuzzParts, false)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(part.Payload, false)
	}
	seedCorpus(func() (Engine, error) { return NewF2(fuzzN, fuzzParts, rows, cols, 42) })
	seedCorpus(func() (Engine, error) { return NewF2Window(fuzzN, fuzzParts, rows, cols, fuzzBuckets, 0, 42) })
	f.Add([]byte{}, false)
	f.Add([]byte{1, 0, 3, 8, 1, 0, 0}, true)

	plain, err := NewF2(fuzzN, fuzzParts, rows, cols, 42)
	if err != nil {
		f.Fatal(err)
	}
	windowed, err := NewF2Window(fuzzN, fuzzParts, rows, cols, fuzzBuckets, 0, 42)
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, payload []byte, forgeRegisters bool) {
		snap := &snapcodec.Snapshot{
			N: fuzzN, Shards: fuzzParts, Seed: 42,
			Engine: KindF2, Payload: payload,
		}
		if forgeRegisters {
			snap.Registers = []uint64{1, 2, 3}
		}
		if err := snap.SetAlg(f2Alg()); err != nil {
			t.Fatal(err)
		}
		for _, local := range []Engine{plain, windowed} {
			for _, disjoint := range []bool{false, true} {
				if err := local.CheckPeer(snap, disjoint); err != nil {
					continue
				}
				if forgeRegisters {
					t.Fatal("payload-only engine accepted a forged register section")
				}
				if err := local.MergeMax(snap); err != nil {
					t.Fatalf("CheckPeer accepted but MergeMax failed: %v", err)
				}
				if err := local.Merge(snap); err != nil {
					t.Fatalf("CheckPeer accepted but Merge failed: %v", err)
				}
			}
		}
		restored, err := F2FromSnapshot(snap)
		if err != nil {
			return
		}
		if forgeRegisters {
			t.Fatal("payload-only engine restored from a forged register section")
		}
		again, err := restored.Snapshot(0, 0, true)
		if err != nil {
			t.Fatalf("restored engine cannot snapshot: %v", err)
		}
		if _, err := F2FromSnapshot(again); err != nil {
			t.Fatalf("restored engine's snapshot does not restore: %v", err)
		}
	})
}

// FuzzRingSnapshot is the one fuzz target of the one ring payload parser,
// over every engine built on it — including the window engine, whose parser
// is reachable from POST /v1/merge and anti-entropy. Arbitrary payload bytes
// and register sections, whole or partition, must error or decode into a
// mergeable sketch: never panic, a CheckPeer-accepted snapshot's merges never
// fail (validate-before-stage), and a restored engine keeps working.
func FuzzRingSnapshot(f *testing.F) {
	windowAlg := bank.NewMorrisAlg(0.05, 12)
	flavours := []struct {
		kind string
		alg  bank.Algorithm
		mk   func() (Engine, error)
	}{
		{KindWindow, windowAlg, func() (Engine, error) {
			return NewWindow(fuzzN, windowAlg, fuzzParts, fuzzBuckets, 0, 42)
		}},
		{KindDistinct, distinctAlg(), func() (Engine, error) { return NewDistinct(fuzzN, fuzzParts, fuzzPrecision, 42) }},
		{KindDistinct, distinctAlg(), func() (Engine, error) {
			return NewDistinctWindow(fuzzN, fuzzParts, fuzzPrecision, fuzzBuckets, 0, 42)
		}},
		{KindF2, f2Alg(), func() (Engine, error) { return NewF2(fuzzN, fuzzParts, 3, 8, 42) }},
		{KindF2, f2Alg(), func() (Engine, error) { return NewF2Window(fuzzN, fuzzParts, 3, 8, fuzzBuckets, 0, 42) }},
	}
	locals := make([]Engine, len(flavours))
	for i, fl := range flavours {
		e, err := fl.mk()
		if err != nil {
			f.Fatal(err)
		}
		locals[i] = e
		seed, err := fl.mk()
		if err != nil {
			f.Fatal(err)
		}
		seed.ApplyBatch([]int{1, 2, 3, 999, 1500})
		if w, ok := seed.(Windowed); ok {
			w.Advance(2)
			seed.ApplyBatch([]int{4, 5, 1999})
		}
		for _, withState := range []bool{false, true} {
			snap, err := seed.Snapshot(0, 0, withState)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(i), uint8(fuzzParts), snap.Payload, uint16(len(snap.Registers)))
		}
		part, err := seed.Snapshot(1, fuzzParts, false)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), uint8(1), part.Payload, uint16(len(part.Registers)))
	}
	// The hand-written seeds of FuzzDistinctSnapshot and FuzzF2Snapshot.
	f.Add(uint8(1), uint8(fuzzParts), []byte{}, uint16(0))
	f.Add(uint8(1), uint8(fuzzParts), []byte{1, 0, 8, 1, 0, 0}, uint16(0))
	f.Add(uint8(3), uint8(fuzzParts), []byte{1, 0, 3, 8, 1, 0, 0}, uint16(3))

	f.Fuzz(func(t *testing.T, flavour, part uint8, payload []byte, nRegs uint16) {
		fl := flavours[int(flavour)%len(flavours)]
		local := locals[int(flavour)%len(flavours)]
		// In-width registers derived from the payload: the codec rejects
		// out-of-width ones before an engine ever sees them.
		regs := make([]uint64, int(nRegs)%(fuzzBuckets*fuzzN+1))
		for i := range regs {
			if len(payload) > 0 {
				regs[i] = uint64(payload[i%len(payload)]) * 31 & (1<<fl.alg.Width() - 1)
			}
		}
		snap := &snapcodec.Snapshot{
			N: fuzzN, Shards: fuzzParts, Seed: 42,
			Engine: fl.kind, Payload: payload, Registers: regs,
		}
		if p := int(part) % (fuzzParts + 1); p < fuzzParts {
			snap.Partition, snap.Parts = p, fuzzParts
		}
		if err := snap.SetAlg(fl.alg); err != nil {
			t.Fatal(err)
		}
		for _, disjoint := range []bool{false, true} {
			if err := local.CheckPeer(snap, disjoint); err != nil {
				continue
			}
			// Accepted ⇒ staged ⇒ the merge may not fail.
			if err := local.MergeMax(snap); err != nil {
				t.Fatalf("CheckPeer accepted but MergeMax failed: %v", err)
			}
			if disjoint {
				if err := local.Merge(snap); err != nil {
					t.Fatalf("CheckPeer accepted but Merge failed: %v", err)
				}
			}
		}
		restored, err := FromSnapshot(snap)
		if err != nil {
			return
		}
		// A payload good enough to restore must yield a fully working engine.
		restored.ApplyBatch([]int{0, fuzzN - 1})
		again, err := restored.Snapshot(0, 0, true)
		if err != nil {
			t.Fatalf("restored engine cannot snapshot: %v", err)
		}
		if _, err := FromSnapshot(again); err != nil {
			t.Fatalf("restored engine's snapshot does not restore: %v", err)
		}
	})
}
