package engine

import (
	"bytes"
	"testing"

	"repro/internal/bank"
	"repro/internal/shardbank"
	"repro/internal/snapcodec"
	"repro/internal/stream"
	"repro/internal/xrand"
)

func zipfKeys(n, events int, s float64, seed uint64) []int {
	src := stream.NewZipf(uint64(n), s, xrand.NewSeeded(seed))
	out := make([]int, events)
	for i := range out {
		out[i] = int(src.Next())
	}
	return out
}

func batches(keys []int, size int) [][]int {
	var out [][]int
	for lo := 0; lo < len(keys); lo += size {
		hi := min(lo+size, len(keys))
		out = append(out, keys[lo:hi])
	}
	return out
}

// The bank engine is behavior-pinned: its snapshots must be byte-identical
// to encoding the underlying shardbank state directly (the pre-engine
// store's exact construction), whole-bank and per-partition, with and
// without generator state.
func TestBankEngineSnapshotBytesPinned(t *testing.T) {
	const n, shards, seed = 1500, 8, 42
	alg := bank.NewMorrisAlg(0.01, 12)
	e := NewBank(shardbank.New(n, alg, shards, seed))
	ref := shardbank.New(n, alg, shards, seed)
	for _, b := range batches(zipfKeys(n, 20_000, 1.1, 7), 512) {
		e.ApplyBatch(b)
		ref.IncrementBatch(b)
	}

	encode := func(s *snapcodec.Snapshot) []byte {
		t.Helper()
		data, err := snapcodec.Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	// Whole bank, with rng state (the checkpoint image).
	state := ref.ExportState()
	want := &snapcodec.Snapshot{N: n, Shards: shards, Seed: seed,
		Registers: state.Registers, RNG: state.RNG}
	if err := want.SetAlg(alg); err != nil {
		t.Fatal(err)
	}
	got, err := e.Snapshot(0, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(got), encode(want)) {
		t.Fatal("checkpoint snapshot bytes diverge from direct shardbank encoding")
	}
	// Whole bank, registers only (the GET /snapshot payload).
	want.RNG = nil
	got, err = e.Snapshot(0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(got), encode(want)) {
		t.Fatal("serving snapshot bytes diverge from direct shardbank encoding")
	}
	// One partition (the anti-entropy exchange unit).
	const parts = 4
	lo, hi := snapcodec.PartitionRange(n, parts, 2)
	wantP := &snapcodec.Snapshot{N: n, Shards: shards, Seed: seed,
		Partition: 2, Parts: parts, Registers: state.Registers[lo:hi]}
	if err := wantP.SetAlg(alg); err != nil {
		t.Fatal(err)
	}
	gotP, err := e.Snapshot(2, parts, false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(gotP), encode(wantP)) {
		t.Fatal("partition snapshot bytes diverge from direct shardbank encoding")
	}
}

// FromSnapshot round-trips both engines: restore from a checkpoint image,
// absorb the same suffix as the original, and land on identical snapshots.
func TestFromSnapshotRoundTrip(t *testing.T) {
	const n = 2000
	for _, tc := range []struct {
		name string
		mk   func() Engine
	}{
		{"bank", func() Engine {
			return NewBank(shardbank.New(n, bank.NewMorrisAlg(0.02, 12), 8, 1))
		}},
		{"topk", func() Engine {
			e, err := NewTopK(n, bank.NewMorrisAlg(0.02, 12), 8, 32, 1)
			if err != nil {
				t.Fatal(err)
			}
			return e
		}},
		{"distinct", func() Engine {
			e, err := NewDistinct(n, 8, 10, 1)
			if err != nil {
				t.Fatal(err)
			}
			return e
		}},
		{"distinct-window", func() Engine {
			e, err := NewDistinctWindow(n, 8, 10, 4, int64(0), 1)
			if err != nil {
				t.Fatal(err)
			}
			return e
		}},
		{"f2", func() Engine {
			e, err := NewF2(n, 8, 5, 16, 1)
			if err != nil {
				t.Fatal(err)
			}
			return e
		}},
		{"f2-window", func() Engine {
			e, err := NewF2Window(n, 8, 5, 16, 4, int64(0), 1)
			if err != nil {
				t.Fatal(err)
			}
			return e
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			orig := tc.mk()
			history := batches(zipfKeys(n, 30_000, 1.1, 3), 777)
			half := len(history) / 2
			for _, b := range history[:half] {
				orig.ApplyBatch(b)
			}
			ckpt, err := orig.Snapshot(0, 0, true)
			if err != nil {
				t.Fatal(err)
			}
			// Encode/decode so the restore exercises the real wire format.
			blob, err := snapcodec.Encode(ckpt)
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := snapcodec.Decode(blob)
			if err != nil {
				t.Fatal(err)
			}
			restored, err := FromSnapshot(decoded)
			if err != nil {
				t.Fatal(err)
			}
			if restored.Kind() != orig.Kind() || restored.Len() != n {
				t.Fatalf("restored %s/%d", restored.Kind(), restored.Len())
			}
			for _, b := range history[half:] {
				orig.ApplyBatch(b)
				restored.ApplyBatch(b)
			}
			a, err := orig.Snapshot(0, 0, true)
			if err != nil {
				t.Fatal(err)
			}
			b2, err := restored.Snapshot(0, 0, true)
			if err != nil {
				t.Fatal(err)
			}
			ba, _ := snapcodec.Encode(a)
			bb, _ := snapcodec.Encode(b2)
			if !bytes.Equal(ba, bb) {
				t.Fatal("restored engine diverged from the original on the same suffix")
			}
			ha, err := orig.HashRange(0, n)
			if err != nil {
				t.Fatal(err)
			}
			hb, err := restored.HashRange(0, n)
			if err != nil {
				t.Fatal(err)
			}
			if ha != hb {
				t.Fatal("hash mismatch after identical history")
			}
		})
	}
}

// The top-k engine recovers the true heavy hitters of a Zipf(1.1) stream.
func TestTopKEngineRecall(t *testing.T) {
	const n, events = 50_000, 400_000
	e, err := NewTopK(n, bank.NewMorrisAlg(0.01, 14), 16, 128, 9)
	if err != nil {
		t.Fatal(err)
	}
	keys := zipfKeys(n, events, 1.4, 5)
	truth := make(map[int]int, n)
	for _, k := range keys {
		truth[k]++
	}
	for _, b := range batches(keys, 4096) {
		e.ApplyBatch(b)
	}
	top, err := e.TopK(10, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 10 {
		t.Fatalf("top-10 returned %d entries", len(top))
	}
	// The true top 5 must all be reported in the top 10 (Morris noise can
	// reorder close calls further down the ranking).
	type kv struct{ k, c int }
	var all []kv
	for k, c := range truth {
		all = append(all, kv{k, c})
	}
	reported := make(map[int]bool, len(top))
	for _, en := range top {
		reported[en.Key] = true
	}
	for rank := 0; rank < 5; rank++ {
		best := -1
		for i, e := range all {
			if best < 0 || e.c > all[best].c || (e.c == all[best].c && e.k < all[best].k) {
				best = i
			}
		}
		if !reported[all[best].k] {
			t.Fatalf("true rank-%d key %d (count %d) missing from top-10 %v",
				rank, all[best].k, all[best].c, top)
		}
		all[best], all[len(all)-1] = all[len(all)-1], all[best]
		all = all[:len(all)-1]
	}
}

// Partition snapshots exchange and max-join: after a pull-push round the
// replicas' partition hashes match; a repeated round changes nothing.
func TestTopKEngineMergeMaxConverges(t *testing.T) {
	const n, parts = 4000, 8
	alg := bank.NewMorrisAlg(0.02, 12)
	mk := func(seed uint64) *TopKEngine {
		e, err := NewTopK(n, alg, parts, 24, seed)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	a, b := mk(1), mk(2) // different rng universes, same logical stream
	keys := zipfKeys(n, 60_000, 1.2, 11)
	for _, batch := range batches(keys, 512) {
		a.ApplyBatch(batch)
		b.ApplyBatch(batch)
	}
	exchange := func(p int) {
		sa, err := a.Snapshot(p, parts, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.CheckPeer(sa, false); err != nil {
			t.Fatalf("checkpeer: %v", err)
		}
		if err := b.MergeMax(sa); err != nil {
			t.Fatal(err)
		}
		sb, err := b.Snapshot(p, parts, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.MergeMax(sb); err != nil {
			t.Fatal(err)
		}
	}
	for p := 0; p < parts; p++ {
		exchange(p)
	}
	hashes := func() ([]uint64, []uint64) {
		var ha, hb []uint64
		for p := 0; p < parts; p++ {
			lo, hi := snapcodec.PartitionRange(n, parts, p)
			va, err := a.HashRange(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			vb, err := b.HashRange(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			ha = append(ha, va)
			hb = append(hb, vb)
		}
		return ha, hb
	}
	ha, hb := hashes()
	for p := range ha {
		if ha[p] != hb[p] {
			t.Fatalf("partition %d hashes diverge after exchange", p)
		}
	}
	before := append([]uint64(nil), ha...)
	for p := 0; p < parts; p++ {
		exchange(p) // idempotence
	}
	ha, hb = hashes()
	for p := range ha {
		if ha[p] != before[p] || hb[p] != before[p] {
			t.Fatalf("partition %d changed on a repeated max-join round", p)
		}
	}
}

// CheckPeer rejects cross-engine, cross-shape, and hostile payloads — the
// validate-before-stage contract.
func TestTopKEngineCheckPeerRejects(t *testing.T) {
	alg := bank.NewMorrisAlg(0.02, 12)
	e, err := NewTopK(1000, alg, 4, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A bank snapshot into a topk engine (and vice versa).
	bankSnap := &snapcodec.Snapshot{N: 1000, Shards: 4, Seed: 1,
		Registers: make([]uint64, 1000)}
	if err := bankSnap.SetAlg(alg); err != nil {
		t.Fatal(err)
	}
	if err := e.CheckPeer(bankSnap, false); err == nil {
		t.Fatal("bank snapshot accepted by topk engine")
	}
	be := NewBank(shardbank.New(1000, alg, 4, 1))
	tkSnap, err := e.Snapshot(0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := be.CheckPeer(tkSnap, false); err == nil {
		t.Fatal("topk snapshot accepted by bank engine")
	}
	// Shape mismatch.
	other, err := NewTopK(1000, alg, 8, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	snap8, err := other.Snapshot(0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CheckPeer(snap8, false); err == nil {
		t.Fatal("8-shard snapshot accepted by 4-shard engine")
	}
	// Disjoint merge needs a MergeAlgorithm.
	ex, err := NewTopK(1000, bank.NewExactAlg(12), 4, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	exSnap, err := ex.Snapshot(0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.CheckPeer(exSnap, true); err == nil {
		t.Fatal("disjoint merge accepted on exact registers")
	}
	if err := ex.CheckPeer(exSnap, false); err != nil {
		t.Fatalf("max join should not need merge support: %v", err)
	}
	// A payload tracking a key outside its shard's range.
	bad, err := e.Snapshot(1, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	pl := topkPayload{cap: 16, shards: []topkShardState{{
		index: 1, items: []uint64{10}, regs: []uint64{3}, n: 1,
	}}}
	bad.Payload = pl.encode() // key 10 lives in shard 0, not 1
	if err := e.CheckPeer(bad, false); err == nil {
		t.Fatal("out-of-range slot item accepted")
	}
}

// A disjoint top-k merge unions slot tables per shard and sums stream
// lengths; merged registers dominate both inputs.
func TestTopKEngineMergeDisjoint(t *testing.T) {
	const n, parts = 2000, 4
	alg := bank.NewMorrisAlg(0.02, 12)
	a, err := NewTopK(n, alg, parts, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTopK(n, alg, parts, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range batches(zipfKeys(n, 20_000, 1.3, 17), 512) {
		a.ApplyBatch(batch)
	}
	for _, batch := range batches(zipfKeys(n, 20_000, 1.3, 18), 512) {
		b.ApplyBatch(batch)
	}
	aTop, err := a.TopK(5, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	snapB, err := b.Snapshot(0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.CheckPeer(snapB, true); err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(snapB); err != nil {
		t.Fatal(err)
	}
	// The hottest keys of both streams (Zipf: low keys) must still rank,
	// with estimates at least their pre-merge level.
	merged, err := a.TopK(5, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) == 0 || merged[0].Key != aTop[0].Key {
		t.Fatalf("merged top %v lost the dominant key %v", merged, aTop)
	}
	if merged[0].Estimate < aTop[0].Estimate {
		t.Fatalf("merged estimate %.0f below input %.0f", merged[0].Estimate, aTop[0].Estimate)
	}
}
