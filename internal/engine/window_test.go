package engine

import (
	"bytes"
	"testing"

	"repro/internal/bank"
	"repro/internal/snapcodec"
)

// exactWindow builds a window engine over exact registers, where every
// windowed estimate is an exact count — the semantics oracle.
func exactWindow(t *testing.T, n, parts, buckets int) *WindowEngine {
	t.Helper()
	e, err := NewWindow(n, bank.NewExactAlg(20), parts, buckets, int64(1e9), 42)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func applyKey(e *WindowEngine, key, times int) {
	batch := make([]int, times)
	for i := range batch {
		batch[i] = key
	}
	e.ApplyBatch(batch)
}

func estimateWindow(t *testing.T, e *WindowEngine, key, w int) float64 {
	t.Helper()
	v, err := e.EstimateWindow(key, w)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestWindowRotationSemantics drives explicit epochs through a 4-bucket
// ring and checks that windows include exactly the trailing buckets and
// that rotation expires the oldest.
func TestWindowRotationSemantics(t *testing.T) {
	e := exactWindow(t, 100, 2, 4)

	applyKey(e, 7, 10) // epoch 0
	e.Advance(1)
	applyKey(e, 7, 20) // epoch 1
	e.Advance(2)
	applyKey(e, 7, 5) // epoch 2

	if got := estimateWindow(t, e, 7, 1); got != 5 {
		t.Fatalf("window 1 = %v, want 5", got)
	}
	if got := estimateWindow(t, e, 7, 2); got != 25 {
		t.Fatalf("window 2 = %v, want 25", got)
	}
	if got := estimateWindow(t, e, 7, 4); got != 35 {
		t.Fatalf("window 4 = %v, want 35", got)
	}
	if got := e.Estimate(7); got != 35 {
		t.Fatalf("full-window Estimate = %v, want 35", got)
	}

	// Epoch 4 expires epoch 0's bucket (ring slot 0 is reused).
	e.Advance(4)
	if got := estimateWindow(t, e, 7, 4); got != 25 {
		t.Fatalf("after expiry, window 4 = %v, want 25", got)
	}
	// A jump past the whole ring empties it.
	e.Advance(100)
	if got := estimateWindow(t, e, 7, 4); got != 0 {
		t.Fatalf("after full-ring jump, window 4 = %v, want 0", got)
	}
	if e.Epoch() != 100 {
		t.Fatalf("Epoch() = %d, want 100", e.Epoch())
	}
	// Stale advances are no-ops.
	e.Advance(50)
	if e.Epoch() != 100 {
		t.Fatalf("Epoch() after stale advance = %d", e.Epoch())
	}
}

// TestWindowTopKDrift shifts the hot key between buckets: the full window
// ranks the overall total, the trailing bucket only the recent hot key.
func TestWindowTopKDrift(t *testing.T) {
	e := exactWindow(t, 100, 2, 4)
	applyKey(e, 3, 50) // old hot key
	e.Advance(1)
	applyKey(e, 90, 30) // new hot key (other shard)
	applyKey(e, 3, 5)

	full, err := e.TopK(2, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 2 || full[0].Key != 3 || full[0].Estimate != 55 || full[1].Key != 90 {
		t.Fatalf("full-window top-2 = %+v", full)
	}
	recent, err := e.TopKWindow(2, 0, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recent) != 2 || recent[0].Key != 90 || recent[0].Estimate != 30 ||
		recent[1].Key != 3 || recent[1].Estimate != 5 {
		t.Fatalf("trailing-bucket top-2 = %+v", recent)
	}
	// Misaligned range and out-of-range windows error.
	if _, err := e.TopKWindow(2, 1, 100, 1); err == nil {
		t.Fatal("misaligned range accepted")
	}
	if _, err := e.TopKWindow(2, 0, 100, 5); err == nil {
		t.Fatal("window wider than the ring accepted")
	}
	if _, err := e.EstimateWindow(7, 0); err == nil {
		t.Fatal("zero window accepted")
	}
}

// TestWindowSnapshotRoundTrip pins the checkpoint path: snapshot with
// state, restore, and the restored engine must serve identical snapshots
// and continue identically under further load.
func TestWindowSnapshotRoundTrip(t *testing.T) {
	mk := func() *WindowEngine {
		e, err := NewWindow(300, bank.NewMorrisAlg(0.05, 10), 4, 3, int64(2e9), 7)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	drive := func(e *WindowEngine) {
		e.ApplyBatch([]int{1, 2, 3, 299, 299, 150})
		e.Advance(1)
		e.ApplyBatch([]int{1, 1, 1, 200, 200})
		e.Advance(2)
		e.ApplyBatch([]int{5, 5, 5, 5})
	}
	e := mk()
	drive(e)

	snap, err := e.Snapshot(0, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := snapcodec.Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := snapcodec.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Engine != KindWindow {
		t.Fatalf("decoded engine kind %q", dec.Engine)
	}
	got, err := WindowFromSnapshot(dec)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch() != 2 || got.BucketNanos() != int64(2e9) || got.WindowBuckets() != 3 {
		t.Fatalf("restored shape: epoch %d, bucketNanos %d, buckets %d",
			got.Epoch(), got.BucketNanos(), got.WindowBuckets())
	}

	// Same continued history on both → identical serialized state.
	cont := func(e *WindowEngine) []byte {
		e.Advance(3)
		e.ApplyBatch([]int{1, 2, 3, 4, 5, 250})
		s, err := e.Snapshot(0, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		b, err := snapcodec.Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// Fresh reference replaying the whole history.
	ref := mk()
	drive(ref)
	if !bytes.Equal(cont(got), cont(ref)) {
		t.Fatal("restored engine diverges from replayed reference")
	}
}

// TestWindowMergeMaxConverges: two replicas of overlapping histories
// exchange partition snapshots pull-push; afterwards every partition
// snapshot must be byte-identical — including clocks that differed.
func TestWindowMergeMaxConverges(t *testing.T) {
	mk := func() *WindowEngine {
		e, err := NewWindow(200, bank.NewMorrisAlg(0.05, 10), 4, 4, int64(1e9), 42)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	a, b := mk(), mk()
	// Shared history.
	shared := []int{1, 1, 2, 50, 60, 70, 199, 199}
	a.ApplyBatch(shared)
	b.ApplyBatch(shared)
	a.Advance(1)
	b.Advance(1)
	// Divergence: a sees more of epoch 1, b rotates further.
	a.ApplyBatch([]int{1, 1, 1, 120})
	b.ApplyBatch([]int{1})
	b.Advance(2)
	b.ApplyBatch([]int{9, 9})

	exchange := func(dst, src *WindowEngine) {
		for p := 0; p < 4; p++ {
			snap, err := src.Snapshot(p, 4, false)
			if err != nil {
				t.Fatal(err)
			}
			// Round-trip through the codec like the real wire path.
			blob, err := snapcodec.Encode(snap)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := snapcodec.Decode(blob)
			if err != nil {
				t.Fatal(err)
			}
			if err := dst.CheckPeer(dec, false); err != nil {
				t.Fatal(err)
			}
			if err := dst.MergeMax(dec); err != nil {
				t.Fatal(err)
			}
		}
	}
	exchange(a, b) // pull
	exchange(b, a) // push

	for p := 0; p < 4; p++ {
		sa, err := a.Snapshot(p, 4, false)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := b.Snapshot(p, 4, false)
		if err != nil {
			t.Fatal(err)
		}
		ba, _ := snapcodec.Encode(sa)
		bb, _ := snapcodec.Encode(sb)
		if !bytes.Equal(ba, bb) {
			t.Fatalf("partition %d snapshots diverge after pull-push exchange", p)
		}
		ha, err := a.HashRange(snapRange(t, a, p))
		if err != nil {
			t.Fatal(err)
		}
		hb, err := b.HashRange(snapRange(t, b, p))
		if err != nil {
			t.Fatal(err)
		}
		if ha != hb {
			t.Fatalf("partition %d hashes diverge after exchange", p)
		}
	}
	if a.Epoch() != 2 || b.Epoch() != 2 {
		t.Fatalf("clocks did not converge: %d vs %d", a.Epoch(), b.Epoch())
	}
	// Idempotence: merging again changes nothing.
	before, _ := snapcodec.Encode(snapOf(t, a, 0, 0, false))
	exchange(a, b)
	after, _ := snapcodec.Encode(snapOf(t, a, 0, 0, false))
	if !bytes.Equal(before, after) {
		t.Fatal("MergeMax is not idempotent")
	}
}

func snapRange(t *testing.T, e *WindowEngine, p int) (int, int) {
	t.Helper()
	return snapcodec.PartitionRange(e.Len(), e.Shards(), p)
}

// snapOf captures a snapshot or fails the test.
func snapOf(t *testing.T, e Engine, part, parts int, withState bool) *snapcodec.Snapshot {
	t.Helper()
	s, err := e.Snapshot(part, parts, withState)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWindowMergeDisjoint: two sites counting disjoint streams merge
// epoch by epoch via Remark 2.4 (so it needs a merge algorithm — exact
// registers are rejected, see TestWindowCheckPeerRejects). Morris(0.001)
// registers at these counts are near-exact (per-register std ≈ √(a/2) ≈
// 2%), so the merged windows must land within a few events of the union.
func TestWindowMergeDisjoint(t *testing.T) {
	mk := func(seed uint64) *WindowEngine {
		e, err := NewWindow(100, bank.NewMorrisAlg(0.001, 14), 2, 4, int64(1e9), seed)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	a, b := mk(42), mk(99)
	applyKey(a, 7, 100)
	a.Advance(1)
	applyKey(a, 7, 30)
	applyKey(b, 7, 50) // b's epoch-0 bucket
	b.Advance(1)
	applyKey(b, 7, 20)

	blob, err := snapcodec.Encode(snapOf(t, b, 0, 0, false))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := snapcodec.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.CheckPeer(dec, true); err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(dec); err != nil {
		t.Fatal(err)
	}
	within := func(got, want, slack float64) bool {
		return got >= want-slack && got <= want+slack
	}
	if got := estimateWindow(t, a, 7, 1); !within(got, 50, 10) {
		t.Fatalf("merged trailing bucket = %v, want ≈50", got)
	}
	if got := estimateWindow(t, a, 7, 4); !within(got, 200, 25) {
		t.Fatalf("merged full window = %v, want ≈200", got)
	}
}

// TestWindowCheckPeerRejects: shape, ring, and kind mismatches are caught
// before any merge could be staged.
func TestWindowCheckPeerRejects(t *testing.T) {
	e := exactWindow(t, 100, 2, 4)
	for _, tc := range []struct {
		name string
		mk   func() *snapcodec.Snapshot
	}{
		{"ring length", func() *snapcodec.Snapshot {
			o := exactWindow(t, 100, 2, 8)
			return snapOf(t, o, 0, 0, false)
		}},
		{"bucket width", func() *snapcodec.Snapshot {
			o, err := NewWindow(100, bank.NewExactAlg(20), 2, 4, int64(5e9), 42)
			if err != nil {
				t.Fatal(err)
			}
			return snapOf(t, o, 0, 0, false)
		}},
		{"key space", func() *snapcodec.Snapshot {
			o := exactWindow(t, 200, 2, 4)
			return snapOf(t, o, 0, 0, false)
		}},
		{"algorithm", func() *snapcodec.Snapshot {
			o, err := NewWindow(100, bank.NewMorrisAlg(0.05, 10), 2, 4, int64(1e9), 42)
			if err != nil {
				t.Fatal(err)
			}
			return snapOf(t, o, 0, 0, false)
		}},
	} {
		if err := e.CheckPeer(tc.mk(), false); err == nil {
			t.Fatalf("%s mismatch accepted", tc.name)
		}
	}
	// Cross-engine rejection, both directions.
	tk, err := NewTopK(100, bank.NewExactAlg(20), 2, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CheckPeer(snapOf(t, tk, 0, 0, false), false); err == nil {
		t.Fatal("topk snapshot accepted by window engine")
	}
	if err := tk.CheckPeer(snapOf(t, e, 0, 0, false), false); err == nil {
		t.Fatal("window snapshot accepted by topk engine")
	}
	// Disjoint merge needs a merge algorithm: exact has none.
	if err := e.CheckPeer(snapOf(t, exactWindow(t, 100, 2, 4), 0, 0, false), true); err == nil {
		t.Fatal("disjoint merge accepted without a merge algorithm")
	}
}

// TestWindowShapeBounds: a ring whose serialized register count would
// exceed the codec's cap is rejected at construction — not discovered at
// the first checkpoint, which would brick checkpointing on a live daemon.
func TestWindowShapeBounds(t *testing.T) {
	if _, err := NewWindow(1<<24, bank.NewExactAlg(20), 2, 8, 0, 42); err == nil {
		t.Fatal("n × B beyond snapcodec.MaxRegisters accepted")
	}
	if _, err := NewWindow(1<<23, bank.NewExactAlg(20), 2, 8, 0, 42); err != nil {
		t.Fatalf("legal shape rejected: %v", err)
	}
}

// foldEveryKey is the windowed read path with nothing skipped: every key of
// every shard folded over the trailing w buckets — the reference the
// run-skipping scan must reproduce. It also holds the run maxima to the
// registers they summarise.
func foldEveryKey(t *testing.T, e *WindowEngine, w int) []float64 {
	t.Helper()
	out := make([]float64, e.Len())
	for _, sh := range e.shards {
		sh.mu.Lock()
		c := sh.cells.(*windowCells)
		slots := sh.live(w)
		for key := sh.lo; key < sh.hi; key++ {
			out[key] = c.fold(slots, sh.cur, key)
		}
		for j, arr := range c.regs {
			for run := range c.runMax[j] {
				top := uint64(0)
				for i := run * runLen; i < min((run+1)*runLen, c.span); i++ {
					top = max(top, arr.Get(i))
				}
				if got := c.runMax[j][run]; got != top {
					t.Errorf("shard %d bucket %d run %d: runMax %d, largest register %d", sh.index, j, run, got, top)
				}
			}
		}
		sh.mu.Unlock()
	}
	return out
}

// TopKWindow, EstimateAllWindow and the ring's range sum skip whole runs of
// keys by their bound; across rotations, a ≥B-jump relabel, disjoint and
// max joins, an evict and a snapshot load they must answer exactly what
// folding every key answers — for the Remark 2.4 fold (Morris) and the
// summing one (Csűrös).
func TestWindowReadsMatchFoldEveryKey(t *testing.T) {
	const n, parts, buckets = 3000, 4, 4 // 750-key shards: 5 full runs and a partial one
	for _, alg := range []bank.Algorithm{bank.NewMorrisAlg(0.05, 12), bank.NewCsurosAlg(12, 6)} {
		mk := func(seed uint64) *WindowEngine {
			e, err := NewWindow(n, alg, parts, buckets, int64(1e9), seed)
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
		e := mk(42)
		check := func(what string) {
			t.Helper()
			for _, w := range []int{1, 2, buckets} {
				ref := foldEveryKey(t, e, w)
				all, err := e.EstimateAllWindow(w)
				if err != nil {
					t.Fatal(err)
				}
				for key := range ref {
					if all[key] != ref[key] {
						t.Fatalf("%s %s w=%d: EstimateAllWindow[%d] = %v, fold %v", alg.Name(), what, w, key, all[key], ref[key])
					}
				}
				lo1, _ := snapRange(t, e, 1)
				_, hi2 := snapRange(t, e, 2)
				for _, r := range [][2]int{{0, n}, {lo1, hi2}, {0, lo1}} {
					sum := 0.0
					for _, v := range ref[r[0]:r[1]] {
						sum += v
					}
					if got, err := e.rangeEstimate(r[0], r[1], w); err != nil || got != sum {
						t.Fatalf("%s %s w=%d: range sum [%d, %d) = %v, %v; fold sum %v", alg.Name(), what, w, r[0], r[1], got, err, sum)
					}
					for _, k := range []int{1, 10, n + 5} {
						want := make([]Entry, 0, min(k, r[1]-r[0])+1)
						for key := r[0]; key < r[1]; key++ {
							if ref[key] > 0 {
								want = topkPush(want, min(k, r[1]-r[0]), key, ref[key])
							}
						}
						got, err := e.TopKWindow(k, r[0], r[1], w)
						if err != nil {
							t.Fatal(err)
						}
						if len(got) != len(want) {
							t.Fatalf("%s %s w=%d: TopKWindow(%d, %d, %d) ranks %d keys, fold %d", alg.Name(), what, w, k, r[0], r[1], len(got), len(want))
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("%s %s w=%d: TopKWindow(%d, %d, %d) rank %d = %+v, fold %+v", alg.Name(), what, w, k, r[0], r[1], i, got[i], want[i])
							}
						}
					}
				}
			}
		}
		check("empty")
		e.ApplyBatch(zipfKeys(n, 30_000, 1.1, 1))
		check("one bucket")
		e.Advance(1)
		e.ApplyBatch(zipfKeys(n, 20_000, 1.3, 2))
		e.Advance(2)
		e.ApplyBatch([]int{5, 5, 5, 900, 2999, 2999}) // a bucket with all but three runs cold
		check("rotated")
		e.Advance(2 + buckets + 3) // every slot relabelled and zeroed in one pass
		check("relabelled")
		e.ApplyBatch(zipfKeys(n, 10_000, 1.2, 3))
		e.Advance(10)
		e.ApplyBatch(zipfKeys(n/2, 10_000, 1.05, 4))
		check("reloaded")

		peer := mk(7)
		peer.Advance(9)
		peer.ApplyBatch(zipfKeys(n, 15_000, 1.2, 5))
		peer.Advance(10)
		for key := 2000; key < 2300; key++ {
			applyKey(peer, key, 3)
		}
		decode := func(src *WindowEngine, part, parts int, state bool) *snapcodec.Snapshot {
			blob, err := snapcodec.Encode(snapOf(t, src, part, parts, state))
			if err != nil {
				t.Fatal(err)
			}
			dec, err := snapcodec.Decode(blob)
			if err != nil {
				t.Fatal(err)
			}
			return dec
		}
		if err := e.MergeMax(decode(peer, 0, 0, false)); err != nil {
			t.Fatal(err)
		}
		check("max-joined")
		if _, ok := alg.(bank.MergeAlgorithm); ok {
			if err := e.Merge(decode(peer, 2, parts, false)); err != nil {
				t.Fatal(err)
			}
			check("disjoint-joined")
		}
		lo1, hi1 := snapRange(t, e, 1)
		if err := e.ResetRange(lo1, hi1); err != nil {
			t.Fatal(err)
		}
		check("evicted")
		e.ApplyBatch(zipfKeys(n, 5_000, 1.1, 6))
		restored, err := WindowFromSnapshot(decode(e, 0, 0, true))
		if err != nil {
			t.Fatal(err)
		}
		e = restored
		check("restored")
	}
}
