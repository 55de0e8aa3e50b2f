package shardbank

import (
	"sync"
	"testing"

	"repro/internal/bank"
	"repro/internal/stream"
	"repro/internal/xrand"
)

func zipfKeys(n, events int, seed uint64) []int {
	src := stream.NewZipf(uint64(n), 1.05, xrand.NewSeeded(seed))
	keys := make([]int, events)
	for i := range keys {
		keys[i] = int(src.Next())
	}
	return keys
}

// TestBatchedMatchesUnbatched is the replay guarantee at the heart of the
// batched path: grouping a batch by shard must produce bit-identical
// registers to applying the same keys one Increment at a time, because each
// shard's rng sees the same draw order either way.
func TestBatchedMatchesUnbatched(t *testing.T) {
	const n, events = 1000, 50000
	keys := zipfKeys(n, events, 11)
	for _, shards := range []int{1, 2, 8, 16} {
		one := New(n, bank.NewMorrisAlg(0.01, 12), shards, 42)
		two := New(n, bank.NewMorrisAlg(0.01, 12), shards, 42)
		for _, k := range keys {
			one.Increment(k)
		}
		for lo := 0; lo < len(keys); lo += 512 {
			hi := lo + 512
			if hi > len(keys) {
				hi = len(keys)
			}
			two.IncrementBatch(keys[lo:hi])
		}
		for i := 0; i < n; i++ {
			if one.Register(i) != two.Register(i) {
				t.Fatalf("shards=%d register %d: unbatched %d vs batched %d",
					shards, i, one.Register(i), two.Register(i))
			}
		}
	}
}

// TestDeterministicReplay: the same (n, alg, shards, seed) and the same
// operation order must reproduce every register exactly, for every shard
// count — the property that makes concurrent-bank experiments debuggable.
func TestDeterministicReplay(t *testing.T) {
	const n, events = 500, 20000
	keys := zipfKeys(n, events, 3)
	for _, shards := range []int{1, 4, 32} {
		runs := make([][]uint64, 2)
		for r := range runs {
			b := New(n, bank.NewCsurosAlg(14, 6), shards, 99)
			b.IncrementBatch(keys)
			regs := make([]uint64, n)
			for i := range regs {
				regs[i] = b.Register(i)
			}
			runs[r] = regs
		}
		for i := range runs[0] {
			if runs[0][i] != runs[1][i] {
				t.Fatalf("shards=%d register %d differs across replays", shards, i)
			}
		}
	}
}

// TestExactAlgIsExact drives the deterministic register through the table
// stepper: counts must be exact for every shard count and batch size.
func TestExactAlgIsExact(t *testing.T) {
	const n, events = 300, 30000
	keys := zipfKeys(n, events, 7)
	truth := make(map[int]uint64)
	for _, k := range keys {
		truth[k]++
	}
	for _, shards := range []int{1, 8} {
		b := New(n, bank.NewExactAlg(20), shards, 1)
		b.IncrementBatch(keys)
		for i := 0; i < n; i++ {
			if b.Register(i) != truth[i] {
				t.Fatalf("shards=%d register %d = %d, want %d", shards, i, b.Register(i), truth[i])
			}
		}
	}
}

// TestSnapshotAccuracy drives a Zipf workload and checks the consistent
// merged view against exact truth: a one-stripe bank restored from it must
// estimate exactly as the sharded bank does, and the mean relative error over
// well-hit keys must sit within the Morris accuracy budget.
func TestSnapshotAccuracy(t *testing.T) {
	const n, events = 2000, 400000
	const a = 0.005
	keys := zipfKeys(n, events, 5)
	truth := make([]float64, n)
	for _, k := range keys {
		truth[k]++
	}
	for _, shards := range []int{1, 4, 16} {
		b := New(n, bank.NewMorrisAlg(a, 14), shards, 21)
		b.IncrementBatch(keys)

		restored := restoreVia(t, b, 1, 1)
		var sumRel, hit float64
		for i := 0; i < n; i++ {
			if restored.Estimate(i) != b.Estimate(i) {
				t.Fatalf("shards=%d register %d: restored estimate %v vs live %v",
					shards, i, restored.Estimate(i), b.Estimate(i))
			}
			if truth[i] < 1000 {
				continue
			}
			d := (b.Estimate(i) - truth[i]) / truth[i]
			if d < 0 {
				d = -d
			}
			sumRel += d
			hit++
		}
		if hit == 0 {
			t.Fatal("no well-hit keys in workload")
		}
		// Morris(a) relative std dev is ≈ √(a/2) ≈ 5% here; the mean of
		// |error| over dozens of independent registers concentrates well
		// below 3× that.
		if mean := sumRel / hit; mean > 0.15 {
			t.Fatalf("shards=%d mean |rel err| %.3f exceeds bound", shards, mean)
		}
	}
}

// TestEstimateAllFresh pins EstimateAll's contract: every call returns a
// fresh slice the caller owns, reflecting the registers at the call.
func TestEstimateAllFresh(t *testing.T) {
	b := New(100, bank.NewExactAlg(16), 4, 8)
	b.IncrementBatch(zipfKeys(100, 5000, 9))
	first := b.EstimateAll()
	b.Increment(3)
	second := b.EstimateAll()
	if &first[0] == &second[0] {
		t.Fatal("EstimateAll handed out the same slice twice")
	}
	if second[3] != first[3]+1 {
		t.Fatalf("estimate %v after increment, want %v", second[3], first[3]+1)
	}
	second[3] = -1
	if got := b.EstimateAll()[3]; got != first[3]+1 {
		t.Fatalf("caller's write to its slice leaked into the bank: %v", got)
	}
}

// TestMergeFoldsShards exercises the Remark 2.4 merge: two banks counting
// disjoint halves of a stream fold into one whose estimates track the full
// stream's truth.
func TestMergeFoldsShards(t *testing.T) {
	const n, events = 500, 200000
	keys := zipfKeys(n, events, 13)
	truth := make([]float64, n)
	for _, k := range keys {
		truth[k]++
	}
	alg := bank.NewMorrisAlg(0.005, 14)
	left := New(n, alg, 8, 1)
	right := New(n, alg, 8, 2)
	left.IncrementBatch(keys[:events/2])
	right.IncrementBatch(keys[events/2:])
	if err := left.Merge(right); err != nil {
		t.Fatal(err)
	}
	var sumRel, hit float64
	for i := 0; i < n; i++ {
		if truth[i] < 2000 {
			continue
		}
		d := (left.Estimate(i) - truth[i]) / truth[i]
		if d < 0 {
			d = -d
		}
		sumRel += d
		hit++
	}
	if hit == 0 {
		t.Fatal("no well-hit keys in workload")
	}
	if mean := sumRel / hit; mean > 0.15 {
		t.Fatalf("merged mean |rel err| %.3f exceeds bound", mean)
	}

	// Shape and algorithm mismatches must be rejected.
	if err := left.Merge(New(n+1, alg, 8, 3)); err == nil {
		t.Fatal("length mismatch not rejected")
	}
	if err := left.Merge(New(n, alg, 4, 3)); err == nil {
		t.Fatal("shard-count mismatch not rejected")
	}
	if err := left.Merge(New(n, bank.NewMorrisAlg(0.01, 14), 8, 3)); err == nil {
		t.Fatal("algorithm mismatch not rejected")
	}
	if err := left.Merge(New(n, bank.NewCsurosAlg(14, 6), 8, 3)); err == nil {
		t.Fatal("non-mergeable algorithm not rejected")
	}
}

// TestConcurrentHammer is the race test: 16 goroutines mixing single
// increments, batches, point reads, EstimateAll, and Snapshot. Run under
// `go test -race`; correctness here is absence of races plus registers
// staying within field width (bitpack panics otherwise).
func TestConcurrentHammer(t *testing.T) {
	const n, goroutines, perG = 512, 16, 4000
	b := New(n, bank.NewMorrisAlg(0.01, 12), 16, 17)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			keys := zipfKeys(n, perG, uint64(100+g))
			switch g % 4 {
			case 0: // unbatched writer
				for _, k := range keys {
					b.Increment(k)
				}
			case 1: // batched writer
				for lo := 0; lo < len(keys); lo += 128 {
					hi := lo + 128
					if hi > len(keys) {
						hi = len(keys)
					}
					b.IncrementBatch(keys[lo:hi])
				}
			case 2: // point reader + writer
				for i, k := range keys {
					if i%2 == 0 {
						b.Increment(k)
					} else {
						_ = b.Estimate(k)
					}
				}
			default: // global readers
				regs := make([]uint64, n)
				for i := 0; i < 40; i++ {
					_ = b.EstimateAll()
					v := b.Freeze()
					v.ReadRegisters(regs, 0)
					v.Release()
				}
			}
		}(g)
	}
	wg.Wait()
	// The bank must still satisfy its own snapshot/restore round trip.
	restored := restoreVia(t, b, 1, 1)
	for i := 0; i < n; i += 37 {
		if restored.Register(i) != b.Register(i) {
			t.Fatalf("register %d differs after concurrent hammer", i)
		}
	}
}

// TestShardRounding checks the shard-count normalization: rounded up to a
// power of two, capped so every stripe owns at least one register.
func TestShardRounding(t *testing.T) {
	cases := []struct{ n, shards, want int }{
		{100, 1, 1},
		{100, 3, 4},
		{100, 16, 16},
		{100, 100, 64},
		{5, 8, 4},
		{1, 7, 1},
	}
	for _, c := range cases {
		b := New(c.n, bank.NewExactAlg(8), c.shards, 1)
		if b.Shards() != c.want {
			t.Errorf("New(n=%d, shards=%d): got %d stripes, want %d", c.n, c.shards, b.Shards(), c.want)
		}
		// Every register must be addressable.
		for i := 0; i < c.n; i++ {
			b.Increment(i)
		}
		if b.Len() != c.n {
			t.Errorf("Len = %d, want %d", b.Len(), c.n)
		}
	}
}

// TestGenericFallback uses a register wider than the table limit so the
// generic Algorithm.Step path runs; results must still replay and count.
func TestGenericFallback(t *testing.T) {
	const n = 64
	b := New(n, bank.NewExactAlg(maxTableWidth+4), 4, 6)
	if b.table != nil {
		t.Fatal("expected no step table above maxTableWidth")
	}
	for i := 0; i < n; i++ {
		b.IncrementBy(i, uint64(i))
	}
	for i := 0; i < n; i++ {
		if b.Register(i) != uint64(i) {
			t.Fatalf("register %d = %d, want %d", i, b.Register(i), i)
		}
	}
}
