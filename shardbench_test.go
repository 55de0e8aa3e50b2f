// Contended multi-goroutine benchmarks for the sharded counter bank
// (internal/shardbank) on a Zipf workload, at 1, 4, 8, and 16 goroutines,
// batched and unbatched: what lock striping, batched locking and
// table-driven stepping buy on this host.
package approxcount_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/bank"
	"repro/internal/shardbank"
	"repro/internal/stream"
	"repro/internal/xrand"
)

const (
	contendedRegisters = 1 << 16
	contendedBatch     = 2048
	contendedShards    = 64
)

// contendedKeys pre-generates a per-goroutine Zipf key stream so the
// benchmark loop measures counting, not sampling.
func contendedKeys(goroutines, perG int) [][]int {
	keys := make([][]int, goroutines)
	for g := range keys {
		src := stream.NewZipf(contendedRegisters, 1.05, xrand.NewSeeded(uint64(1000+g)))
		ks := make([]int, perG)
		for i := range ks {
			ks[i] = int(src.Next())
		}
		keys[g] = ks
	}
	return keys
}

// runContended drives goroutines workers, each applying its key stream via
// apply, and reports events/op amortized over b.N total events.
func runContended(b *testing.B, goroutines int, apply func(g int, keys []int)) {
	b.Helper()
	perG := (b.N + goroutines - 1) / goroutines
	keys := contendedKeys(goroutines, perG)
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			apply(g, keys[g])
		}(g)
	}
	wg.Wait()
}

// BenchmarkContendedIncrement is the headline contention matrix: the
// sharded bank's per-event increments, then its batched path, at
// increasing goroutine counts.
func BenchmarkContendedIncrement(b *testing.B) {
	alg := bank.NewMorrisAlg(0.005, 14)
	for _, goroutines := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("bank=shard/mode=single/goroutines=%d", goroutines), func(b *testing.B) {
			sb := shardbank.New(contendedRegisters, alg, contendedShards, 1)
			runContended(b, goroutines, func(_ int, keys []int) {
				for _, k := range keys {
					sb.Increment(k)
				}
			})
		})
		b.Run(fmt.Sprintf("bank=shard/mode=batch/goroutines=%d", goroutines), func(b *testing.B) {
			sb := shardbank.New(contendedRegisters, alg, contendedShards, 1)
			runContended(b, goroutines, func(_ int, keys []int) {
				sb.IncrementChunked(keys, contendedBatch)
			})
		})
	}
}

// BenchmarkShardCountSweep isolates the striping dimension: 8 goroutines of
// unbatched increments against 1..128 stripes.
func BenchmarkShardCountSweep(b *testing.B) {
	alg := bank.NewMorrisAlg(0.005, 14)
	for _, shards := range []int{1, 4, 16, 64, 128} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			sb := shardbank.New(contendedRegisters, alg, shards, 1)
			runContended(b, 8, func(_ int, keys []int) {
				for _, k := range keys {
					sb.Increment(k)
				}
			})
		})
	}
}

// BenchmarkBatchSizeSweep isolates the batching dimension: 8 goroutines
// against 64 stripes at batch sizes 1 (the unbatched per-key path) up to
// 4096, all through the same IncrementChunked serving loop.
func BenchmarkBatchSizeSweep(b *testing.B) {
	alg := bank.NewMorrisAlg(0.005, 14)
	for _, batch := range []int{1, 16, 128, 512, 4096} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			sb := shardbank.New(contendedRegisters, alg, contendedShards, 1)
			runContended(b, 8, func(_ int, keys []int) {
				sb.IncrementChunked(keys, batch)
			})
		})
	}
}

// BenchmarkEstimateAll measures a full estimate vector — n registers read
// shard by shard into a fresh slice — each one right after a write.
func BenchmarkEstimateAll(b *testing.B) {
	alg := bank.NewMorrisAlg(0.005, 14)
	sb := shardbank.New(contendedRegisters, alg, contendedShards, 1)
	keys := contendedKeys(1, 1<<20)[0]
	sb.IncrementBatch(keys)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sb.Increment(i & (contendedRegisters - 1))
		_ = sb.EstimateAll()
	}
}
