package engine

import (
	"io"
	"testing"

	"repro/internal/bank"
	"repro/internal/shardbank"
	"repro/internal/snapcodec"
	"repro/internal/xrand"
)

func benchBatch(n, size int) []int {
	return zipfKeys(n, size, 1.05, 9)
}

// The interface-dispatch overhead the refactor added to the hot path: one
// virtual call per batch on top of shardbank.IncrementBatch.
func BenchmarkBankEngineApplyBatch(b *testing.B) {
	const n = 100_000
	var e Engine = NewBank(shardbank.New(n, bank.NewMorrisAlg(0.005, 14), 64, 42))
	batch := benchBatch(n, 1024)
	b.SetBytes(int64(len(batch)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ApplyBatch(batch)
	}
	b.ReportMetric(float64(len(batch))*float64(b.N)/b.Elapsed().Seconds(), "keys/s")
}

func BenchmarkTopKApplyBatch(b *testing.B) {
	const n = 100_000
	e, err := NewTopK(n, bank.NewMorrisAlg(0.005, 14), 64, 256, 42)
	if err != nil {
		b.Fatal(err)
	}
	batch := benchBatch(n, 1024)
	b.SetBytes(int64(len(batch)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ApplyBatch(batch)
	}
	b.ReportMetric(float64(len(batch))*float64(b.N)/b.Elapsed().Seconds(), "keys/s")
}

func BenchmarkTopKQuery(b *testing.B) {
	const n = 100_000
	e, err := NewTopK(n, bank.NewMorrisAlg(0.005, 14), 64, 256, 42)
	if err != nil {
		b.Fatal(err)
	}
	for _, batch := range batches(zipfKeys(n, 200_000, 1.1, 3), 4096) {
		e.ApplyBatch(batch)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.TopK(10, 0, n); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopKSnapshotEncode(b *testing.B) {
	const n = 100_000
	e, err := NewTopK(n, bank.NewMorrisAlg(0.005, 14), 64, 256, 42)
	if err != nil {
		b.Fatal(err)
	}
	for _, batch := range batches(zipfKeys(n, 200_000, 1.1, 3), 4096) {
		e.ApplyBatch(batch)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := SnapshotTo(io.Discard, e, 0, 0, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWindowApplyBatch(b *testing.B) {
	const n = 100_000
	e, err := NewWindow(n, bank.NewMorrisAlg(0.005, 14), 64, 8, int64(1e9), 42)
	if err != nil {
		b.Fatal(err)
	}
	batch := benchBatch(n, 1024)
	b.SetBytes(int64(len(batch)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ApplyBatch(batch)
		if i%64 == 63 {
			e.Advance(uint64(i / 64)) // rotation cost rides along, 1/64 of batches
		}
	}
	b.ReportMetric(float64(len(batch))*float64(b.N)/b.Elapsed().Seconds(), "keys/s")
}

// The windowed read path: a trailing-half-ring top-10, Remark 2.4 folds
// included. dense spreads the stream so most 128-key runs hold a live
// register (little to skip); sparse is Zipf(1.2), most of the tail cold.
func BenchmarkWindowTopKQuery(b *testing.B) { benchWindowTopK(b, 1.1) }

func BenchmarkWindowTopKQuerySparse(b *testing.B) { benchWindowTopK(b, 1.2) }

func benchWindowTopK(b *testing.B, skew float64) {
	const n = 100_000
	e, err := NewWindow(n, bank.NewMorrisAlg(0.005, 14), 64, 8, int64(1e9), 42)
	if err != nil {
		b.Fatal(err)
	}
	for ep, batch := range batches(zipfKeys(n, 200_000, skew, 3), 4096) {
		e.Advance(uint64(ep / 8))
		e.ApplyBatch(batch)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.TopKWindow(10, 0, n, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWindowSnapshotEncode(b *testing.B) {
	const n = 100_000
	e, err := NewWindow(n, bank.NewMorrisAlg(0.005, 14), 64, 8, int64(1e9), 42)
	if err != nil {
		b.Fatal(err)
	}
	for ep, batch := range batches(zipfKeys(n, 200_000, 1.1, 3), 4096) {
		e.Advance(uint64(ep / 8))
		e.ApplyBatch(batch)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := SnapshotTo(io.Discard, e, 0, 0, true); err != nil {
			b.Fatal(err)
		}
	}
	var buf countingWriter
	if err := SnapshotTo(&buf, e, 0, 0, true); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(buf)/float64(n*8), "bytes/register")
}

func BenchmarkDistinctApplyBatch(b *testing.B) {
	const n = 100_000
	e, err := NewDistinct(n, 16, 12, 42)
	if err != nil {
		b.Fatal(err)
	}
	batch := benchBatch(n, 1024)
	b.SetBytes(int64(len(batch)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ApplyBatch(batch)
	}
	b.ReportMetric(float64(len(batch))*float64(b.N)/b.Elapsed().Seconds(), "keys/s")
}

// The cardinality read path: a full-range register scan plus the harmonic
// sum and small-range correction.
func BenchmarkDistinctEstimate(b *testing.B) {
	const n = 100_000
	e, err := NewDistinct(n, 16, 12, 42)
	if err != nil {
		b.Fatal(err)
	}
	for _, batch := range batches(zipfKeys(n, 200_000, 1.1, 3), 4096) {
		e.ApplyBatch(batch)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.RangeEstimate(0, n); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDistinctSnapshotEncode(b *testing.B) {
	const n = 100_000
	e, err := NewDistinct(n, 16, 12, 42)
	if err != nil {
		b.Fatal(err)
	}
	for _, batch := range batches(zipfKeys(n, 200_000, 1.1, 3), 4096) {
		e.ApplyBatch(batch)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := SnapshotTo(io.Discard, e, 0, 0, true); err != nil {
			b.Fatal(err)
		}
	}
	var buf countingWriter
	if err := SnapshotTo(&buf, e, 0, 0, true); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(buf)/float64(16*4096), "bytes/register")
}

func BenchmarkF2ApplyBatch(b *testing.B) {
	const n = 100_000
	e, err := NewF2(n, 16, 5, 64, 42)
	if err != nil {
		b.Fatal(err)
	}
	batch := benchBatch(n, 1024)
	b.SetBytes(int64(len(batch)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ApplyBatch(batch)
	}
	b.ReportMetric(float64(len(batch))*float64(b.N)/b.Elapsed().Seconds(), "keys/s")
}

// The moment read path: a median-of-means fold over rows × cols cells.
func BenchmarkF2Estimate(b *testing.B) {
	const n = 100_000
	e, err := NewF2(n, 16, 5, 64, 42)
	if err != nil {
		b.Fatal(err)
	}
	for _, batch := range batches(zipfKeys(n, 200_000, 1.1, 3), 4096) {
		e.ApplyBatch(batch)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.RangeEstimate(0, n); err != nil {
			b.Fatal(err)
		}
	}
}

// countingWriter counts bytes written (snapshot size metric).
type countingWriter int64

func (w *countingWriter) Write(p []byte) (int, error) {
	*w += countingWriter(len(p))
	return len(p), nil
}

// loadedBankEngine is a 1M-key Morris bank after a Zipf stream — the
// wire_bank benchmark workload's shape.
func loadedBankEngine(b *testing.B) *BankEngine {
	const n = 1 << 20
	e := NewBank(shardbank.New(n, bank.NewMorrisAlg(0.005, 14), 256, 42))
	for _, batch := range batches(zipfKeys(n, 1_000_000, 1.05, 9), 4096) {
		e.ApplyBatch(batch)
	}
	return e
}

// A top-10 over the whole bank, each one right after a write (what a
// dashboard polling a loaded node pays): a walk of the packed words.
func BenchmarkBankTopK(b *testing.B) {
	e := loadedBankEngine(b)
	batch := benchBatch(e.Len(), 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ApplyBatch(batch)
		if _, err := e.TopK(10, 0, e.Len()); err != nil {
			b.Fatal(err)
		}
	}
}

// The ring3_wire benchmark workload's shape: 4M keys at uniform low counts
// (10M events), where no key stands out and every block's maximum is within
// a few steps of every other's. whole is GET /v1/topk on a node right after
// a write; partition is one of the 64 ranges client.Query(KindTopK) asks a
// ring for.
func BenchmarkBankTopKUniform(b *testing.B) {
	const n, parts = 4_000_000, 64
	e := NewBank(shardbank.New(n, bank.NewMorrisAlg(0.005, 14), 256, 42))
	rng := xrand.NewSeeded(11)
	batch := make([]int, 4096)
	for ev := 0; ev < 10_000_000; ev += len(batch) {
		for i := range batch {
			batch[i] = int(rng.Uint64() % n)
		}
		e.ApplyBatch(batch)
	}
	batch = batch[:1024]
	b.Run("whole", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e.ApplyBatch(batch)
			if _, err := e.TopK(10, 0, n); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("partition", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lo, hi := snapcodec.PartitionRange(n, parts, i%parts)
			if _, err := e.TopK(10, lo, hi); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// GET /v1/snapshot of the whole bank: freeze the packed words, encode off
// them. B/op is the transient memory a snapshot costs.
func BenchmarkBankSnapshotStream(b *testing.B) {
	e := loadedBankEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := SnapshotTo(io.Discard, e, 0, 0, false); err != nil {
			b.Fatal(err)
		}
	}
}
