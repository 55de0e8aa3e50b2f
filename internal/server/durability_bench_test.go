package server

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bank"
	"repro/internal/stream"
	"repro/internal/wal"
	"repro/internal/xrand"
)

// newestSnapBytes returns the size of the highest-sequence checkpoint
// artifact (full .nysc or delta .nysd) in dir — the bytes the checkpoint
// that just ran actually wrote.
func newestSnapBytes(b *testing.B, dir string) int64 {
	b.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	best, size := "", int64(-1)
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "snap-") ||
			(!strings.HasSuffix(name, ".nysc") && !strings.HasSuffix(name, ".nysd")) {
			continue
		}
		// Lexicographic order matches sequence order (zero-padded), with the
		// delta of a sequence sorting after its own full — exactly the file
		// the last Checkpoint produced.
		if name > best {
			fi, err := os.Stat(filepath.Join(dir, name))
			if err != nil {
				b.Fatal(err)
			}
			best, size = name, fi.Size()
		}
	}
	if size < 0 {
		b.Fatal("no checkpoint artifact found")
	}
	return size
}

// BenchmarkDurabilityCheckpoint measures the durability cost of one
// checkpoint under steady-state churn: 1M keys, with ~1% of the keyspace
// (a hot Zipf neighborhood) written between checkpoints. The "full" mode
// disables block deltas (every checkpoint rewrites the whole register
// file); "delta" is the shipping configuration (block delta when the dirty
// fraction is low, full compaction every MaxDeltaChain checkpoints). The
// bytes/ckpt metric is the acceptance number: delta mode must come in at a
// small fraction of full mode, because its cost is proportional to churn,
// not keyspace.
func BenchmarkDurabilityCheckpoint(b *testing.B) {
	const (
		n     = 1_000_000
		churn = n / 100 // the hot 1% neighborhood written between checkpoints
	)
	for _, mode := range []struct {
		name          string
		deltaFraction float64
	}{
		{"full", -1}, // negative disables delta checkpoints entirely
		{"delta", 0}, // 0 = the default threshold (delta when <50% dirty)
	} {
		b.Run(mode.name, func(b *testing.B) {
			dir := b.TempDir()
			st, err := Open(Config{
				Dir:           dir,
				N:             n,
				Shards:        256,
				Alg:           bank.NewMorrisAlg(0.005, 14),
				Seed:          42,
				Sync:          wal.SyncOff,
				DeltaFraction: mode.deltaFraction,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close(false)

			// Populate every register once, then layer a Zipf workload over
			// the whole keyspace so the resident registers carry realistic
			// entropy — an all-ones register file bitpacks to almost nothing
			// and would flatter the full snapshot.
			batch := make([]int, 8192)
			for lo := 0; lo < n; lo += len(batch) {
				for i := range batch {
					batch[i] = (lo + i) % n
				}
				if err := st.Apply(batch); err != nil {
					b.Fatal(err)
				}
			}
			warm := stream.NewZipf(n, 1.05, xrand.NewSeeded(3))
			for ev := 0; ev < 4*n; ev += len(batch) {
				for i := range batch {
					batch[i] = int(warm.Next())
				}
				if err := st.Apply(batch); err != nil {
					b.Fatal(err)
				}
			}
			if err := st.Checkpoint(); err != nil {
				b.Fatal(err)
			}

			src := stream.NewZipf(uint64(churn), 1.05, xrand.NewSeeded(9))
			churnBatch := make([]int, churn)
			var bytesWritten int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range churnBatch {
					churnBatch[j] = int(src.Next())
				}
				if err := st.Apply(churnBatch); err != nil {
					b.Fatal(err)
				}
				if err := st.Checkpoint(); err != nil {
					b.Fatal(err)
				}
				bytesWritten += newestSnapBytes(b, dir)
			}
			b.StopTimer()
			b.ReportMetric(float64(bytesWritten)/float64(b.N), "bytes/ckpt")
			s := st.Stats()
			b.ReportMetric(float64(s.CheckpointChain), "chainlen")
		})
	}
}

// BenchmarkDurabilityRecovery measures crash-recovery time through a
// checkpoint chain: the store is built once per mode (1M keys, several
// churn+checkpoint rounds, a WAL tail on top), then repeatedly reopened.
// "full" recovers from a single full snapshot; "delta" splices a full plus
// a delta chain — the number the chain bound (-max-delta-chain) exists to
// keep flat.
func BenchmarkDurabilityRecovery(b *testing.B) {
	const (
		n     = 1_000_000
		churn = n / 100
	)
	for _, mode := range []struct {
		name          string
		deltaFraction float64
	}{
		{"full", -1},
		{"delta", 0},
	} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := Config{
				Dir:           b.TempDir(),
				N:             n,
				Shards:        256,
				Alg:           bank.NewMorrisAlg(0.005, 14),
				Seed:          42,
				Sync:          wal.SyncOff,
				DeltaFraction: mode.deltaFraction,
			}
			st, err := Open(cfg)
			if err != nil {
				b.Fatal(err)
			}
			batch := make([]int, 8192)
			for lo := 0; lo < n; lo += len(batch) {
				for i := range batch {
					batch[i] = (lo + i) % n
				}
				if err := st.Apply(batch); err != nil {
					b.Fatal(err)
				}
			}
			if err := st.Checkpoint(); err != nil {
				b.Fatal(err)
			}
			src := stream.NewZipf(uint64(churn), 1.05, xrand.NewSeeded(9))
			churnBatch := make([]int, churn)
			for round := 0; round < 4; round++ {
				for j := range churnBatch {
					churnBatch[j] = int(src.Next())
				}
				if err := st.Apply(churnBatch); err != nil {
					b.Fatal(err)
				}
				if err := st.Checkpoint(); err != nil {
					b.Fatal(err)
				}
			}
			// A WAL tail past the last checkpoint, replayed on every open.
			for j := range churnBatch {
				churnBatch[j] = int(src.Next())
			}
			if err := st.Apply(churnBatch); err != nil {
				b.Fatal(err)
			}
			chain := st.Stats().CheckpointChain
			if err := st.Close(false); err != nil {
				b.Fatal(err)
			}

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := Open(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := st.Close(false); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(chain), "chainlen")
		})
	}
}
