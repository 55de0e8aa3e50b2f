package server

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/bank"
	"repro/internal/engine"
	"repro/internal/snapcodec"
	"repro/internal/wal"
	"repro/internal/xrand"
)

// hashCounts reads the store's partition-hash probe counters.
func hashCounts(st *Store) (memo, scan uint64) {
	v := st.Metrics().CounterVec("counterd_store_partition_hash_total", "", "source")
	return v.With("memo").Value(), v.With("scan").Value()
}

// assertHashesFresh checks, for every partition, that the memoised
// PartitionHash / PartitionBlockHashes equal what the engine computes from
// its registers right now — twice, so the second round is served from the
// memo the first one filled.
func assertHashesFresh(t *testing.T, st *Store, after string) {
	t.Helper()
	eng := st.Engine()
	for round := 0; round < 2; round++ {
		for p := 0; p < st.Partitions(); p++ {
			lo, hi := snapcodec.PartitionRange(eng.Len(), st.Partitions(), p)
			want, err := eng.HashRange(lo, hi)
			if err != nil {
				t.Fatalf("after %s: HashRange(%d): %v", after, p, err)
			}
			got, err := st.PartitionHash(p)
			if err != nil {
				t.Fatalf("after %s: PartitionHash(%d): %v", after, p, err)
			}
			if got != want {
				t.Fatalf("after %s (round %d): PartitionHash(%d) = %016x, registers hash to %016x",
					after, round, p, got, want)
			}
			wantB, errB := eng.BlockHashes(p, st.Partitions())
			gotB, err := st.PartitionBlockHashes(p)
			if (err != nil) != (errB != nil) {
				t.Fatalf("after %s: PartitionBlockHashes(%d) err %v, engine err %v", after, p, err, errB)
			}
			if len(gotB) != len(wantB) {
				t.Fatalf("after %s: partition %d has %d block hashes, want %d", after, p, len(gotB), len(wantB))
			}
			for i := range wantB {
				if gotB[i] != wantB[i] {
					t.Fatalf("after %s (round %d): partition %d block %d = %016x, registers hash to %016x",
						after, round, p, i, gotB[i], wantB[i])
				}
			}
		}
	}
}

// The memo-invalidation matrix: on every engine, after every operation
// that can change a partition's state — local apply, replica apply and
// hint drain (Apply/ApplyAt are what the cluster calls for both), the three
// joins, install, evict, a window rotation, a restart — the memoised hashes
// equal an unmemoised scan. Each step runs with the memo already filled, so
// a mutation that forgot its version bump would serve the stale entry.
func TestPartitionHashMemoInvalidation(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cfg      func(*testing.T, *atomic.Uint64) Config
		windowed bool
	}{
		{"bank", func(t *testing.T, _ *atomic.Uint64) Config {
			cfg := testConfig(t, 4000)
			cfg.Partitions = 8
			return cfg
		}, false},
		{"topk", func(t *testing.T, _ *atomic.Uint64) Config { return topkConfig(t, 4000) }, false},
		{"window", func(t *testing.T, clk *atomic.Uint64) Config {
			cfg, _ := windowConfig(t, 4000)
			cfg.Clock = clk.Load
			return cfg
		}, true},
		{"distinct", func(t *testing.T, _ *atomic.Uint64) Config { return distinctConfig(t, 4000) }, false},
		{"distinct-window", func(t *testing.T, clk *atomic.Uint64) Config {
			cfg := distinctConfig(t, 4000)
			cfg.Buckets = 4
			cfg.Clock = clk.Load
			return cfg
		}, true},
		{"f2", func(t *testing.T, _ *atomic.Uint64) Config { return f2Config(t, 4000) }, false},
		{"f2-window", func(t *testing.T, clk *atomic.Uint64) Config {
			cfg := f2Config(t, 4000)
			cfg.Buckets = 4
			cfg.Clock = clk.Load
			return cfg
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := &atomic.Uint64{}
			cfg := tc.cfg(t, clk)
			st, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { st.Close(false) }()
			peerCfg := tc.cfg(t, clk) // same shape and seed, its own directory and history
			peer, err := Open(peerCfg)
			if err != nil {
				t.Fatal(err)
			}
			defer peer.Close(false)
			for _, b := range zipfBatches(cfg.N, 20, 256, 31) {
				if err := peer.Apply(b); err != nil {
					t.Fatal(err)
				}
			}
			peerPart := func(p int) []byte {
				var buf bytes.Buffer
				if err := peer.PartitionSnapshotTo(&buf, p); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			step := func(what string, op func() error) {
				t.Helper()
				if err := op(); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				assertHashesFresh(t, st, what)
			}

			assertHashesFresh(t, st, "open")
			batches := zipfBatches(cfg.N, 6, 256, 17)
			step("Apply", func() error { return st.Apply(batches[0]) })
			step("ApplyAt (hint drain)", func() error { _, err := st.ApplyAt(batches[1], clk.Load()); return err })
			step("MergeMax", func() error { return st.MergeMax(peerPart(1)) })
			step("Merge", func() error { return st.Merge(peerPart(2)) })
			step("InstallPartition", func() error { return st.InstallPartition(peerPart(3), false) })
			if peerBlocks, err := peer.PartitionBlockHashes(0); err == nil {
				step("Apply to peer", func() error { return peer.Apply(batches[2]) })
				var blob bytes.Buffer
				if err := peer.PartitionDeltaTo(&blob, 0, []uint32{0, uint32(len(peerBlocks) - 1)}); err != nil {
					t.Fatal(err)
				}
				step("MergeMaxDelta", func() error { return st.MergeMaxDelta(blob.Bytes(), VersionAny) })
			}
			step("EvictPartition", func() error { return st.EvictPartition(1) })
			if tc.windowed {
				clk.Add(2)
				step("AdvanceWindow", st.AdvanceWindow)
				step("Apply after rotation", func() error { return st.Apply(batches[3]) })
				clk.Add(1)
				step("ApplyAt at a newer epoch", func() error { _, err := st.ApplyAt(batches[4], clk.Load()); return err })
			}
			step("Checkpoint", st.Checkpoint)
			step("Apply after checkpoint", func() error { return st.Apply(batches[5]) })
			if memo, scan := hashCounts(st); memo == 0 || scan == 0 {
				t.Fatalf("probe counters memo=%d scan=%d: the matrix must exercise both", memo, scan)
			}
			step("restart", func() error {
				if err := st.Close(false); err != nil {
					return err
				}
				st, err = Open(cfg)
				return err
			})
		})
	}
}

// A probe of an unwritten partition is a version compare: it touches no
// register, allocates nothing, and counts as a memo hit.
func TestPartitionHashMemoHitIsFree(t *testing.T) {
	cfg := testConfig(t, 50_000)
	cfg.Partitions = 4
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close(false)
	for _, b := range zipfBatches(cfg.N, 10, 512, 3) {
		if err := st.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	probe := func() {
		for p := 0; p < st.Partitions(); p++ {
			if _, err := st.PartitionHash(p); err != nil {
				t.Fatal(err)
			}
			if _, err := st.PartitionBlockHashes(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	probe()
	memo0, scan0 := hashCounts(st)
	if allocs := testing.AllocsPerRun(50, probe); allocs != 0 {
		t.Fatalf("a memo hit allocates %.1f objects per probe round", allocs)
	}
	memo1, scan1 := hashCounts(st)
	if scan1 != scan0 || memo1 <= memo0 {
		t.Fatalf("idle probes scanned: memo %d→%d, scan %d→%d", memo0, memo1, scan0, scan1)
	}
	// One write retires exactly the partition it landed in.
	if err := st.Apply([]int{1}); err != nil {
		t.Fatal(err)
	}
	probe()
	if _, scan2 := hashCounts(st); scan2 != scan1+2 {
		t.Fatalf("a write to one partition caused %d scans, want 2 (hash + block hashes)", scan2-scan1)
	}
}

// allocatedBy returns the heap bytes f allocates.
func allocatedBy(f func()) uint64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// leastAllocatedBy returns the fewest heap bytes any of three runs of f
// allocates. An allocation that grows with the bank shows in every run;
// what the minimum drops is the standard library's pool misses (os.ReadDir's
// buffers, which the race detector empties at random).
func leastAllocatedBy(f func()) uint64 {
	least := allocatedBy(f)
	for i := 0; i < 2; i++ {
		least = min(least, allocatedBy(f))
	}
	return least
}

// A checkpoint — full, or a delta after 1 % churn — and a streamed
// /v1/snapshot allocate no more than one view's chunk buffer and pending
// bitmap plus 64 KiB: the copy-on-write cut copies no register when no
// writer runs, so the bound does not grow with the bank. One limit, taken
// at 1M keys, holds at 4M.
func TestCheckpointAllocatesPackedBytes(t *testing.T) {
	const slack = 64 << 10
	var limit uint64
	for _, n := range []int{1 << 20, 1 << 22} {
		cfg := testConfig(t, n)
		cfg.Shards = 256
		cfg.Partitions = 16
		cfg.Alg = bank.NewMorrisAlg(0.005, 14)
		st, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close(false)
		for _, b := range zipfBatches(n, 250, 4096, 9) {
			if err := st.Apply(b); err != nil {
				t.Fatal(err)
			}
		}
		if limit == 0 {
			limit = uint64(st.Bank().CutBytes(0, n)) + slack
			t.Logf("limit %d bytes for a %d-byte bank", limit, st.Bank().SizeBytes())
		}
		// The first checkpoint is full and drains a dirty list naming nearly
		// every block, 4 bytes each; the two after it are forced full.
		first := limit + 4*uint64(st.Stats().DirtyBlocks)
		if got := allocatedBy(func() { checkpoint(t, st) }); got > first {
			t.Errorf("n=%d: first full checkpoint allocated %d bytes, limit %d", n, got, first)
		}
		if got := leastAllocatedBy(func() { st.chain.forceFull = true; checkpoint(t, st) }); got > limit {
			t.Errorf("n=%d: full checkpoint allocated %d bytes, limit %d", n, got, limit)
		}
		if st.Stats().CheckpointChain != 0 {
			t.Fatal("checkpoint was not a full one")
		}
		// 1 % churn: one key in every hundredth block.
		var keys []int
		for b := 0; b < snapcodec.NumBlocks(n); b += 100 {
			keys = append(keys, b*snapcodec.BlockLen)
		}
		for i := 0; i < 40; i++ { // Morris steps are probabilistic; make each key move
			if err := st.Apply(keys); err != nil {
				t.Fatal(err)
			}
		}
		if got := leastAllocatedBy(func() { checkpoint(t, st) }); got > limit {
			t.Errorf("n=%d: delta checkpoint allocated %d bytes, limit %d", n, got, limit)
		}
		if st.Stats().CheckpointChain != 3 {
			t.Fatal("checkpoints after the churn were not deltas")
		}
		var sink countingDiscard
		if got := leastAllocatedBy(func() {
			if err := st.SnapshotTo(&sink); err != nil {
				t.Fatal(err)
			}
		}); got > limit {
			t.Errorf("n=%d: SnapshotTo allocated %d bytes, limit %d", n, got, limit)
		}
		if sink == 0 {
			t.Fatal("SnapshotTo wrote nothing")
		}
		if st.Engine().Kind() != engine.KindBank {
			t.Fatal("not a bank store")
		}
		if c := st.Bank().CutCopyBytes(); c != 0 {
			t.Fatalf("n=%d: %d bytes of copy-on-write saves left on an idle store", n, c)
		}
	}
}

func checkpoint(t *testing.T, st *Store) {
	t.Helper()
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// A checkpoint taken while writers run is the state at its WAL tag: the
// writers apply throughout the encode — to the top quarter of the keys,
// which the encoder reaches last, so the cut must serve words they saved —
// and a store reopened from the checkpoint chain plus the WAL tail holds
// exactly the live registers and generator states.
func TestCheckpointUnderWritersRecoversItsCut(t *testing.T) {
	cfg := testConfig(t, 1<<20)
	cfg.Shards = 64
	cfg.Alg = bank.NewMorrisAlg(0.05, 12)
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range zipfBatches(cfg.N, 50, 4096, 3) {
		if err := st.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	var saved atomic.Int64 // largest copy-on-write hold a writer saw
	stop := make(chan struct{})
	errs := make(chan error, 2)
	for w := 0; w < 2; w++ {
		go func(w int) {
			rng := xrand.NewSeeded(uint64(10 + w))
			batch := make([]int, 2048)
			for {
				select {
				case <-stop:
					errs <- nil
					return
				default:
				}
				for i := range batch {
					batch[i] = cfg.N - 1 - int(rng.Uint64()%uint64(cfg.N/4))
				}
				if err := st.Apply(batch); err != nil {
					errs <- err
					return
				}
				if c := st.Bank().CutCopyBytes(); c > saved.Load() {
					saved.Store(c)
				}
			}
		}(w)
	}
	// Full checkpoints and deltas chained onto them, until some writer
	// saved words for an open cut.
	for i := 0; i < 12 || (saved.Load() == 0 && i < 200); i++ {
		st.chain.forceFull = i%3 == 0
		if err := st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	for w := 0; w < 2; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if saved.Load() == 0 {
		t.Fatal("no write landed in a chunk the checkpoint had yet to read")
	}
	var live bytes.Buffer
	if err := engine.SnapshotTo(&live, st.Engine(), 0, 0, true); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(false); err != nil {
		t.Fatal(err)
	}
	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close(false)
	var got bytes.Buffer
	if err := engine.SnapshotTo(&got, re.Engine(), 0, 0, true); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live.Bytes(), got.Bytes()) {
		t.Fatal("recovered registers or generator states differ from the live store")
	}
}

type countingDiscard int

func (c *countingDiscard) Write(p []byte) (int, error) {
	*c += countingDiscard(len(p))
	return len(p), nil
}

// One anti-entropy round's worth of hash probes on ring3_wire's shape (4M
// keys, 64 partitions): "idle" is a converged ring nobody writes to — every
// probe a memo hit — and "written" has a batch land before each round, so
// the partitions it touched are scanned again.
func BenchmarkPartitionHashMemo(b *testing.B) {
	cfg := Config{
		Dir: b.TempDir(), N: 4_000_000, Shards: 256, Partitions: 64,
		Alg: bank.NewMorrisAlg(0.005, 14), Seed: 42, Sync: wal.SyncOff,
	}
	st, err := Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close(false)
	for _, batch := range zipfBatches(cfg.N, 100, 4096, 9) {
		if err := st.Apply(batch); err != nil {
			b.Fatal(err)
		}
	}
	round := func() {
		for p := 0; p < st.Partitions(); p++ {
			if _, err := st.PartitionHash(p); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("idle", func(b *testing.B) {
		round()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			round()
		}
	})
	b.Run("written", func(b *testing.B) {
		batch := zipfBatches(cfg.N, 1, 1024, 5)[0]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := st.Apply(batch); err != nil {
				b.Fatal(err)
			}
			round()
		}
	})
}
