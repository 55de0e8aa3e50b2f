package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bank"
	"repro/internal/shardbank"
	"repro/internal/snapcodec"
	"repro/internal/stream"
	"repro/internal/wal"
	"repro/internal/xrand"
)

func testConfig(t *testing.T, n int) Config {
	t.Helper()
	return Config{
		Dir:    t.TempDir(),
		N:      n,
		Shards: 8,
		Alg:    bank.NewMorrisAlg(0.02, 12),
		Seed:   42,
		Sync:   wal.SyncOff,
	}
}

func zipfBatches(n, batches, batchLen int, seed uint64) [][]int {
	src := stream.NewZipf(uint64(n), 1.05, xrand.NewSeeded(seed))
	out := make([][]int, batches)
	for i := range out {
		b := make([]int, batchLen)
		for j := range b {
			b[j] = int(src.Next())
		}
		out[i] = b
	}
	return out
}

// referenceBank applies the batches directly with the same construction
// parameters — the ground truth every recovery must match bit for bit.
func referenceBank(cfg Config, batches [][]int) *shardbank.Bank {
	b := shardbank.New(cfg.N, cfg.Alg, cfg.Shards, cfg.Seed)
	for _, batch := range batches {
		b.IncrementBatch(batch)
	}
	return b
}

func assertBanksEqual(t *testing.T, got, want *shardbank.Bank) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("bank length %d, want %d", got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if g, w := got.Register(i), want.Register(i); g != w {
			t.Fatalf("register %d = %d, want %d", i, g, w)
		}
	}
}

func TestApplyAndRestartExactness(t *testing.T) {
	cfg := testConfig(t, 500)
	st, err := Open(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	batches := zipfBatches(cfg.N, 40, 64, 1)
	for _, b := range batches {
		if err := st.Apply(b); err != nil {
			t.Fatalf("apply: %v", err)
		}
	}
	if err := st.Close(false); err != nil { // no checkpoint: recovery = seed + full WAL
		t.Fatalf("close: %v", err)
	}

	st2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close(false)
	assertBanksEqual(t, st2.Bank(), referenceBank(cfg, batches))
	if stats := st2.Stats(); stats.RecoveredFrom != "seed" || stats.ReplayedRecords != len(batches) {
		t.Fatalf("unexpected recovery stats: %+v", stats)
	}
}

func TestCheckpointRestartExactness(t *testing.T) {
	cfg := testConfig(t, 500)
	st, err := Open(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	batches := zipfBatches(cfg.N, 60, 64, 2)
	for i, b := range batches {
		if err := st.Apply(b); err != nil {
			t.Fatalf("apply: %v", err)
		}
		if i == 19 || i == 39 { // checkpoints mid-stream
			if err := st.Checkpoint(); err != nil {
				t.Fatalf("checkpoint at %d: %v", i, err)
			}
		}
	}
	if err := st.Close(false); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Recovery must load the second checkpoint and replay only the suffix —
	// and still match the full-history reference exactly, which requires
	// the rng states in the checkpoint to be exact.
	st2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close(false)
	assertBanksEqual(t, st2.Bank(), referenceBank(cfg, batches))
	stats := st2.Stats()
	if stats.RecoveredFrom != "snapshot" {
		t.Fatalf("expected snapshot recovery, got %+v", stats)
	}
	if stats.ReplayedRecords != 20 {
		t.Fatalf("replayed %d records, want the 20 after the last checkpoint", stats.ReplayedRecords)
	}
}

// Simulated kill -9 mid-WAL-write: truncate the live segment mid-record
// after abandoning the store without any Close, then reopen. Estimates must
// match the reference bank over the surviving prefix.
func TestKillMidWriteRecovery(t *testing.T) {
	cfg := testConfig(t, 300)
	st, err := Open(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	batches := zipfBatches(cfg.N, 25, 32, 3)
	for i, b := range batches {
		if err := st.Apply(b); err != nil {
			t.Fatalf("apply: %v", err)
		}
		if i == 9 {
			if err := st.Checkpoint(); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
		}
	}
	// Abandon st: no Close, no final sync — the OS file survives because
	// Apply group-commits every batch. Then tear the tail mid-record.
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
	if err := os.WriteFile(segPath, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen after kill: %v", err)
	}
	defer st2.Close(false)
	stats := st2.Stats()
	if !stats.ReplayTorn {
		t.Fatalf("expected a torn tail to be reported: %+v", stats)
	}
	// The surviving prefix: checkpoint at batch 10 plus replayed records.
	applied := 10 + stats.ReplayedRecords
	if applied >= len(batches) || applied <= 10 {
		t.Fatalf("implausible surviving prefix %d of %d", applied, len(batches))
	}
	assertBanksEqual(t, st2.Bank(), referenceBank(cfg, batches[:applied]))
}

func TestHTTPEndpoints(t *testing.T) {
	cfg := testConfig(t, 200)
	st, err := Open(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer st.Close(false)
	srv := httptest.NewServer(Handler(st))
	defer srv.Close()

	post := func(path string, body any) *http.Response {
		t.Helper()
		data, _ := json.Marshal(body)
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		return resp
	}
	decode := func(resp *http.Response, into any) {
		t.Helper()
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}

	// Single increment and batch increment.
	var incResp struct {
		Applied int `json:"applied"`
	}
	resp := post("/v1/inc", map[string]int{"key": 7})
	if resp.StatusCode != 200 {
		t.Fatalf("POST /inc: status %d", resp.StatusCode)
	}
	decode(resp, &incResp)
	if incResp.Applied != 1 {
		t.Fatalf("applied = %d", incResp.Applied)
	}
	keys := make([]int, 500)
	for i := range keys {
		keys[i] = 7
	}
	for i := 0; i < 20; i++ {
		resp = post("/v1/inc", map[string][]int{"keys": keys})
		if resp.StatusCode != 200 {
			t.Fatalf("POST /inc batch: status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}

	// Estimate of the hammered key is near 10001.
	var est struct {
		Key      int     `json:"key"`
		Estimate float64 `json:"estimate"`
	}
	r2, err := http.Get(srv.URL + "/v1/estimate/7")
	if err != nil {
		t.Fatal(err)
	}
	decode(r2, &est)
	if est.Estimate < 5000 || est.Estimate > 20000 {
		t.Fatalf("estimate for key 7 = %v, want ≈10001", est.Estimate)
	}

	// Errors: bad key, bad body, out-of-range.
	for _, path := range []string{"/v1/estimate/-1", "/v1/estimate/200", "/v1/estimate/zzz"} {
		r, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode == 200 {
			t.Fatalf("GET %s succeeded", path)
		}
	}
	resp = post("/v1/inc", map[string][]int{"keys": {9999}})
	resp.Body.Close()
	if resp.StatusCode == 200 {
		t.Fatal("out-of-range key accepted")
	}

	// Estimates: full vector.
	var all struct {
		Estimates []float64 `json:"estimates"`
	}
	r3, err := http.Get(srv.URL + "/v1/estimates")
	if err != nil {
		t.Fatal(err)
	}
	decode(r3, &all)
	if len(all.Estimates) != 200 {
		t.Fatalf("estimates length %d", len(all.Estimates))
	}

	// Snapshot decodes and matches the live registers.
	r4, err := http.Get(srv.URL + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := snapcodec.DecodeFrom(r4.Body)
	r4.Body.Close()
	if err != nil {
		t.Fatalf("snapshot decode: %v", err)
	}
	if snap.N != 200 || snap.RNG != nil {
		t.Fatalf("snapshot shape: n=%d rng=%v", snap.N, snap.RNG != nil)
	}
	for i, reg := range snap.Registers {
		if got := st.Bank().Register(i); got != reg {
			t.Fatalf("snapshot register %d = %d, live %d", i, reg, got)
		}
	}

	// Healthz.
	var stats Stats
	r5, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	decode(r5, &stats)
	if stats.Status != "ok" || stats.N != 200 || stats.Keys != 1+20*500 {
		t.Fatalf("healthz: %+v", stats)
	}
}

// Merging a peer snapshot over HTTP must reproduce in-process shardbank
// merging: serve a snapshot from one store, POST it to another, and compare
// against Bank.Merge of reference banks.
func TestHTTPMergeMatchesInProcess(t *testing.T) {
	cfgA := testConfig(t, 400)
	cfgB := testConfig(t, 400)
	cfgB.Seed = 43 // different rng universe, same shape

	stA, err := Open(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	defer stA.Close(false)
	stB, err := Open(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	defer stB.Close(false)

	batchesA := zipfBatches(400, 20, 64, 10)
	batchesB := zipfBatches(400, 20, 64, 11)
	for _, b := range batchesA {
		if err := stA.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range batchesB {
		if err := stB.Apply(b); err != nil {
			t.Fatal(err)
		}
	}

	// Reference: the same two banks merged in process.
	refA := referenceBank(cfgA, batchesA)
	refB := referenceBank(cfgB, batchesB)
	if err := refA.Merge(refB); err != nil {
		t.Fatal(err)
	}

	var blob bytes.Buffer
	if err := stB.SnapshotTo(&blob); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(stA))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/merge", "application/octet-stream", bytes.NewReader(blob.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("POST /merge: status %d: %v", resp.StatusCode, e)
	}
	assertBanksEqual(t, stA.Bank(), refA)

	// And the merge must survive a restart (it was WAL-logged).
	if err := stA.Close(false); err != nil {
		t.Fatal(err)
	}
	stA2, err := Open(cfgA)
	if err != nil {
		t.Fatalf("reopen after merge: %v", err)
	}
	defer stA2.Close(false)
	assertBanksEqual(t, stA2.Bank(), refA)
}

func TestMergeShapeMismatchRejected(t *testing.T) {
	cfg := testConfig(t, 100)
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close(false)

	// Wrong length.
	peer := shardbank.New(50, cfg.Alg, cfg.Shards, 1)
	blob := encodeBank(t, peer)
	if err := st.Merge(blob); err == nil {
		t.Fatal("length mismatch accepted")
	}
	// Wrong algorithm.
	peer2 := shardbank.New(100, bank.NewExactAlg(12), cfg.Shards, 1)
	if err := st.Merge(encodeBank(t, peer2)); err == nil {
		t.Fatal("algorithm mismatch accepted")
	}
	// Garbage blob.
	if err := st.Merge([]byte("not a snapshot")); err == nil {
		t.Fatal("garbage blob accepted")
	}
}

func encodeBank(t *testing.T, b *shardbank.Bank) []byte {
	t.Helper()
	snap := &snapcodec.Snapshot{
		N:         b.Len(),
		Shards:    b.Shards(),
		Seed:      b.Seed(),
		Registers: b.ExportState().Registers,
	}
	if err := snap.SetAlg(b.Algorithm()); err != nil {
		t.Fatal(err)
	}
	data, err := snapcodec.Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// Checkpoint GC: older snapshots and WAL segments must disappear.
func TestCheckpointGarbageCollects(t *testing.T) {
	cfg := testConfig(t, 100)
	cfg.SegmentBytes = 256 // force frequent rotation
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close(false)
	for i, b := range zipfBatches(100, 30, 16, 5) {
		if err := st.Apply(b); err != nil {
			t.Fatal(err)
		}
		if i%10 == 9 {
			if err := st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	seqs, err := listSeqs(cfg.Dir, snapSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 1 {
		t.Fatalf("want exactly 1 snapshot after GC, got %v", seqs)
	}
	segs, err := st.log.Segments()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range segs {
		if s < st.chain.seq.Load() {
			t.Fatalf("stale segment %d below checkpoint %d", s, st.chain.seq.Load())
		}
	}
}

func TestOpenEmptyDirNeedsShape(t *testing.T) {
	_, err := Open(Config{Dir: t.TempDir()})
	if err == nil {
		t.Fatal("open with no shape and no snapshot succeeded")
	}
}

func BenchmarkStoreApply(b *testing.B) {
	cfg := Config{
		Dir:    b.TempDir(),
		N:      100_000,
		Shards: 64,
		Alg:    bank.NewMorrisAlg(0.005, 14),
		Seed:   42,
		Sync:   wal.SyncOff,
	}
	st, err := Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close(false)
	src := stream.NewZipf(uint64(cfg.N), 1.05, xrand.NewSeeded(9))
	batch := make([]int, 1024)
	for i := range batch {
		batch[i] = int(src.Next())
	}
	b.SetBytes(int64(len(batch)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Apply(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(batch))*float64(b.N)/b.Elapsed().Seconds(), "keys/s")
}

// walBytes flushes everything staged and returns the total WAL size — a
// record staged by a rejected request would show up here.
func walBytes(t *testing.T, st *Store) int64 {
	t.Helper()
	if err := st.log.Sync(); err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(st.cfg.Dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		n += fi.Size()
	}
	return n
}

// A request that would fail to apply — a merge against a bank whose
// algorithm cannot merge, a malformed or misplaced delta, a delta whose
// version guard fails, an out-of-range ownership or evict partition, an
// oversized or out-of-range batch — must be rejected BEFORE it reaches the
// WAL: a staged-but-unappliable record would fail identically on every
// replay and brick the store.
func TestUnmergeableAlgorithmRejectedBeforeWAL(t *testing.T) {
	cfg := testConfig(t, 100)
	cfg.Alg = bank.NewExactAlg(12) // ExactAlg does not implement MergeAlgorithm
	cfg.Partitions = 4
	cfg.MaxBatch = 64
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Apply([]int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	peer := shardbank.New(100, cfg.Alg, cfg.Shards, 7)
	walLen := walBytes(t, st)
	err = st.Merge(encodeBank(t, peer))
	if err == nil {
		t.Fatal("merge into exact bank accepted")
	}
	if !errors.Is(err, ErrBadInput) {
		t.Fatalf("want ErrBadInput, got %v", err)
	}
	if got := walBytes(t, st); got != walLen {
		t.Fatalf("rejected merge grew the WAL from %d to %d bytes", walLen, got)
	}

	// A replica that diverged in partition 0 supplies a genuine delta.
	replica := openPeer(t, cfg)
	if err := replica.Apply([]int{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	var delta bytes.Buffer
	if err := replica.PartitionDeltaTo(&delta, 0, divergentBlocks(t, replica, st, 0)); err != nil {
		t.Fatal(err)
	}
	corrupt := bytes.Clone(delta.Bytes())
	corrupt[len(corrupt)/2] ^= 0xff
	oversized := make([]int, cfg.MaxBatch+1)
	for _, tc := range []struct {
		name string
		want error
		call func() error
	}{
		{"corrupt delta", ErrBadInput, func() error { return st.MergeMaxDelta(corrupt, VersionAny) }},
		{"delta to MergeMax", ErrBadInput, func() error { return st.MergeMax(delta.Bytes()) }},
		{"delta to InstallPartition", ErrBadInput, func() error { return st.InstallPartition(delta.Bytes(), false) }},
		{"full snapshot to MergeMaxDelta", ErrBadInput, func() error {
			return st.MergeMaxDelta(partitionBytes(t, replica, 0), VersionAny)
		}},
		{"delta version guard", ErrConflict, func() error {
			return st.MergeMaxDelta(delta.Bytes(), st.PartitionVersion(0)+1)
		}},
		{"ownership partition out of range", ErrBadInput, func() error {
			return st.SetOwnership(1, []int{0}, []int{cfg.Partitions}, nil)
		}},
		{"negative owned partition", ErrBadInput, func() error { return st.SetOwnership(1, nil, nil, []int{-1}) }},
		{"evict partition out of range", ErrBadInput, func() error { return st.EvictPartition(cfg.Partitions) }},
		{"oversized batch", ErrBadInput, func() error { return st.Apply(oversized) }},
		{"oversized epoch batch", ErrBadInput, func() error { _, err := st.ApplyAt(oversized, 1); return err }},
		{"key out of range", ErrBadInput, func() error { return st.Apply([]int{1, cfg.N}) }},
	} {
		if err := tc.call(); !errors.Is(err, tc.want) {
			t.Fatalf("%s: want %v, got %v", tc.name, tc.want, err)
		}
		if got := walBytes(t, st); got != walLen {
			t.Fatalf("%s: rejected request grew the WAL from %d to %d bytes", tc.name, walLen, got)
		}
	}
	if err := st.MergeMaxDelta(delta.Bytes(), st.PartitionVersion(0)); err != nil {
		t.Fatalf("delta at the current version: %v", err)
	}
	if err := st.Apply([]int{1, 2, 3}); err != nil {
		t.Fatalf("apply after rejected merge: %v", err)
	}
	if err := st.Close(false); err != nil {
		t.Fatal(err)
	}
	// The store must reopen cleanly: no merge record may have been logged.
	st2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen after rejected merge bricked the store: %v", err)
	}
	st2.Close(false)
}

// The double-restart torn-tail scenario: a crash leaves a torn record, the
// first restart drops it and writes new records into a fresh segment, and a
// SECOND restart — with the torn segment no longer final — must still open.
func TestTornTailSurvivesSecondRestart(t *testing.T) {
	cfg := testConfig(t, 200)
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	batches := zipfBatches(cfg.N, 10, 32, 8)
	for _, b := range batches {
		if err := st.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	// Abandon without Close and tear the tail (kill -9 mid-write).
	ents, _ := os.ReadDir(cfg.Dir)
	var seg string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".seg") {
			seg = filepath.Join(cfg.Dir, e.Name())
		}
	}
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-11], 0o644); err != nil {
		t.Fatal(err)
	}

	// Restart 1: tolerates the torn tail, appends into a new segment.
	st1, err := Open(cfg)
	if err != nil {
		t.Fatalf("first reopen: %v", err)
	}
	if !st1.Stats().ReplayTorn {
		t.Fatal("first reopen did not report the torn tail")
	}
	replayed1 := st1.Stats().ReplayedRecords
	if err := st1.Apply([]int{5, 6, 7}); err != nil {
		t.Fatal(err)
	}
	if err := st1.Close(false); err != nil { // no checkpoint: torn segment survives
		t.Fatal(err)
	}

	// Restart 2: the torn segment is now non-final but its torn tail runs
	// to EOF, so it must still be tolerated.
	st2, err := Open(cfg)
	if err != nil {
		t.Fatalf("second reopen failed — torn tail became fatal: %v", err)
	}
	defer st2.Close(false)
	if got := st2.Stats().ReplayedRecords; got != replayed1+1 {
		t.Fatalf("second reopen replayed %d records, want %d", got, replayed1+1)
	}
	// And the registers still match a reference applying the same surviving
	// sequence.
	ref := referenceBank(cfg, append(append([][]int{}, batches[:replayed1]...), []int{5, 6, 7}))
	assertBanksEqual(t, st2.Bank(), ref)
}

// Partition snapshots must round-trip through the HTTP surface: every
// partition's GET /snapshot/{p} decodes, the ranges tile the key space, and
// reassembling them reproduces the whole-bank snapshot registers.
func TestPartitionSnapshotEndpoints(t *testing.T) {
	cfg := testConfig(t, 5000)
	cfg.Partitions = 8
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close(false)
	for _, b := range zipfBatches(cfg.N, 50, 64, 9) {
		if err := st.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(Handler(st))
	defer srv.Close()

	full := st.Bank().ExportState().Registers
	got := make([]uint64, 0, cfg.N)
	for p := 0; p < cfg.Partitions; p++ {
		resp, err := http.Get(srv.URL + "/v1/snapshot/" + strconv.Itoa(p))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("partition %d: status %d", p, resp.StatusCode)
		}
		snap, err := snapcodec.Decode(body)
		if err != nil {
			t.Fatalf("partition %d: decode: %v", p, err)
		}
		if !snap.IsPartition() || snap.Partition != p || snap.Parts != cfg.Partitions {
			t.Fatalf("partition %d: header says %d/%d", p, snap.Partition, snap.Parts)
		}
		lo, hi := snapcodec.PartitionRange(cfg.N, cfg.Partitions, p)
		if len(snap.Registers) != hi-lo {
			t.Fatalf("partition %d: %d registers for range [%d,%d)", p, len(snap.Registers), lo, hi)
		}
		got = append(got, snap.Registers...)
	}
	if len(got) != cfg.N {
		t.Fatalf("partitions reassemble to %d registers, want %d", len(got), cfg.N)
	}
	for i := range got {
		if got[i] != full[i] {
			t.Fatalf("register %d: partition view %d, bank %d", i, got[i], full[i])
		}
	}
	// Out-of-range partition is a 404.
	resp, err := http.Get(srv.URL + "/v1/snapshot/99")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("partition 99: status %d, want 404", resp.StatusCode)
	}
}

// MergeMax must behave as the idempotent replica join — and must replay
// exactly across a restart, like every other WAL-logged mutation.
func TestMergeMaxAndReplayExactness(t *testing.T) {
	cfg := testConfig(t, 3000)
	cfg.Partitions = 4
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range zipfBatches(cfg.N, 30, 64, 13) {
		if err := st.Apply(b); err != nil {
			t.Fatal(err)
		}
	}

	// A "replica" of the same shape that saw more of the stream.
	peerCfg := cfg
	peerCfg.Dir = t.TempDir()
	peer, err := Open(peerCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close(false)
	for _, b := range zipfBatches(cfg.N, 60, 64, 13) {
		if err := peer.Apply(b); err != nil {
			t.Fatal(err)
		}
	}

	for p := 0; p < cfg.Partitions; p++ {
		var blob bytes.Buffer
		if err := peer.PartitionSnapshotTo(&blob, p); err != nil {
			t.Fatal(err)
		}
		if err := st.MergeMax(blob.Bytes()); err != nil {
			t.Fatalf("mergemax partition %d: %v", p, err)
		}
	}
	want := st.Bank().ExportState().Registers
	mine := want
	peerRegs := peer.Bank().ExportState().Registers
	for i := range mine {
		if mine[i] < peerRegs[i] {
			t.Fatalf("register %d = %d below peer %d after max join", i, mine[i], peerRegs[i])
		}
	}
	// Idempotence: a second identical round changes nothing.
	for p := 0; p < cfg.Partitions; p++ {
		var blob bytes.Buffer
		if err := peer.PartitionSnapshotTo(&blob, p); err != nil {
			t.Fatal(err)
		}
		if err := st.MergeMax(blob.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	again := st.Bank().ExportState().Registers
	for i := range again {
		if again[i] != want[i] {
			t.Fatalf("register %d changed on repeated max join", i)
		}
	}
	if st.Stats().MergeMaxes != uint64(2*cfg.Partitions) {
		t.Fatalf("mergeMaxes = %d", st.Stats().MergeMaxes)
	}

	// Crash (no final checkpoint) and recover: the replayed store must be
	// bit-identical, merge-max records included.
	if err := st.Close(false); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close(false)
	got := st2.Bank().ExportState().Registers
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("register %d: recovered %d, want %d", i, got[i], want[i])
		}
	}
}

// A max-join between two replicas of one uniform stream logs only the
// registers it raises. The shape is one partition of the replicated
// benchmark ring: 62,500 keys of Morris(0.005, 14) at about 1.7 events per
// key, each replica stepping its own generators. The staged record must be
// at most 15 % of the blob received, and the store replayed from it must
// equal the live one.
func TestMergeMaxLogsRaisedRegisters(t *testing.T) {
	cfg := testConfig(t, 4*62500)
	cfg.Partitions, cfg.Shards = 4, 256
	cfg.Alg = bank.NewMorrisAlg(0.005, 14)
	st, err := Open(cfg)
	must(t, err)
	peerCfg := cfg
	peerCfg.Seed = 7
	peer := openPeer(t, peerCfg)
	rng := xrand.NewSeeded(17)
	for range cfg.N * 17 / 10 / 1024 {
		b := make([]int, 1024)
		for i := range b {
			b[i] = rng.Intn(cfg.N)
		}
		must(t, st.Apply(b))
		must(t, peer.Apply(b))
	}

	blob := partitionBytes(t, peer, 1)
	must(t, st.MergeMax(blob))
	received, logged := st.mergeReceived.Value(), st.mergeLogged.Value()
	if received != uint64(len(blob)) {
		t.Fatalf("received %d merge-blob bytes, sent %d", received, len(blob))
	}
	live := viewOf(t, st)
	must(t, st.Close(false))

	var staged []byte
	_, err = wal.Replay(cfg.Dir, 0, func(rec wal.Record) error {
		if rec.Type == wal.RecMergeMax {
			staged = rec.Blob
		}
		return nil
	})
	must(t, err)
	t.Logf("received %d bytes, logged %d (%.1f %%)", len(blob), len(staged), 100*float64(len(staged))/float64(len(blob)))
	if uint64(len(staged)) != logged {
		t.Fatalf("WAL holds a %d-byte max-join blob, the store counted %d", len(staged), logged)
	}
	if len(staged)*100 > len(blob)*15 {
		t.Errorf("max-join logged %d bytes of a %d-byte blob, want at most 15 %%", len(staged), len(blob))
	}

	re, err := Open(cfg)
	must(t, err)
	defer re.Close(false)
	got := viewOf(t, re)
	if !bytes.Equal(got.snap, live.snap) || !bytes.Equal(got.state, live.state) || got.counts != live.counts {
		t.Error("the store replayed from the logged registers differs from the live one")
	}
}

// A partition-scoped Remark 2.4 merge must land on exactly the partition's
// key range and replay exactly.
func TestPartitionMergeScoped(t *testing.T) {
	cfg := testConfig(t, 2000)
	cfg.Partitions = 4
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close(false)
	before := st.Bank().ExportState().Registers

	// Donor counted a disjoint slice of the workload.
	donorCfg := cfg
	donorCfg.Dir = t.TempDir()
	donorCfg.Seed = 99
	donor, err := Open(donorCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer donor.Close(false)
	for _, b := range zipfBatches(cfg.N, 40, 64, 21) {
		if err := donor.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	const part = 2
	var blob bytes.Buffer
	if err := donor.PartitionSnapshotTo(&blob, part); err != nil {
		t.Fatal(err)
	}
	if err := st.Merge(blob.Bytes()); err != nil {
		t.Fatalf("partition merge: %v", err)
	}
	lo, hi := snapcodec.PartitionRange(cfg.N, cfg.Partitions, part)
	donorRegs := donor.Bank().ExportState().Registers
	after := st.Bank().ExportState().Registers
	for i := range after {
		if i >= lo && i < hi {
			// Remark 2.4 merge of (0, donor) keeps at least the donor register.
			if after[i] < donorRegs[i] {
				t.Fatalf("key %d in merged partition: %d < donor %d", i, after[i], donorRegs[i])
			}
		} else if after[i] != before[i] {
			t.Fatalf("key %d outside partition %d changed: %d -> %d", i, part, before[i], after[i])
		}
	}
	if st.Stats().Merges != 1 {
		t.Fatalf("merges = %d", st.Stats().Merges)
	}
}

// Ownership records are the rebalancer's durable memory: the recorded
// ring/pending/frozen/owned state must survive a restart, an install must
// clear its pending mark on replay too (so a crashed node never
// disjoint-merges the same history twice), an evict must stay evicted, and
// a checkpoint must re-stage the record so WAL truncation cannot lose it.
func TestOwnershipSurvivesRestartAndCheckpoint(t *testing.T) {
	cfg := testConfig(t, 500)
	cfg.Partitions = 8
	st, err := Open(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, _, _, _, ok := st.Ownership(); ok {
		t.Fatal("fresh store claims an ownership epoch")
	}
	if !st.Fresh() {
		t.Fatal("empty store not Fresh")
	}

	const ring = uint64(0xabcdef0123456789)
	if err := st.SetOwnership(ring, []int{1, 2}, []int{3}, []int{0, 1, 2, 4}); err != nil {
		t.Fatalf("set ownership: %v", err)
	}
	if !st.PendingPartition(1) || !st.PendingPartition(2) || st.PendingPartition(0) {
		t.Fatal("pending lookups disagree with the record")
	}
	if !st.FrozenPartition(3) || st.FrozenPartition(1) {
		t.Fatal("frozen lookups disagree with the record")
	}

	// An install of partition 1 (a disjoint frozen copy from a donor with
	// the same shape) must clear that partition's pending mark.
	donorCfg := testConfig(t, cfg.N)
	donorCfg.Partitions = cfg.Partitions
	donor, err := Open(donorCfg)
	if err != nil {
		t.Fatalf("open donor: %v", err)
	}
	lo, hi := snapcodec.PartitionRange(cfg.N, cfg.Partitions, 1)
	keys := make([]int, 0, 64)
	for k := lo; k < hi; k++ {
		keys = append(keys, k)
	}
	if err := donor.Apply(keys); err != nil {
		t.Fatalf("donor apply: %v", err)
	}
	var blob bytes.Buffer
	if err := donor.PartitionSnapshotTo(&blob, 1); err != nil {
		t.Fatalf("donor snapshot: %v", err)
	}
	if err := donor.Close(false); err != nil {
		t.Fatalf("donor close: %v", err)
	}
	if err := st.InstallPartition(blob.Bytes(), true); err != nil {
		t.Fatalf("install: %v", err)
	}
	if st.PendingPartition(1) {
		t.Fatal("install did not clear the pending mark")
	}
	if err := st.EvictPartition(3); err != nil {
		t.Fatalf("evict: %v", err)
	}
	if st.FrozenPartition(3) {
		t.Fatal("evict did not clear the frozen mark")
	}
	if err := st.Close(false); err != nil { // no checkpoint: pure WAL replay
		t.Fatalf("close: %v", err)
	}

	assertOwnership := func(label string, st *Store) {
		t.Helper()
		gotRing, pending, frozen, owned, ok := st.Ownership()
		if !ok || gotRing != ring {
			t.Fatalf("%s: ring %016x ok=%v, want %016x", label, gotRing, ok, ring)
		}
		if fmt.Sprint(pending) != "[2]" || fmt.Sprint(frozen) != "[]" || fmt.Sprint(owned) != "[0 1 2 4]" {
			t.Fatalf("%s: pending=%v frozen=%v owned=%v", label, pending, frozen, owned)
		}
	}
	st2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	assertOwnership("after WAL replay", st2)
	if st2.Fresh() {
		t.Fatal("recovered store claims Fresh")
	}
	if err := st2.Close(true); err != nil { // checkpoint: WAL truncates
		t.Fatalf("close with checkpoint: %v", err)
	}
	st3, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen after checkpoint: %v", err)
	}
	defer st3.Close(false)
	assertOwnership("after checkpoint", st3)
}
