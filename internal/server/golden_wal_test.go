package server

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"repro/internal/engine"
)

// The scripted history below drives every store write path — Apply with
// sorted and unsorted batches, ApplyAt with the origin epoch behind, equal,
// ahead and expired, AdvanceWindow, Merge, MergeMax, MergeMaxDelta,
// InstallPartition with both joins, SetOwnership, EvictPartition — with an
// optional Checkpoint in the middle. The committed segments are never
// regenerated; a change that moves a script's bytes adds a new set:
//
//   - testdata/golden-wal holds the segments both scripts wrote before the
//     store had one mutation path. The window script still writes them.
//   - testdata/golden-wal-2/bank holds the bank script's segments since a
//     live max-join logs only the registers it raises.
//
// A change to any write path must reproduce the newest set byte for byte,
// and every older set must still replay to the live state.

// scripted is one store the script wrote, still open, plus every WAL
// segment the script saw it write.
type scripted struct {
	name string
	cfg  Config
	st   *Store
	segs map[string][]byte
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// captureSegments records the bytes of every WAL segment in dir, so
// segments a checkpoint truncates are still compared.
func captureSegments(t *testing.T, dir string, into map[string][]byte) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	must(t, err)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		must(t, err)
		into[filepath.Base(p)] = data
	}
}

func partitionBytes(t *testing.T, st *Store, p int) []byte {
	t.Helper()
	var buf bytes.Buffer
	must(t, st.PartitionSnapshotTo(&buf, p))
	return buf.Bytes()
}

// divergentBlocks lists the blocks of partition p whose fingerprints differ
// between a and b.
func divergentBlocks(t *testing.T, a, b *Store, p int) []uint32 {
	t.Helper()
	ah, err := a.PartitionBlockHashes(p)
	must(t, err)
	bh, err := b.PartitionBlockHashes(p)
	must(t, err)
	var diff []uint32
	for i := range ah {
		if ah[i] != bh[i] {
			diff = append(diff, uint32(i))
		}
	}
	if len(diff) == 0 {
		t.Fatalf("partition %d: no divergent blocks", p)
	}
	return diff
}

func openPeer(t *testing.T, cfg Config) *Store {
	t.Helper()
	cfg.Dir = t.TempDir()
	st, err := Open(cfg)
	must(t, err)
	t.Cleanup(func() { st.Close(false) })
	return st
}

// bankScript runs the bank half of the history: batches, every join, the
// ownership records.
func bankScript(t *testing.T, checkpoint bool) *scripted {
	cfg := testConfig(t, 2048)
	cfg.Partitions = 4
	st, err := Open(cfg)
	must(t, err)
	s := &scripted{name: "bank", cfg: cfg, st: st, segs: map[string][]byte{}}

	// A replica that saw more of the same stream, and a donor that counted
	// a disjoint one.
	replica := openPeer(t, cfg)
	donorCfg := cfg
	donorCfg.Seed = 99
	donor := openPeer(t, donorCfg)
	batches := zipfBatches(cfg.N, 8, 96, 5)
	for i, b := range batches {
		if i%2 == 0 {
			slices.Sort(b)
		}
		must(t, replica.Apply(b))
		if i < 6 {
			must(t, st.Apply(b))
		}
	}
	for _, b := range narrowBatches(0, 300, 3, 64, 6) {
		must(t, replica.Apply(b))
	}
	for _, b := range zipfBatches(cfg.N, 4, 96, 7) {
		must(t, donor.Apply(b))
	}

	// An epoch tag means nothing to an engine without buckets.
	if n, err := st.ApplyAt([]int{5, 3, 2047, 3}, 9); err != nil || n != 4 {
		t.Fatalf("ApplyAt on the bank: %d, %v", n, err)
	}
	must(t, st.Merge(snapshotBytes(t, donor)))
	must(t, st.MergeMax(partitionBytes(t, replica, 1)))
	var delta bytes.Buffer
	must(t, replica.PartitionDeltaTo(&delta, 0, divergentBlocks(t, replica, st, 0)))
	must(t, st.MergeMaxDelta(delta.Bytes(), st.PartitionVersion(0)))
	must(t, st.SetOwnership(7, []int{2, 3}, []int{1}, []int{0, 2, 3}))
	if checkpoint {
		captureSegments(t, cfg.Dir, s.segs)
		must(t, st.Checkpoint())
	}
	must(t, st.InstallPartition(partitionBytes(t, donor, 2), true))
	must(t, st.InstallPartition(partitionBytes(t, replica, 3), false))
	must(t, st.EvictPartition(1))
	must(t, st.Apply(batches[6]))
	captureSegments(t, cfg.Dir, s.segs)
	return s
}

// windowScript runs the windowed half: clock ticks, epoch-tagged batches in
// every position relative to the local clock, a replica join, idle ticks.
func windowScript(t *testing.T, checkpoint bool) *scripted {
	cfg, clk := windowConfig(t, 1024)
	st, err := Open(cfg)
	must(t, err)
	s := &scripted{name: "window", cfg: cfg, st: st, segs: map[string][]byte{}}
	applyAt := func(keys []int, epoch uint64, want int) {
		t.Helper()
		if n, err := st.ApplyAt(keys, epoch); err != nil || n != want {
			t.Fatalf("ApplyAt(epoch %d): %d, %v; want %d", epoch, n, err, want)
		}
	}

	batches := zipfBatches(cfg.N, 6, 80, 11)
	slices.Sort(batches[0])
	slices.Sort(batches[2])
	clk.Store(1)
	must(t, st.Apply(batches[0]))
	must(t, st.Apply(batches[1]))
	applyAt(batches[2], 1, 80)      // origin epoch equal
	applyAt(batches[3], 0, 80)      // behind, bucket still live
	applyAt(batches[4][:40], 3, 40) // ahead: rotates to 3 first
	clk.Store(6)
	applyAt(batches[4][40:], 1, 0) // expired: the clock tick to 6 leaves epoch 1 behind the ring
	if checkpoint {
		captureSegments(t, cfg.Dir, s.segs)
		must(t, st.Checkpoint())
	}
	peerCfg, peerClk := windowConfig(t, 1024)
	peerCfg.Seed = 77
	peerClk.Store(6)
	peer := openPeer(t, peerCfg)
	for _, b := range zipfBatches(cfg.N, 4, 80, 12) {
		must(t, peer.Apply(b))
	}
	must(t, st.MergeMax(partitionBytes(t, peer, 2)))
	clk.Store(7)
	must(t, st.AdvanceWindow())
	must(t, st.AdvanceWindow()) // nothing left to advance: no record
	must(t, st.Apply(batches[5]))
	captureSegments(t, cfg.Dir, s.segs)
	return s
}

func runScript(t *testing.T, checkpoint bool) []*scripted {
	return []*scripted{bankScript(t, checkpoint), windowScript(t, checkpoint)}
}

// goldenSets lists each script's committed segment sets, oldest first; the
// last is the one the store writes today.
var goldenSets = map[string][]string{
	"bank":   {"golden-wal", "golden-wal-2"},
	"window": {"golden-wal"},
}

// Every write path stages the same records, in the same order, with the
// same bytes as the newest golden set of its script.
func TestGoldenWAL(t *testing.T) {
	types := map[byte]int{}
	for _, s := range runScript(t, true) {
		must(t, s.st.Close(false))
		sets := goldenSets[s.name]
		dir := filepath.Join("testdata", sets[len(sets)-1], s.name)
		for typ, n := range walRecordTypes(t, dir) {
			types[typ] += n
		}
		want := map[string][]byte{}
		captureSegments(t, dir, want)
		if len(want) == 0 {
			t.Fatalf("%s: no golden segments under %s", s.name, dir)
		}
		names := func(m map[string][]byte) []string {
			var out []string
			for k := range m {
				out = append(out, k)
			}
			sort.Strings(out)
			return out
		}
		if got, w := names(s.segs), names(want); !slices.Equal(got, w) {
			t.Fatalf("%s: wrote segments %v, golden has %v", s.name, got, w)
		}
		for name, w := range want {
			if got := s.segs[name]; !bytes.Equal(got, w) {
				t.Errorf("%s: %s differs from the golden segment (%d bytes, want %d)", s.name, name, len(got), len(w))
			}
		}
	}
	// Every on-disk record type, packed batch forms included, is pinned.
	for typ := byte(1); typ <= 9; typ++ {
		if types[typ] == 0 {
			t.Errorf("golden segments hold no record of type %d (types %v)", typ, types)
		}
	}
}

// Every committed golden set, older ones included, replays to the state of
// the store running its script today: records written by older binaries —
// max-joins that logged the whole peer snapshot — recover what the live
// store holds.
func TestGoldenWALReplays(t *testing.T) {
	for _, s := range runScript(t, true) {
		live := viewOf(t, s.st)
		must(t, s.st.Close(false))
		for _, set := range goldenSets[s.name] {
			segs := map[string][]byte{}
			captureSegments(t, filepath.Join("testdata", set, s.name), segs)
			cfg := s.cfg
			cfg.Dir = t.TempDir()
			cfg.Clock = func() uint64 { return 0 }
			for name, data := range segs {
				must(t, os.WriteFile(filepath.Join(cfg.Dir, name), data, 0o644))
			}
			re, err := Open(cfg)
			if err != nil {
				t.Fatalf("%s/%s: open: %v", set, s.name, err)
			}
			got := viewOf(t, re)
			must(t, re.Close(false))
			label := set + "/" + s.name
			if !bytes.Equal(got.snap, live.snap) || !bytes.Equal(got.state, live.state) {
				t.Errorf("%s: replayed engine differs from the live one", label)
			}
			if got.ring != live.ring || got.owns != live.owns ||
				!slices.Equal(got.pending, live.pending) || !slices.Equal(got.frozen, live.frozen) ||
				!slices.Equal(got.owned, live.owned) ||
				!slices.Equal(got.pendingAt, live.pendingAt) || !slices.Equal(got.frozenAt, live.frozenAt) {
				t.Errorf("%s: replayed ownership differs from the live one", label)
			}
			if got.counts != live.counts {
				t.Errorf("%s: replayed counters %+v, live %+v", label, got.counts, live.counts)
			}
		}
	}
}

// storeView is everything replay must reproduce of a live store.
type storeView struct {
	snap, state            []byte
	ring                   uint64
	pending, frozen, owned []int
	owns                   bool
	pendingAt, frozenAt    []bool
	counts                 storeCounts
}

// storeCounts are the operation counters, live and replayed alike.
type storeCounts struct {
	batches, keys, merges, mergeMaxs, deltaMaxs, evicts, ticks, stales uint64
}

func viewOf(t *testing.T, st *Store) storeView {
	t.Helper()
	var v storeView
	v.snap = snapshotBytes(t, st)
	var state bytes.Buffer
	must(t, engine.SnapshotTo(&state, st.eng, 0, 0, true))
	v.state = state.Bytes()
	v.ring, v.pending, v.frozen, v.owned, v.owns = st.Ownership()
	for p := 0; p < st.Partitions(); p++ {
		v.pendingAt = append(v.pendingAt, st.PendingPartition(p))
		v.frozenAt = append(v.frozenAt, st.FrozenPartition(p))
	}
	v.counts = storeCounts{
		batches: st.batches.Value(), keys: st.keys.Value(),
		merges: st.merges.Value(), mergeMaxs: st.mergeMaxs.Value(), deltaMaxs: st.deltaMaxs.Value(),
		evicts: st.evicts.Value(), ticks: st.ticks.Value(), stales: st.stales.Value(),
	}
	return v
}

// A store reopened from its WAL equals the live store that wrote it:
// engine bytes and generator state, ownership, and — when the whole log
// replays from the seed — every operation counter.
func TestLiveEqualsReplay(t *testing.T) {
	for _, checkpoint := range []bool{false, true} {
		for _, s := range runScript(t, checkpoint) {
			live := viewOf(t, s.st)
			must(t, s.st.Close(false))
			cfg := s.cfg
			cfg.Clock = func() uint64 { return 0 }
			re, err := Open(cfg)
			if err != nil {
				t.Fatalf("%s (checkpoint %v): reopen: %v", s.name, checkpoint, err)
			}
			got := viewOf(t, re)
			must(t, re.Close(false))
			label := s.name
			if checkpoint {
				label += " from a checkpoint"
			}
			if !bytes.Equal(got.snap, live.snap) || !bytes.Equal(got.state, live.state) {
				t.Errorf("%s: replayed engine differs from the live one", label)
			}
			if got.ring != live.ring || got.owns != live.owns ||
				!slices.Equal(got.pending, live.pending) || !slices.Equal(got.frozen, live.frozen) ||
				!slices.Equal(got.owned, live.owned) ||
				!slices.Equal(got.pendingAt, live.pendingAt) || !slices.Equal(got.frozenAt, live.frozenAt) {
				t.Errorf("%s: replayed ownership differs from the live one", label)
			}
			if !checkpoint && got.counts != live.counts {
				t.Errorf("%s: replayed counters %+v, live %+v", label, got.counts, live.counts)
			}
		}
	}
}
