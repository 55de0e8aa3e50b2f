package server

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// walRecordTypes counts the on-disk record types in dir's WAL segments.
func walRecordTypes(t *testing.T, dir string) map[byte]int {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	types := map[byte]int{}
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		for off := 16; off+5 <= len(data); off += 9 + int(binary.LittleEndian.Uint32(data[off+1:])) {
			types[data[off]]++
		}
	}
	return types
}

// One log holding both batch forms — packed records for ascending batches
// (what the wire decoder hands the store), uvarint records for batches in
// request order, each plain and epoch-tagged — replays, without a
// checkpoint, to the bytes the live store served.
func TestMixedBatchFormsReplayExactly(t *testing.T) {
	cfg, clk := windowConfig(t, 4096)
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range zipfBatches(cfg.N, 48, 300, 77) {
		sorted := slices.Sorted(slices.Values(b))
		switch i % 4 {
		case 0:
			err = st.Apply(sorted)
		case 1:
			err = st.Apply(b)
		case 2:
			_, err = st.ApplyAt(sorted, clk.Load())
		case 3:
			_, err = st.ApplyAt(b, clk.Load()-min(clk.Load(), 1))
		}
		if err != nil {
			t.Fatal(err)
		}
		if i%12 == 11 {
			clk.Add(1)
		}
	}
	want := snapshotBytes(t, st)
	if err := st.Close(false); err != nil {
		t.Fatal(err)
	}
	// Types 1 and 7 are uvarint batches, 8 and 9 packed ones.
	if types := walRecordTypes(t, cfg.Dir); types[1] == 0 || types[7] == 0 || types[8] == 0 || types[9] == 0 {
		t.Fatalf("log lacks a batch form: record types %v", types)
	}

	cfg.Clock = func() uint64 { return 0 }
	st2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close(false)
	if s := st2.Stats(); s.RecoveredFrom != "seed" {
		t.Fatalf("recovered from %q, want a replay of the whole log", s.RecoveredFrom)
	}
	if got := snapshotBytes(t, st2); !bytes.Equal(got, want) {
		t.Fatal("replayed store serves different snapshot bytes")
	}
}
