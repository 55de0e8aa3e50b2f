package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"testing"

	"repro/internal/bank"
	"repro/internal/snapcodec"
)

// chainedStore leaves a closed bank store in cfg.Dir whose newest
// checkpoint is a full snapshot and one delta on top of it, and returns
// their paths.
func chainedStore(t *testing.T, cfg Config, churn func(n int) []int) (full, delta string) {
	t.Helper()
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range zipfBatches(cfg.N, 250, 4096, 9) {
		if err := st.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	checkpoint(t, st)
	keys := churn(cfg.N)
	for i := 0; i < 40; i++ { // Morris steps are probabilistic; make each key move
		if err := st.Apply(keys); err != nil {
			t.Fatal(err)
		}
	}
	checkpoint(t, st)
	if got := st.Stats().CheckpointChain; got != 1 {
		t.Fatalf("chain = %d after full + churn checkpoints, want 1", got)
	}
	if err := st.Close(false); err != nil {
		t.Fatal(err)
	}
	fulls, err := listSeqs(cfg.Dir, snapSuffix)
	if err != nil || len(fulls) != 1 {
		t.Fatalf("full checkpoints %v, err %v", fulls, err)
	}
	deltas, err := listSeqs(cfg.Dir, deltaSuffix)
	if err != nil || len(deltas) != 1 {
		t.Fatalf("delta checkpoints %v, err %v", deltas, err)
	}
	return snapPath(cfg.Dir, fulls[0]), deltaPath(cfg.Dir, deltas[0])
}

// registerByte returns the offset of a byte of packed register values in
// checkpoint data: inside the first register block, past the header, a
// delta's block list, and the block's own width and exception bytes.
// Flipping its low bit changes one register within the block's base width,
// so the file still parses and only the CRC can tell.
func registerByte(t *testing.T, data []byte) int {
	t.Helper()
	s, err := snapcodec.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	uv := func(v int) int { return len(binary.AppendUvarint(nil, uint64(v))) }
	off := 4 + 1 + 1 + len(s.AlgName) + 1 + 8 + uv(s.N) + uv(s.Shards) + 8 + 1 + uv(snapcodec.BlockLen)
	if s.IsDelta() {
		off += 8 + uv(s.DeltaRegs) + uv(len(s.DeltaBlocks))
		for i, bi := range s.DeltaBlocks {
			if i > 0 {
				bi -= s.DeltaBlocks[i-1]
			}
			off += uv(int(bi))
		}
	}
	if data[off] == 0 {
		t.Fatal("the first register block is all zeros")
	}
	off += 2 // base width, exception count
	if data[off-1] > 0 {
		off++ // exception width
	}
	return off
}

// No bit-rotted checkpoint is ever served: one flipped byte in the register
// section or the CRC trailer of the newest full checkpoint, or of the
// delta above it, fails Open with snapcodec.ErrChecksum — although a
// restore writes each file's register blocks into the bank before it
// reads the trailer.
func TestOpenRejectsBitRot(t *testing.T) {
	cfg := testConfig(t, 20_000)
	full, delta := chainedStore(t, cfg, func(int) []int { return narrowBatches(0, 256, 1, 64, 5)[0] })
	for _, path := range []string{full, delta} {
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, flip := range []struct {
			where string
			at    int
		}{{"register section", registerByte(t, orig)}, {"CRC trailer", len(orig) - 1}} {
			rot := bytes.Clone(orig)
			rot[flip.at] ^= 1
			if err := os.WriteFile(path, rot, 0o644); err != nil {
				t.Fatal(err)
			}
			st, err := Open(cfg)
			if err == nil {
				st.Close(false)
			}
			if !errors.Is(err, snapcodec.ErrChecksum) {
				t.Errorf("%s, %s flipped: Open error %v, want a checksum mismatch", path, flip.where, err)
			}
		}
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := Open(cfg)
	if err != nil {
		t.Fatalf("the mended chain does not open: %v", err)
	}
	st.Close(false)
}

// A restart allocates no more than the bank's Go-heap words plus 1 MiB,
// whatever the key count: the full checkpoint and the delta decode straight
// into the bank's packed registers. A mapped bank (arena.go) counts no heap
// words at all.
func TestOpenAllocatesThePackedBank(t *testing.T) {
	const slack = 1 << 20
	for _, n := range []int{1 << 20, 1 << 22} {
		cfg := testConfig(t, n)
		cfg.Shards = 256
		cfg.Alg = bank.NewMorrisAlg(0.005, 14)
		chainedStore(t, cfg, func(n int) []int { // 1 % churn: one key in every hundredth block
			var keys []int
			for b := 0; b < snapcodec.NumBlocks(n); b += 100 {
				keys = append(keys, b*snapcodec.BlockLen)
			}
			return keys
		})
		var st *Store
		var err error
		got := allocatedBy(func() { st, err = Open(cfg) })
		if err != nil {
			t.Fatal(err)
		}
		b := st.Bank()
		limit := uint64(max(0, b.SizeBytes()-b.MappedBytes())) + slack
		t.Logf("n=%d: Open allocated %d bytes, limit %d (%d-byte bank, %d mapped)",
			n, got, limit, b.SizeBytes(), b.MappedBytes())
		if got > limit {
			t.Errorf("n=%d: Open allocated %d bytes, limit %d", n, got, limit)
		}
		if st.Stats().CheckpointChain != 1 {
			t.Fatal("the reopened store lost its delta")
		}
		st.Close(false)
	}
}

// A delta joins the chain only when it names the newest chain element and
// matches the full snapshot's identity.
func TestChainsOnto(t *testing.T) {
	base := &snapcodec.Snapshot{AlgName: "window", Width: 12, Param: 3, N: 1000, Shards: 4, Seed: 7,
		Engine: "window", Registers: make([]uint64, 4000)}
	delta := func(edit func(d *snapcodec.Snapshot)) *snapcodec.Snapshot {
		d := *base
		d.Registers = nil
		d.Delta, d.DeltaBase, d.DeltaRegs = true, 5, 4000
		edit(&d)
		return &d
	}
	if err := chainsOnto(base, delta(func(*snapcodec.Snapshot) {}), 5); err != nil {
		t.Fatalf("a matching delta rejected: %v", err)
	}
	for name, edit := range map[string]func(d *snapcodec.Snapshot){
		"not a delta":          func(d *snapcodec.Snapshot) { d.Delta = false },
		"broken link":          func(d *snapcodec.Snapshot) { d.DeltaBase = 4 },
		"algorithm":            func(d *snapcodec.Snapshot) { d.Param = 4 },
		"seed":                 func(d *snapcodec.Snapshot) { d.Seed = 99 },
		"shape":                func(d *snapcodec.Snapshot) { d.Shards = 8 },
		"partition":            func(d *snapcodec.Snapshot) { d.Parts = 2 },
		"engine":               func(d *snapcodec.Snapshot) { d.Engine = "distinct" },
		"short register count": func(d *snapcodec.Snapshot) { d.DeltaRegs = 3999 },
	} {
		if err := chainsOnto(base, delta(edit), 5); err == nil {
			t.Errorf("%s mismatch accepted", name)
		}
	}
}
