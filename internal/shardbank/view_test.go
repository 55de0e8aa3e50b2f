package shardbank

import (
	"sync"
	"testing"

	"repro/internal/bank"
	"repro/internal/xrand"
)

// A frozen range serves exactly the registers ExportState reports (the
// checked Get loop, kept as the reference), for every width, shard count
// and range alignment, whether read whole or in odd-sized spans.
func TestFreezeRangeMatchesState(t *testing.T) {
	for _, tc := range []struct {
		n, shards int
		alg       bank.Algorithm
	}{
		{10_000, 16, bank.NewMorrisAlg(0.005, 14)},
		{10_000, 1, bank.NewMorrisAlg(0.005, 14)},
		{777, 256, bank.NewCsurosAlg(16, 10)},
		{4_099, 8, bank.NewExactAlg(33)},
		{130, 64, bank.NewExactAlg(7)},
	} {
		b := New(tc.n, tc.alg, tc.shards, 7)
		b.IncrementBatch(zipfKeys(tc.n, 200_000, 9))
		full := b.ExportState().Registers
		n := tc.n
		for _, r := range [][2]int{{0, n}, {0, 1}, {n - 1, n}, {n / 8, n/2 + 3}, {n / 2, n / 2}, {1, n - 1}} {
			v, err := b.FreezeRange(r[0], r[1])
			if err != nil {
				t.Fatalf("FreezeRange(%d, %d): %v", r[0], r[1], err)
			}
			if v.Len() != r[1]-r[0] {
				t.Fatalf("FreezeRange(%d, %d): %d registers", r[0], r[1], v.Len())
			}
			got := make([]uint64, v.Len())
			for at, span := 0, 1; at < len(got); at, span = at+span, span*2+1 {
				v.ReadRegisters(got[at:min(at+span, len(got))], at)
			}
			for i, reg := range got {
				if reg != full[r[0]+i] {
					t.Fatalf("n=%d shards=%d [%d,%d): key %d = %d, want %d",
						tc.n, tc.shards, r[0], r[1], r[0]+i, reg, full[r[0]+i])
				}
			}
		}
		// A whole view holds one chunk — 2·width+1 words a shard — whatever n.
		v := b.Freeze()
		if words := len(v.buf); words > b.Shards()*(2*tc.alg.Width()+1) {
			t.Fatalf("whole view holds %d words for %d shards × %d bits", words, b.Shards(), tc.alg.Width())
		}
		v.Release()
	}
	b := New(10_000, bank.NewExactAlg(8), 4, 1)
	for _, r := range [][2]int{{-1, 5}, {0, 10_001}, {7, 3}} {
		if _, err := b.FreezeRange(r[0], r[1]); err == nil {
			t.Fatalf("range [%d, %d) accepted", r[0], r[1])
		}
	}
}

// A Freeze taken while another goroutine is mid-IncrementBatch is a cut at
// shard granularity: every shard holds the state after some whole number of
// batches, a prefix of the shards one batch ahead of the rest. Restored
// into a fresh bank, the view replays what each shard is still owed and
// lands bit-identically on the writer's final state.
func TestFreezeUnderConcurrentIncrementBatch(t *testing.T) {
	const n, shards, nBatches = 4096, 8, 60
	alg := bank.NewMorrisAlg(0.3, 10) // large base: nearly every step draws
	rng := xrand.NewSeeded(5)
	batches := make([][]int, nBatches)
	for i := range batches {
		batches[i] = make([]int, 2048)
		for j := range batches[i] {
			// Every batch moves every shard's generator, so a shard's state
			// names the batch it is at.
			batches[i][j] = int(rng.Uint64() % n)
		}
	}
	live := New(n, alg, shards, 3)
	var wg sync.WaitGroup
	wg.Add(1)
	started := make(chan struct{})
	go func() {
		defer wg.Done()
		for i, b := range batches {
			if i == 2 {
				close(started)
			}
			live.IncrementBatch(b)
		}
	}()
	<-started
	v := live.Freeze()
	wg.Wait()

	// Locate each shard of the view on the reference timeline.
	ref := New(n, alg, shards, 3)
	frozen := make([]uint64, n)
	v.ReadRegisters(frozen, 0)
	at := make([]int, shards) // batches applied to shard s at the freeze
	for s := range at {
		at[s] = -1
	}
	for done := 0; done <= nBatches; done++ {
		st := ref.ExportState()
		for s := 0; s < shards; s++ {
			if at[s] >= 0 || st.RNG[s] != v.RNG()[s] {
				continue
			}
			same := true
			for k := s; k < n && same; k += shards {
				same = st.Registers[k] == frozen[k]
			}
			if same {
				at[s] = done
			}
		}
		if done < nBatches {
			ref.IncrementBatch(batches[done])
		}
	}
	for s := 0; s < shards; s++ {
		if at[s] < 0 {
			t.Fatalf("shard %d of the view matches no batch boundary", s)
		}
		if s > 0 && (at[s] > at[s-1] || at[s] < at[0]-1) {
			t.Fatalf("view is not a prefix cut of one batch: shard positions %v", at)
		}
	}

	restored, err := restoreState(n, alg, shards, 99, State{Registers: frozen, RNG: v.RNG()})
	if err != nil {
		t.Fatal(err)
	}
	for i := at[shards-1]; i < nBatches; i++ {
		var owed []int
		for _, k := range batches[i] {
			if i >= at[k%shards] {
				owed = append(owed, k)
			}
		}
		restored.IncrementBatch(owed)
	}
	want, got := live.ExportState(), restored.ExportState()
	for k := range want.Registers {
		if want.Registers[k] != got.Registers[k] {
			t.Fatalf("key %d: restored view replays to %d, live bank holds %d", k, got.Registers[k], want.Registers[k])
		}
	}
	for s := range want.RNG {
		if want.RNG[s] != got.RNG[s] {
			t.Fatalf("shard %d generator diverged after replay", s)
		}
	}
}

// TopRegisters' ordering contract on hand-built registers: descending
// register, ties toward the smaller key, zeros never rank, k capped at the
// range.
func TestTopRegistersOrdering(t *testing.T) {
	b := New(64, bank.NewExactAlg(8), 4, 1)
	for key, count := range map[int]uint64{3: 9, 17: 9, 5: 9, 40: 2, 41: 200, 63: 1} {
		b.IncrementBy(key, count)
	}
	top, err := b.TopRegisters(4, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	want := []RegEntry{{41, 200}, {3, 9}, {5, 9}, {17, 9}}
	if len(top) != len(want) {
		t.Fatalf("top = %v, want %v", top, want)
	}
	for i := range want {
		if top[i] != want[i] {
			t.Fatalf("top = %v, want %v", top, want)
		}
	}
	if top, _ = b.TopRegisters(1000, 4, 41); len(top) != 3 || top[0].Key != 5 || top[2].Key != 40 {
		t.Fatalf("sub-range top = %v", top)
	}
	if top, _ = b.TopRegisters(5, 42, 63); len(top) != 0 {
		t.Fatalf("all-zero range ranked %v", top)
	}
	if top, _ = b.TopRegisters(0, 0, 64); len(top) != 0 {
		t.Fatalf("k=0 ranked %v", top)
	}
	if _, err := b.TopRegisters(3, 5, 65); err == nil {
		t.Fatal("range past n accepted")
	}
}
