package shardbank

import (
	"sort"
	"sync"
	"testing"

	"repro/internal/bank"
	"repro/internal/xrand"
)

// bruteTop is the ranking TopRegisters must reproduce, computed the slow
// way: every non-zero register of [lo, hi), sorted by descending register
// then ascending key, cut at k.
func bruteTop(regs []uint64, k, lo, hi int) []RegEntry {
	out := []RegEntry{}
	for key := lo; key < hi; key++ {
		if regs[key] != 0 {
			out = append(out, RegEntry{Key: key, Reg: regs[key]})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Reg != out[j].Reg {
			return out[i].Reg > out[j].Reg
		}
		return out[i].Key < out[j].Key
	})
	return out[:max(0, min(k, len(out)))]
}

// checkBlockIndex holds a quiescent bank to the model: every block-max
// entry equals its block's largest register, and TopRegisters equals the
// brute-force ranking over unaligned ranges, k of 1, 10 and past the range.
func checkBlockIndex(t *testing.T, b *Bank, what string, extra [2]int) {
	t.Helper()
	regs := b.ExportState().Registers
	n := b.Len()
	for bi := range b.blockMax {
		top := uint64(0)
		for _, v := range regs[bi*DirtyBlockLen : min((bi+1)*DirtyBlockLen, n)] {
			top = max(top, v)
		}
		if got := b.blockMax[bi].Load(); got != top {
			t.Fatalf("%s: blockMax[%d] = %d, block's largest register is %d", what, bi, got, top)
		}
	}
	for _, r := range [][2]int{
		{0, n}, {1, n - 1}, {n - 1, n}, {5, 5}, {127, 129}, {128, 256}, {100, 300},
		{n / 3, n/3 + 200}, extra,
	} {
		lo, hi := r[0], r[1]
		for _, k := range []int{1, 10, hi - lo + 5} {
			got, err := b.TopRegisters(k, lo, hi)
			if err != nil {
				t.Fatalf("%s: TopRegisters(%d, %d, %d): %v", what, k, lo, hi, err)
			}
			want := bruteTop(regs, k, lo, hi)
			if len(got) != len(want) {
				t.Fatalf("%s: TopRegisters(%d, %d, %d) ranks %d keys, brute force %d\n got %v\nwant %v",
					what, k, lo, hi, len(got), len(want), got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: TopRegisters(%d, %d, %d) rank %d = %+v, brute force %+v",
						what, k, lo, hi, i, got[i], want[i])
				}
			}
		}
	}
}

// script is a byte-scripted operation history; reads past the end yield 0,
// so every byte string is a valid (if short) history.
type script struct {
	data []byte
	pos  int
}

func (s *script) more() bool { return s.pos < len(s.data) }

func (s *script) byte() int {
	if s.pos >= len(s.data) {
		return 0
	}
	s.pos++
	return int(s.data[s.pos-1])
}

func (s *script) u16() int { return s.byte()<<8 | s.byte() }

// runBlockIndexScript replays one scripted history of every register write
// path against a bank whose shape the first byte picks, checking the block
// index against the model after every step.
func runBlockIndexScript(t *testing.T, data []byte) {
	const n = 700 // 5.47 blocks: the last one is partial
	s := &script{data: data}
	shape := s.byte()
	shards := []int{1, 8, 256}[shape%3]
	alg := []bank.Algorithm{
		bank.NewMorrisAlg(0.3, 8), bank.NewCsurosAlg(9, 3), bank.NewExactAlg(6),
	}[shape/3%3]
	maxReg := uint64(1)<<uint(alg.Width()) - 1
	b := New(n, alg, shards, uint64(shape))
	// A range and the registers a peer would ship for it: small values, so
	// ties are heavy, with all-zero stretches.
	peerRange := func() (int, []uint64) {
		lo := s.u16() % n
		regs := make([]uint64, min(s.byte()*2, n-lo))
		fill, hole := uint64(s.byte()), s.byte()%8+2
		for i := range regs {
			if i/hole%2 == 0 {
				regs[i] = (fill + uint64(i%3)) % (maxReg + 1)
			}
		}
		return lo, regs
	}
	extra := [2]int{0, n}
	for step := 0; s.more() && step < 64; step++ {
		op := s.byte()
		what := []string{"Increment", "IncrementBy", "IncrementBatch", "MergeRange",
			"MergeMaxRange", "ResetRange", "Restorer"}[op%7]
		switch op % 7 {
		case 0:
			b.Increment(s.u16() % n)
		case 1:
			b.IncrementBy(s.u16()%n, uint64(s.byte()))
		case 2:
			keys := make([]int, s.byte())
			base, stride := s.u16()%n, s.byte()%5
			for i := range keys {
				keys[i] = (base + i*stride) % n
			}
			b.IncrementBatch(keys)
		case 3:
			lo, regs := peerRange()
			if err := b.MergeRange(lo, regs); err != nil {
				if _, ok := alg.(bank.MergeAlgorithm); ok {
					t.Fatalf("MergeRange(%d, %d regs): %v", lo, len(regs), err)
				}
			}
		case 4:
			lo, regs := peerRange()
			if err := b.MergeMaxRange(lo, regs); err != nil {
				t.Fatalf("MergeMaxRange(%d, %d regs): %v", lo, len(regs), err)
			}
		case 5:
			lo := s.u16() % n
			hi := lo + s.u16()%(n-lo+1)
			if err := b.ResetRange(lo, hi); err != nil {
				t.Fatalf("ResetRange(%d, %d): %v", lo, hi, err)
			}
			extra = [2]int{lo, hi}
		case 6:
			// A restart: the exported state installed into a fresh bank.
			fresh, err := restoreState(n, alg, shards, uint64(shape), b.ExportState())
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			b = fresh
		}
		checkBlockIndex(t, b, what, extra)
	}
}

func FuzzBankTopRegisters(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 2, 200, 0, 0, 1, 2, 255, 0, 100, 3, 5, 0, 90, 1, 44, 6, 0, 0, 7})
	f.Add([]byte{8, 1, 0, 130, 9, 1, 0, 131, 9, 1, 0, 5, 9, 4, 0, 120, 40, 9, 3, 5, 0, 128, 0, 128})
	// Longer pseudo-random histories, three per shard count × algorithm.
	rng := xrand.NewSeeded(16)
	for shape := 0; shape < 27; shape++ {
		hist := make([]byte, 200)
		for i := range hist {
			hist[i] = byte(rng.Uint64())
		}
		hist[0] = byte(shape)
		f.Add(hist)
	}
	f.Fuzz(runBlockIndexScript)
}

// TopRegisters under writers on every shard keeps its documented
// consistency. Registers only grow here, so for each call: the report is
// ranked; every reported register lies between the key's value before the
// call and its final one; and every key that was already strictly above the
// reported k-th register before the call started (every non-zero key, when
// the report is short) is in the report.
func TestTopRegistersUnderConcurrentWriters(t *testing.T) {
	const n, shards, k, writers, readers = 3000, 64, 10, 4, 3
	b := New(n, bank.NewMorrisAlg(0.05, 12), shards, 5)
	type call struct {
		lo, hi int
		pre    []uint64
		top    []RegEntry
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Zipf keys hit every shard in each batch and keep raising the
			// maxima of the low blocks; the uniform tail lifts cold ones.
			keys := zipfKeys(n, 1<<16, uint64(w+1))
			rng := xrand.NewSeeded(uint64(w + 100))
			for i := 0; ; i = (i + 512) % len(keys) {
				select {
				case <-stop:
					return
				default:
				}
				batch := keys[i : i+512]
				for j := 0; j < 64; j++ {
					batch[j*8] = int(rng.Uint64() % n)
				}
				b.IncrementBatch(batch)
			}
		}(w)
	}
	calls := make([][]call, readers)
	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			ranges := [][2]int{{0, n}, {1000, 1900}, {130, 140}}
			for i := 0; i < 60; i++ {
				c := call{lo: ranges[(i+r)%3][0], hi: ranges[(i+r)%3][1]}
				c.pre = b.ExportState().Registers
				top, err := b.TopRegisters(k, c.lo, c.hi)
				if err != nil {
					t.Error(err)
					return
				}
				c.top = top
				calls[r] = append(calls[r], c)
			}
		}(r)
	}
	rg.Wait()
	close(stop)
	wg.Wait()
	final := b.ExportState().Registers
	for _, cs := range calls {
		for _, c := range cs {
			in := make(map[int]bool, len(c.top))
			for i, e := range c.top {
				in[e.Key] = true
				if e.Key < c.lo || e.Key >= c.hi || e.Reg == 0 {
					t.Fatalf("[%d, %d): reported %+v", c.lo, c.hi, e)
				}
				if e.Reg < c.pre[e.Key] || e.Reg > final[e.Key] {
					t.Fatalf("key %d reported at %d, held %d before the call and %d at the end",
						e.Key, e.Reg, c.pre[e.Key], final[e.Key])
				}
				if i > 0 {
					if p := c.top[i-1]; p.Reg < e.Reg || p.Reg == e.Reg && p.Key > e.Key {
						t.Fatalf("report out of order at %d: %v", i, c.top)
					}
				}
			}
			kth := uint64(0)
			if len(c.top) == k {
				kth = c.top[k-1].Reg
			}
			for key := c.lo; key < c.hi; key++ {
				if c.pre[key] > kth && !in[key] {
					t.Fatalf("[%d, %d): key %d held %d before the call, above the reported k-th %d, and is missing from %v",
						c.lo, c.hi, key, c.pre[key], kth, c.top)
				}
			}
		}
	}
}
