package shardbank

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/bank"
	"repro/internal/xrand"
)

// uniformKeys returns events keys drawn uniformly from [0, n).
func uniformKeys(n, events int, seed uint64) []int {
	rng := xrand.NewSeeded(seed)
	keys := make([]int, events)
	for i := range keys {
		keys[i] = int(rng.Uint64() % uint64(n))
	}
	return keys
}

// ringShaped returns a bank shaped like one node of a three-node ring
// under uniform load: n 14-bit Morris registers on 256 shards, fed about
// 1.7 uniform events per key in 1024-key batches.
func ringShaped(n int) *Bank {
	b := New(n, bank.NewMorrisAlg(0.005, 14), 256, 1)
	rng := xrand.NewSeeded(3)
	batch := make([]int, 1024)
	for sent := 0; sent < n*17/10; sent += len(batch) {
		for i := range batch {
			batch[i] = int(rng.Uint64() % uint64(n))
		}
		b.IncrementBatch(batch)
	}
	return b
}

// fixedBytes is what the registers took before chunks had widths: every
// shard's registers packed at the algorithm's width.
func fixedBytes(b *Bank) int {
	total := 0
	for _, s := range b.shards {
		total += 8 * s.max
	}
	return total
}

// slabHigh returns the words the shards' slabs have ever used, in bytes.
func slabHigh(b *Bank) int {
	total := 0
	for _, s := range b.shards {
		total += 8 * s.high
	}
	return total
}

// checkSlabs holds every shard's slab to its bookkeeping: chunks with
// words lie inside the used words without overlapping, and their words add
// up to the live count.
func checkSlabs(t testing.TB, b *Bank, what string) {
	t.Helper()
	for si, s := range b.shards {
		used := make([]bool, s.end)
		live := 0
		for c, loc := range s.tab {
			w := uint(loc) & widthMask
			off, size := int(loc>>offShift), packedWords(s.chunkRegs(c), w)
			if w == 0 || w != b.widthFor(int(w)) {
				t.Fatalf("%s: shard %d chunk %d has width %d", what, si, c, w)
			}
			if off+size > s.end {
				t.Fatalf("%s: shard %d chunk %d ends at word %d past the slab's %d", what, si, c, off+size, s.end)
			}
			for i := off; i < off+size; i++ {
				if used[i] {
					t.Fatalf("%s: shard %d chunk %d overlaps another at word %d", what, si, c, i)
				}
				used[i] = true
			}
			live += size
		}
		if live != s.live || s.end > len(s.words) || s.high < s.end {
			t.Fatalf("%s: shard %d: chunks hold %d words, live %d, end %d, high %d, slab %d",
				what, si, live, s.live, s.end, s.high, len(s.words))
		}
	}
}

// On a bank shaped like a ring node's, a register takes the bits its count
// needs: at most 4.5 bits per key where the algorithm's width is 14.
func TestRingShapedBitsPerKey(t *testing.T) {
	const n = 1 << 20
	b := ringShaped(n)
	checkSlabs(t, b, "ring-shaped")
	bits := float64(b.SizeBytes()) * 8 / n
	t.Logf("%.2f bits per key live, %.2f with holes; fixed width %.2f",
		bits, float64(slabHigh(b))*8/n, float64(fixedBytes(b))*8/n)
	if bits > 4.5 {
		t.Fatalf("%.2f bits per key, want at most 4.5", bits)
	}
}

// The worst case: every register at its algorithm's cap. Chunks widen one
// class at a time in an order that keeps moving them to the slab's end,
// so the slab compacts, mapped banks for want of room, and yet every
// register reads what was written, and the bank takes no more than its
// registers did at fixed width. The mapped bank's name keeps it in
// `make mapped-test`.
func TestMappedWorstCaseWidths(t *testing.T) {
	for _, tc := range []struct {
		n, shards int
		alg       bank.Algorithm
	}{
		{1_200_000, 2, bank.NewExactAlg(32)},       // mapped where the build maps
		{100_000, 4, bank.NewMorrisAlg(0.005, 14)}, // on the heap
		{5_000, 1, bank.NewExactAlg(5)},            // classes 2, 4, 5
	} {
		b := New(tc.n, tc.alg, tc.shards, 1)
		want := make([]uint64, tc.n)
		top := uint64(1)<<tc.alg.Width() - 1
		regs := make([]uint64, 0, chunkLen*tc.shards)
		span := chunkLen * len(b.shards)
		for _, v := range []uint64{3, 15, 255, top} {
			v = min(v, top)
			// Chunk rows from the last to the first: each widened chunk
			// lands past every one not yet widened.
			for lo := (tc.n - 1) / span * span; lo >= 0; lo -= span {
				regs = regs[:min(span, tc.n-lo)]
				for i := range regs {
					regs[i] = v - uint64(i%3)%v
					want[lo+i] = regs[i]
				}
				if err := b.MergeMaxRange(lo, regs); err != nil {
					t.Fatal(err)
				}
			}
			what := fmt.Sprintf("n=%d, registers up to %d", tc.n, v)
			checkSlabs(t, b, what)
			for i, w := range want {
				if got := b.Register(i); got != w {
					t.Fatalf("%s: register %d = %d, want %d", what, i, got, w)
				}
			}
		}
		if b.SizeBytes() != fixedBytes(b) {
			t.Fatalf("n=%d: every register at the cap takes %d bytes, at fixed width %d",
				tc.n, b.SizeBytes(), fixedBytes(b))
		}
		t.Logf("n=%d: %d bytes at the cap, %d mapped", tc.n, b.SizeBytes(), b.MappedBytes())
	}
}

// A restore writes every chunk once, at its final width, in slab order,
// planned or not: the restored bank's slabs never held more than the
// source's live chunks.
func TestRestoreComesBackCompact(t *testing.T) {
	src := ringShaped(1 << 20)
	st := src.ExportState()
	for _, via := range []string{"codec", "state", "planned"} {
		var dst *Bank
		var err error
		switch via {
		case "codec":
			dst = restoreVia(t, src, 256, 1)
		case "state":
			dst, err = restoreState(src.Len(), src.Algorithm(), 256, 1, st)
		case "planned":
			r := NewRestorer(src.Len(), src.Algorithm(), 256, 1)
			r.Plan().WriteRegisters(st.Registers, 0)
			r.WriteRegisters(st.Registers, 0)
			dst, err = r.Finish(nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		checkSlabs(t, dst, via)
		if slabHigh(dst) > src.SizeBytes() || dst.SizeBytes() != src.SizeBytes() {
			t.Fatalf("%s: restored slabs reached %d bytes and hold %d, the source's chunks %d",
				via, slabHigh(dst), dst.SizeBytes(), src.SizeBytes())
		}
		for i := 0; i < src.Len(); i++ {
			if dst.Register(i) != src.Register(i) {
				t.Fatalf("%s: register %d = %d, source %d", via, i, dst.Register(i), src.Register(i))
			}
		}
	}
}

// mappingRss returns the Rss of the mapping that holds addr, from
// /proc/self/smaps, and the mapping's bounds.
func mappingRss(t *testing.T, addr uintptr) (rss int, lo, hi uintptr) {
	t.Helper()
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		t.Skipf("no /proc/self/smaps: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	in := false
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if a, b, ok := strings.Cut(fields[0], "-"); ok && !strings.HasSuffix(fields[0], ":") {
			l, err1 := strconv.ParseUint(a, 16, 64)
			h, err2 := strconv.ParseUint(b, 16, 64)
			if err1 == nil && err2 == nil {
				in = uintptr(l) <= addr && addr < uintptr(h)
				lo, hi = uintptr(l), uintptr(h)
				continue
			}
		}
		if in && fields[0] == "Rss:" {
			kb, err := strconv.Atoi(fields[1])
			if err != nil {
				t.Fatalf("smaps line %q", sc.Text())
			}
			return kb << 10, lo, hi
		}
	}
	t.Fatalf("no mapping in /proc/self/smaps holds %#x", addr)
	return 0, 0, 0
}

// A 4 M-key node's registers after about 1.7 uniform events per key are
// resident as the pages their slabs reached, not as the 7 MB a 14-bit
// register each would take: the mapping's Rss is at most 3.5 MB, and
// MappedBytes reports it to within a page per shard.
func TestMappedSlabResident(t *testing.T) {
	if !mapsRegisters {
		t.Skip("this build keeps registers on the Go heap (race detector or non-unix)")
	}
	const n = 4_000_000
	b := ringShaped(n)
	base := uintptr(unsafe.Pointer(unsafe.SliceData(b.shards[0].words)))
	rss, lo, hi := mappingRss(t, base)
	if lo != base || hi-lo != uintptr(b.mapped) {
		t.Skipf("the registers' mapping [%#x, %#x) shares its smaps entry [%#x, %#x)", base, base+uintptr(b.mapped), lo, hi)
	}
	page := os.Getpagesize()
	t.Logf("Rss %d bytes, MappedBytes %d, live chunks %d, slab high water %d, mapping %d",
		rss, b.MappedBytes(), b.SizeBytes(), slabHigh(b), b.mapped)
	if rss > 3_500_000 {
		t.Errorf("the registers' mapping has %d bytes resident, want at most 3.5 MB", rss)
	}
	if d := rss - b.MappedBytes(); d > page*len(b.shards) || -d > page*len(b.shards) {
		t.Errorf("Rss %d and MappedBytes %d differ by more than a page per shard", rss, b.MappedBytes())
	}
}

func BenchmarkIncrementBatch(b *testing.B) {
	for _, tc := range []struct {
		name string
		n    int
		keys []int
	}{
		{"zipf1M", 1 << 20, zipfKeys(1<<20, 1<<21, 1)},
		{"uniform4M", 4_000_000, uniformKeys(4_000_000, 1<<21, 1)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			bk := New(tc.n, bank.NewMorrisAlg(0.005, 14), 256, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo := i * 1024 % len(tc.keys)
				bk.IncrementBatch(tc.keys[lo : lo+1024])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*1024), "ns/event")
		})
	}
}
