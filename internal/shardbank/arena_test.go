package shardbank

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/bank"
)

// mappedN is the smallest round key count whose 14-bit registers reach
// mapMinBytes: 4.4 MB of them.
const mappedN = 2_500_000

func mappedBank(shards int) *Bank { return New(mappedN, bank.NewMorrisAlg(0.005, 14), shards, 1) }

// heapLive returns the Go heap the collector keeps after a full cycle.
func heapLive() int64 {
	runtime.GC()
	s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// waitCleanups returns once every cleanup queued by a full collection has
// run. Cleanups run in batches on one goroutine, so a sentinel's cleanup
// firing in a second collection means the first collection's batch is done.
func waitCleanups(t *testing.T) {
	t.Helper()
	for range 2 {
		done := make(chan struct{})
		runtime.AddCleanup(new([16]byte), func(ch chan struct{}) { close(ch) }, done)
		runtime.GC()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("cleanups did not run")
		}
	}
}

// The registers of a bank at or above the line leave the Go heap: a
// 4 M-key bank of 14-bit registers grows the live heap by its column
// bookkeeping, not its 7 MB of registers. A bank under the line stays on
// the heap, all of it.
func TestMappedRegistersLeaveHeap(t *testing.T) {
	if !mapsRegisters {
		t.Skip("this build keeps registers on the Go heap (race detector or non-unix)")
	}
	for _, tc := range []struct {
		n      int
		mapped bool
	}{{4_000_000, true}, {1_000_000, false}} {
		before := heapLive()
		b := New(tc.n, bank.NewMorrisAlg(0.005, 14), 256, 1)
		keys := make([]int, 4096)
		for i := range keys {
			keys[i] = i // every shard, 16 times
		}
		b.IncrementBatch(keys)
		grew := heapLive() - before
		t.Logf("n=%d: live heap grew %d bytes; registers %d bytes, %d of them mapped", tc.n, grew, b.SizeBytes(), b.MappedBytes())
		if mapped := b.MappedBytes() > 0; mapped != tc.mapped {
			t.Fatalf("n=%d: MappedBytes = %d, want mapped %v", tc.n, b.MappedBytes(), tc.mapped)
		}
		if tc.mapped && grew >= 1<<20 {
			t.Errorf("n=%d: live heap grew %d bytes for %d bytes of mapped registers, want < 1 MiB",
				tc.n, grew, b.SizeBytes())
		}
		if !tc.mapped && grew < int64(b.SizeBytes()) {
			t.Errorf("n=%d: live heap grew %d bytes, less than the %d bytes of heap registers",
				tc.n, grew, b.SizeBytes())
		}
		runtime.KeepAlive(b)
	}
}

// Every shard's words start on their own 64-byte line, mapped or not.
func TestShardWordsLineAligned(t *testing.T) {
	for _, n := range []int{1000, mappedN} {
		b := New(n, bank.NewMorrisAlg(0.005, 14), 64, 1)
		for si, s := range b.shards {
			if addr := uintptr(unsafe.Pointer(unsafe.SliceData(s.words))); addr%64 != 0 {
				t.Fatalf("n=%d: shard %d words at %#x", n, si, addr)
			}
		}
	}
}

// procMaps returns the line count of /proc/self/maps and the bytes its
// mappings span.
func procMaps(t *testing.T) (lines int, size uint64) {
	t.Helper()
	f, err := os.Open("/proc/self/maps")
	if err != nil {
		t.Skipf("no /proc/self/maps: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		lo, hi, _ := strings.Cut(strings.Fields(sc.Text())[0], "-")
		a, err1 := strconv.ParseUint(lo, 16, 64)
		b, err2 := strconv.ParseUint(hi, 16, 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("/proc/self/maps line %q", sc.Text())
		}
		lines++
		size += b - a
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines, size
}

// Dropped mapped banks give their mappings back: after 32 of them are
// collected, /proc/self/maps is back where it started — its line count,
// and its span to within less than one bank's mapping. A warm-up round
// first grows the Go heap to what a round needs, so only mappings move.
func TestMappedBankUnmaps(t *testing.T) {
	if !mapsRegisters {
		t.Skip("this build keeps registers on the Go heap (race detector or non-unix)")
	}
	round := func() (mapped int) {
		banks := make([]*Bank, 32)
		for i := range banks {
			banks[i] = mappedBank(256)
			banks[i].Increment(i) // fault a page in
			if banks[i].MappedBytes() == 0 {
				t.Fatalf("bank %d is on the heap", i)
			}
		}
		return banks[0].MappedBytes()
	}
	round()
	waitCleanups(t)
	lines0, size0 := procMaps(t)
	one := uint64(round())
	for deadline := time.Now().Add(10 * time.Second); ; {
		waitCleanups(t)
		lines, size := procMaps(t)
		if lines <= lines0 && size < size0+one {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/proc/self/maps: %d lines spanning %d bytes after the banks were collected, %d spanning %d before",
				lines, size, lines0, size0)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Every exported method that reads or writes registers runs to completion
// on a mapped bank that nothing but the call itself references, while
// another goroutine collects as fast as it can: an unmap mid-call would be
// a SIGSEGV, or a read of another bank's words, which the repeated results
// would disagree on. Most banks have one shard, which makes each method's
// pass over the registers one long loop instead of 256 short ones.
func TestMappedBankOutlivesCalls(t *testing.T) {
	if !mapsRegisters {
		t.Skip("this build keeps registers on the Go heap, where nothing is unmapped")
	}
	keys := zipfKeys(mappedN, 1<<15, 7)
	loaded := func() *Bank {
		b := mappedBank(1)
		b.IncrementBatch(keys)
		return b
	}
	every := make([]int, mappedN)
	for i := range every {
		every[i] = i
	}
	flat := func() *Bank { // every register 1: top-k reads every block
		b := mappedBank(1)
		b.IncrementBatch(every)
		return b
	}
	st := loaded().ExportState()
	regs := st.Registers[:1<<18]
	lo := mappedN - len(regs)

	digest := func(vals ...any) uint64 {
		h := fnv.New64a()
		fmt.Fprint(h, vals...)
		return h.Sum64()
	}
	bytesDigest := func(p []byte) uint64 {
		h := fnv.New64a()
		h.Write(p)
		return h.Sum64()
	}
	regsDigest := func(regs []uint64) uint64 {
		p := make([]byte, 0, 8*len(regs))
		for _, r := range regs {
			p = binary.LittleEndian.AppendUint64(p, r)
		}
		return bytesDigest(p)
	}
	mustNil := func(err error) uint64 {
		if err != nil {
			t.Error(err)
		}
		return 0
	}
	cases := []struct {
		name string
		call func() uint64
	}{
		{"IncrementBatch", func() uint64 { mappedBank(1).IncrementBatch(keys); return 0 }},
		{"IncrementBatch/256 shards", func() uint64 { mappedBank(256).IncrementBatch(keys); return 0 }},
		{"Increment", func() uint64 { loaded().Increment(keys[0]); return 0 }},
		{"Estimate", func() uint64 { return math.Float64bits(loaded().Estimate(keys[0])) }},
		{"Register", func() uint64 { return loaded().Register(keys[0]) }},
		{"EstimateAll", func() uint64 { return digest(loaded().EstimateAll()[:1024]) }},
		{"Merge", func() uint64 { return mustNil(mappedBank(1).Merge(loaded())) }},
		{"MergeMaxRange", func() uint64 { return mustNil(loaded().MergeMaxRange(lo, regs)) }},
		{"MergeRange", func() uint64 { return mustNil(loaded().MergeRange(lo, regs)) }},
		{"ResetRange", func() uint64 { return mustNil(loaded().ResetRange(0, mappedN)) }},
		{"ExportState", func() uint64 { return regsDigest(loaded().ExportState().Registers) }},
		{"Restorer", func() uint64 {
			b, err := restoreState(mappedN, bank.NewMorrisAlg(0.005, 14), 1, 1, st)
			mustNil(err)
			return regsDigest(b.ExportState().Registers[:1024])
		}},
		{"TopRegisters", func() uint64 {
			top, err := flat().TopRegisters(100, 0, mappedN)
			mustNil(err)
			return digest(top)
		}},
		{"FreezeRange+ReadRegisters", func() uint64 {
			v, err := loaded().FreezeRange(0, mappedN)
			mustNil(err)
			got := make([]uint64, v.Len())
			v.ReadRegisters(got, 0)
			v.Release()
			return regsDigest(got)
		}},
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				runtime.GC()
			}
		}
	}()
	defer func() { close(stop); wg.Wait() }()
	for _, tc := range cases {
		first := tc.call()
		for i := 1; i < 3; i++ {
			if got := tc.call(); got != first {
				t.Fatalf("%s: call %d answered %#x, the first %#x", tc.name, i, got, first)
			}
		}
	}
}

// A View keeps its bank alive: read after the bank's last other reference
// is dropped and collected, it serves the state the bank held at the cut.
func TestMappedBankView(t *testing.T) {
	v, want := func() (*View, State) {
		b := mappedBank(256)
		b.IncrementBatch(zipfKeys(mappedN, 1<<16, 9))
		st := b.ExportState()
		return b.Freeze(), st
	}()
	defer v.Release()
	waitCleanups(t)
	got := make([]uint64, v.Len())
	v.ReadRegisters(got, 0)
	for i := range got {
		if got[i] != want.Registers[i] {
			t.Fatalf("key %d: view reads %d, ExportState had %d", i, got[i], want.Registers[i])
		}
	}
	for si, rng := range v.RNG() {
		if rng != want.RNG[si] {
			t.Fatalf("shard %d: view's generator state differs from ExportState's", si)
		}
	}
}
