package shardbank

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/bank"
	"repro/internal/xrand"
)

// cutRef is what a view must serve: a deep copy of its range and of every
// generator state, taken at the cut.
type cutRef struct {
	lo   int
	regs []uint64
	rng  [][4]uint64
}

func freezeWithRef(t testing.TB, b *Bank, lo, hi int) (*View, cutRef) {
	t.Helper()
	st := b.ExportState()
	v, err := b.FreezeRange(lo, hi)
	if err != nil {
		t.Fatalf("FreezeRange(%d, %d): %v", lo, hi, err)
	}
	return v, cutRef{lo: lo, regs: st.Registers[lo:hi], rng: st.RNG}
}

// diff reads view positions [at, at+n) and describes the first difference
// from the reference, "" when there is none.
func (r cutRef) diff(v *View, at, n int) string {
	got := make([]uint64, n)
	v.ReadRegisters(got, at)
	for i, reg := range got {
		if reg != r.regs[at+i] {
			return fmt.Sprintf("key %d reads %d, the cut held %d", r.lo+at+i, reg, r.regs[at+i])
		}
	}
	for si := range r.rng {
		if v.RNG()[si] != r.rng[si] {
			return fmt.Sprintf("shard %d generator state differs from the cut", si)
		}
	}
	return ""
}

// check fails the test, from its own goroutine, on any difference diff finds.
func (r cutRef) check(t testing.TB, v *View, at, n int, what string) {
	t.Helper()
	if d := r.diff(v, at, n); d != "" {
		t.Fatalf("%s: %s", what, d)
	}
}

// checkReleased requires that no cut is active and no saved word is held.
func checkReleased(t testing.TB, b *Bank, what string) {
	t.Helper()
	b.lockAll()
	cuts := len(b.cuts)
	b.unlockAll()
	if cuts != 0 || b.CutCopyBytes() != 0 {
		t.Fatalf("%s: %d cuts active, %d saved bytes held", what, cuts, b.CutCopyBytes())
	}
}

// bankWriters drives every path that changes a shard's words, each touching
// keys across every chunk of the bank.
func bankWriters(n int, alg bank.Algorithm, shards int) []struct {
	name string
	run  func(t testing.TB, b *Bank)
} {
	peer := New(n, alg, shards, 77)
	peer.IncrementBatch(zipfKeys(n, 50_000, 78))
	peerRegs := peer.ExportState().Registers
	_, mergeable := alg.(bank.MergeAlgorithm)
	spread := make([]int, 0, n/3+1)
	for k := 0; k < n; k += 3 {
		spread = append(spread, k)
	}
	return []struct {
		name string
		run  func(t testing.TB, b *Bank)
	}{
		{"Increment", func(t testing.TB, b *Bank) {
			for k := 0; k < n; k += 5 {
				b.Increment(k)
			}
		}},
		{"IncrementBy", func(t testing.TB, b *Bank) {
			for k := 1; k < n; k += 7 {
				b.IncrementBy(k, 40)
			}
		}},
		{"IncrementBatch", func(t testing.TB, b *Bank) {
			for i := 0; i < 20; i++ {
				b.IncrementBatch(spread)
			}
		}},
		{"MergeMaxRange", func(t testing.TB, b *Bank) {
			if err := b.MergeMaxRange(n/4, peerRegs[n/4:]); err != nil {
				t.Fatal(err)
			}
		}},
		{"MergeRange", func(t testing.TB, b *Bank) {
			if err := b.MergeRange(0, peerRegs[:n/2]); err != nil && mergeable {
				t.Fatal(err)
			}
		}},
		{"ResetRange", func(t testing.TB, b *Bank) {
			if err := b.ResetRange(n/3, n-n/5); err != nil {
				t.Fatal(err)
			}
		}},
		{"Merge", func(t testing.TB, b *Bank) {
			if err := b.Merge(peer); err != nil && mergeable {
				t.Fatal(err)
			}
		}},
	}
}

// The cut contract: a view reads the registers and generator states of the
// instant it was cut, whatever writer ran afterwards — every write path,
// alone and all together, before the read or between its parts, and on a
// second read — and Release leaves no cut or saved word behind.
func TestCutSurvivesEveryWriter(t *testing.T) {
	for _, tc := range []struct {
		n, shards int
		alg       bank.Algorithm
	}{
		{20_000, 16, bank.NewMorrisAlg(0.05, 14)}, // table path
		{20_000, 1, bank.NewMorrisAlg(0.05, 14)},  // single-shard batch path
		{9_000, 4, bank.NewExactAlg(33)},          // generic Step path
		{777, 256, bank.NewCsurosAlg(16, 10)},     // one chunk, short shards
	} {
		writers := bankWriters(tc.n, tc.alg, tc.shards)
		fresh := func() *Bank {
			b := New(tc.n, tc.alg, tc.shards, 3)
			b.IncrementBatch(zipfKeys(tc.n, 100_000, 4))
			return b
		}
		for _, r := range [][2]int{{0, tc.n}, {tc.n / 5, tc.n/2 + 7}} {
			for _, w := range writers {
				b := fresh()
				v, ref := freezeWithRef(t, b, r[0], r[1])
				w.run(t, b)
				ref.check(t, v, 0, v.Len(), w.name)
				v.Release()
				checkReleased(t, b, w.name)
			}
			// Every writer, with reads of a third of the range in between.
			b := fresh()
			v, ref := freezeWithRef(t, b, r[0], r[1])
			third := v.Len() / 3
			for i, w := range writers {
				if i == 3 {
					ref.check(t, v, 0, third, "all writers, first third")
				}
				if i == 6 {
					ref.check(t, v, third, third, "all writers, second third")
				}
				w.run(t, b)
			}
			ref.check(t, v, 2*third, v.Len()-2*third, "all writers, last third")
			ref.check(t, v, 0, v.Len(), "all writers, second read")
			v.Release()
			checkReleased(t, b, "all writers")
		}
	}
}

// Never worse than a frozen copy: when writers change every chunk before
// the reader reaches any, the cut holds exactly the packed registers.
func TestCutHoldsAtMostThePackedBank(t *testing.T) {
	b := New(50_000, bank.NewExactAlg(14), 16, 1)
	v, ref := freezeWithRef(t, b, 0, b.Len())
	all := make([]int, b.Len())
	for k := range all {
		all[k] = k
	}
	b.IncrementBatch(all)
	if got := b.CutCopyBytes(); got != int64(b.SizeBytes()) {
		t.Fatalf("cut holds %d bytes after every register changed, packed bank is %d", got, b.SizeBytes())
	}
	ref.check(t, v, 0, v.Len(), "every chunk saved")
	v.Release()
	checkReleased(t, b, "every chunk saved")
}

// Several views read while writers run, each cut at a quiescent instant so
// its reference is exact; run under -race this also checks that writers and
// readers only meet under shard locks.
func TestCutReadersAndWritersConcurrent(t *testing.T) {
	const n, shards, writers, readers, rounds = 30_000, 16, 3, 3, 12
	b := New(n, bank.NewMorrisAlg(0.05, 12), shards, 5)
	var gate sync.RWMutex // writers share it; a reader takes it to cut
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := xrand.NewSeeded(uint64(w + 1))
			batch := make([]int, 256)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				for j := range batch {
					batch[j] = int(rng.Uint64() % n)
				}
				gate.RLock()
				switch i % 3 {
				case 0:
					b.IncrementBatch(batch)
				case 1:
					b.IncrementBy(batch[0], 30)
				default:
					regs := make([]uint64, 64)
					for j := range regs {
						regs[j] = rng.Uint64() % 200
					}
					if err := b.MergeMaxRange(batch[1]%(n-64), regs); err != nil {
						t.Error(err)
					}
				}
				gate.RUnlock()
			}
		}(w)
	}
	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			for i := 0; i < rounds; i++ {
				lo := (r*7919 + i*104729) % (n / 2)
				gate.Lock()
				st := b.ExportState()
				v, err := b.FreezeRange(lo, n-r)
				gate.Unlock()
				if err != nil {
					t.Error(err)
					return
				}
				ref := cutRef{lo: lo, regs: st.Registers[lo : n-r], rng: st.RNG}
				d := ""
				for at := 0; at < v.Len() && d == ""; at += 1000 {
					d = ref.diff(v, at, min(1000, v.Len()-at))
					runtime.Gosched()
				}
				if d == "" {
					d = ref.diff(v, v.Len()/3, v.Len()/3) // a second read
				}
				v.Release()
				if d != "" {
					t.Errorf("reader %d, round %d: %s", r, i, d)
					return
				}
			}
		}(r)
	}
	rg.Wait()
	close(stop)
	wg.Wait()
	checkReleased(t, b, "after concurrent reads")
}

// A view reads the same registers in any order and any number of times
// while writers change every chunk between the reads, and panics when read
// after Release.
func TestViewRereadsUntilRelease(t *testing.T) {
	b := New(20_000, bank.NewMorrisAlg(0.05, 12), 4, 1)
	b.IncrementBatch(zipfKeys(20_000, 50_000, 2))
	v, ref := freezeWithRef(t, b, 0, b.Len())
	all := make([]int, b.Len())
	for k := range all {
		all[k] = k
	}
	ref.check(t, v, 10_000, 5_000, "middle")
	b.IncrementBatch(all)
	ref.check(t, v, 0, v.Len(), "whole, after writers")
	b.IncrementBatch(all)
	ref.check(t, v, 300, 100, "backwards")
	ref.check(t, v, 0, v.Len(), "whole, again")
	v.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("a read after Release did not panic")
		}
		checkReleased(t, b, "after Release")
	}()
	v.ReadRegisters(make([]uint64, 10), 0)
}

// An abandoned view — read part way, never released — leaves no active
// cut once the garbage collector has run, so writers stop copying for it.
func TestAbandonedViewReleasedByGC(t *testing.T) {
	b := New(20_000, bank.NewMorrisAlg(0.05, 12), 8, 1)
	func() {
		v := b.Freeze()
		v.ReadRegisters(make([]uint64, 10), 0)
		b.IncrementBatch(zipfKeys(20_000, 20_000, 3)) // leave saved words behind
		// Collecting v before the batch would release its cut early.
		runtime.KeepAlive(v)
	}()
	if b.CutCopyBytes() == 0 {
		t.Fatal("writers saved nothing for the open view")
	}
	for deadline := time.Now().Add(5 * time.Second); ; {
		runtime.GC()
		b.lockAll()
		cuts := len(b.cuts)
		b.unlockAll()
		if cuts == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d cuts still active after GC", cuts)
		}
		time.Sleep(time.Millisecond)
	}
	checkReleased(t, b, "after GC")
}

func FuzzBankCut(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 100, 1, 0, 0, 10, 0, 9, 5, 0, 50, 9, 0, 200, 12, 0, 2, 0})
	rng := xrand.NewSeeded(31)
	for shape := 0; shape < 18; shape++ {
		hist := make([]byte, 300)
		for i := range hist {
			hist[i] = byte(rng.Uint64())
		}
		hist[0] = byte(shape)
		f.Add(hist)
	}
	f.Fuzz(runCutScript)
}

// refBank is a bank's meaning without its layout: the registers as a
// plain []uint64, stepped, merged and reset by the same shard generators in
// the same draw order as a Bank of the same shape, so that every register
// of the bank reads what the reference holds after every operation,
// whatever widths its chunks went through on the way.
type refBank struct {
	regs   []uint64
	p      int
	step   *Bank // the step tables and algorithm; its own registers unused
	shards []*shard
}

func newRefBank(n int, alg bank.Algorithm, shards int, seed uint64) *refBank {
	r := &refBank{regs: make([]uint64, n), p: shards, step: &Bank{alg: alg, table: buildStepTable(alg)}}
	sm := xrand.NewSplitMix64(seed)
	for range shards {
		xo := xrand.New(sm.Uint64())
		r.shards = append(r.shards, &shard{xo: xo, rng: xrand.NewRand(xo)})
	}
	return r
}

func (r *refBank) incrementBy(k int, times uint64) {
	for range times {
		r.regs[k] = r.step.step(r.regs[k], r.shards[k%r.p])
	}
}

func (r *refBank) mergeMax(lo int, regs []uint64) {
	for i, v := range regs {
		r.regs[lo+i] = max(r.regs[lo+i], v)
	}
}

// merge folds regs into keys [lo, lo+len(regs)) with Remark 2.4's merge,
// in shard order and then key order, as MergeRange and Merge draw.
func (r *refBank) merge(lo int, regs []uint64) {
	ma := r.step.alg.(bank.MergeAlgorithm)
	for si := range r.p {
		for k := lo + (si-lo%r.p+r.p)%r.p; k < lo+len(regs); k += r.p {
			r.regs[k] = ma.MergeRegs(r.regs[k], regs[k-lo], r.shards[si].rng)
		}
	}
}

// diff describes the first difference between the bank and the reference,
// registers or generator states, "" when there is none.
func (r *refBank) diff(b *Bank) string {
	st := b.ExportState()
	for i, reg := range st.Registers {
		if reg != r.regs[i] {
			return fmt.Sprintf("register %d reads %d, the reference holds %d", i, reg, r.regs[i])
		}
	}
	for si, s := range r.shards {
		if st.RNG[si] != s.xo.State() {
			return fmt.Sprintf("shard %d generator state differs from the reference's", si)
		}
	}
	return ""
}

// runCutScript replays one scripted interleaving of cuts, every writer,
// reads of any span of an open view, releases and restores against a bank
// whose shape the first byte picks. Some writers push registers to the top
// of their width, so chunks widen through every width class with views
// open. Every read is held to a deep copy taken at its view's cut, the
// bank to a reference over plain registers and the saved-word count to the
// open cuts' contents after every step.
func runCutScript(t *testing.T, data []byte) {
	const n = 3000 // 24, 6 or 2 chunks
	s := &script{data: data}
	shape := s.byte()
	shards := []int{1, 4, 16}[shape%3]
	alg := []bank.Algorithm{
		bank.NewMorrisAlg(0.3, 8), bank.NewCsurosAlg(9, 3), bank.NewExactAlg(20),
	}[shape/3%3]
	maxReg := uint64(1)<<uint(alg.Width()) - 1
	b := New(n, alg, shards, uint64(shape))
	ref := newRefBank(n, alg, shards, uint64(shape))
	_, mergeable := alg.(bank.MergeAlgorithm)
	peer := New(n, alg, shards, 99)
	type open struct {
		v   *View
		ref cutRef
	}
	var views []*open
	pick := func() *open {
		if len(views) == 0 {
			return nil
		}
		return views[s.byte()%len(views)]
	}
	span := func(o *open) (at, cnt int) {
		if o.v.Len() == 0 {
			return 0, 0
		}
		at = s.u16() % o.v.Len()
		return at, min(s.u16()%700, o.v.Len()-at)
	}
	// regs returns registers for a merge into keys [lo, …): small ones
	// near fill, or high ones just under the width's top.
	regs := func(lo int, high bool) []uint64 {
		regs := make([]uint64, min(s.u16()%1000, n-lo))
		fill := uint64(s.byte())
		for i := range regs {
			if high {
				regs[i] = maxReg - (fill+uint64(i%5))%(maxReg+1)
			} else {
				regs[i] = (fill + uint64(i%5)) % (maxReg + 1)
			}
		}
		return regs
	}
	for step := 0; s.more() && step < 80; step++ {
		op := s.byte() % 15
		switch op {
		case 0:
			if len(views) < 3 {
				lo := s.u16() % n
				hi := lo + s.u16()%(n-lo+1)
				v, ref := freezeWithRef(t, b, lo, hi)
				views = append(views, &open{v: v, ref: ref})
			}
		case 1:
			if o := pick(); o != nil {
				at, cnt := span(o)
				o.ref.check(t, o.v, at, cnt, "scripted read")
			}
		case 2:
			if len(views) > 0 {
				i := s.byte() % len(views)
				views[i].v.Release()
				views = append(views[:i], views[i+1:]...)
			}
		case 3:
			k := s.u16() % n
			b.Increment(k)
			ref.incrementBy(k, 1)
		case 4, 11: // 11: up to 65535 events, through every width class
			k, times := s.u16()%n, uint64(s.byte())
			if op == 11 {
				times = uint64(s.u16())
			}
			b.IncrementBy(k, times)
			ref.incrementBy(k, times)
		case 5:
			keys := make([]int, s.byte())
			base, stride := s.u16()%n, s.byte()%50+1
			for i := range keys {
				keys[i] = (base + i*stride) % n
				ref.incrementBy(keys[i], 1)
			}
			b.IncrementBatch(keys)
		case 6, 7, 12, 13: // 12 and 13: registers at the top of the width
			lo := s.u16() % n
			regs := regs(lo, op >= 12)
			var err error
			if op == 6 || op == 12 {
				err = b.MergeMaxRange(lo, regs)
				ref.mergeMax(lo, regs)
			} else if err = b.MergeRange(lo, regs); mergeable {
				ref.merge(lo, regs)
			} else {
				err = nil
			}
			if err != nil {
				t.Fatal(err)
			}
		case 8:
			lo := s.u16() % n
			hi := lo + s.u16()%(n-lo+1)
			if err := b.ResetRange(lo, hi); err != nil {
				t.Fatal(err)
			}
			clear(ref.regs[lo:hi])
		case 9:
			peer.IncrementBatch(zipfKeys(n, s.byte()*10, uint64(step)))
			if err := b.Merge(peer); mergeable {
				if err != nil {
					t.Fatal(err)
				}
				ref.merge(0, peer.ExportState().Registers)
			}
		case 10:
			if o := pick(); o != nil {
				o.ref.check(t, o.v, 0, o.v.Len(), "whole read")
			}
		case 14: // a restore of the bank's state reads as the bank does
			st := b.ExportState()
			restored, err := restoreState(n, alg, shards, uint64(shape), st)
			if err != nil {
				t.Fatal(err)
			}
			checkSlabs(t, restored, "restored")
			if d := ref.diff(restored); d != "" {
				t.Fatalf("step %d, restored bank: %s", step, d)
			}
		}
		if d := ref.diff(b); d != "" {
			t.Fatalf("step %d (op %d): %s", step, op, d)
		}
		checkSlabs(t, b, fmt.Sprintf("step %d (op %d)", step, op))
		b.lockAll()
		held := 0
		for _, ct := range b.cuts {
			for _, m := range ct.saved {
				for _, sc := range m {
					held += 8 * len(sc.words)
				}
			}
		}
		b.unlockAll()
		if int64(held) != b.CutCopyBytes() {
			t.Fatalf("step %d: cuts hold %d saved bytes, CutCopyBytes says %d", step, held, b.CutCopyBytes())
		}
	}
	for _, o := range views {
		o.ref.check(t, o.v, 0, o.v.Len(), "final read")
		o.v.Release()
	}
	checkReleased(t, b, "end of script")
}
