package bank

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/stats"
	"repro/internal/xrand"
)

func TestMorrisAlgAccuracy(t *testing.T) {
	rng := xrand.NewSeeded(1)
	alg := NewMorrisAlg(0.05, 16)
	const N, trials = 10000, 5000
	var sum stats.Summary
	for i := 0; i < trials; i++ {
		var reg uint64
		for j := 0; j < N; j++ {
			reg = alg.Step(reg, rng)
		}
		sum.Add(alg.Estimate(reg))
	}
	tol := 6 * sum.StdErr()
	if math.Abs(sum.Mean()-N) > tol {
		t.Fatalf("mean %v, want %v ± %v", sum.Mean(), N, tol)
	}
}

func TestMorrisAlgSaturates(t *testing.T) {
	rng := xrand.NewSeeded(2)
	alg := NewMorrisAlg(1, 3) // cap 7
	reg := uint64(7)
	for i := 0; i < 1000; i++ {
		if reg = alg.Step(reg, rng); reg > 7 {
			t.Fatalf("register overflowed: %d", reg)
		}
	}
}

func TestCsurosAlgMatchesPackage(t *testing.T) {
	// The bank register and internal/csuros implement the same automaton;
	// compare estimates at matching register values.
	alg := NewCsurosAlg(17, 10)
	for _, reg := range []uint64{0, 5, 1 << 10, 3<<10 | 17, 7 << 10} {
		m := float64(uint64(1) << 10)
		u := float64(reg & (1<<10 - 1))
		tt := float64(reg >> 10)
		want := (m+u)*math.Pow(2, tt) - m
		if got := alg.Estimate(reg); got != want {
			t.Fatalf("Estimate(%d) = %v, want %v", reg, got, want)
		}
	}
}

func TestCsurosAlgExactRegion(t *testing.T) {
	rng := xrand.NewSeeded(3)
	alg := NewCsurosAlg(17, 12)
	var reg uint64
	for i := 1; i <= 4095; i++ {
		reg = alg.Step(reg, rng)
		if alg.Estimate(reg) != float64(i) {
			t.Fatalf("not exact at %d", i)
		}
	}
}

func TestExactAlg(t *testing.T) {
	rng := xrand.NewSeeded(4)
	alg := NewExactAlg(10)
	var reg uint64
	for i := 1; i <= 1023; i++ {
		reg = alg.Step(reg, rng)
		if alg.Estimate(reg) != float64(i) {
			t.Fatalf("exact register wrong at %d", i)
		}
	}
	if reg = alg.Step(reg, rng); reg != 1023 {
		t.Fatalf("exact register did not saturate: %d", reg)
	}
}

func TestAlgConstructorPanics(t *testing.T) {
	cases := []func(){
		func() { NewMorrisAlg(0, 8) },
		func() { NewMorrisAlg(2, 8) },
		func() { NewMorrisAlg(0.5, 0) },
		func() { NewMorrisAlg(0.5, 63) },
		func() { NewCsurosAlg(1, 1) },
		func() { NewCsurosAlg(8, 0) },
		func() { NewCsurosAlg(8, 8) },
		func() { NewExactAlg(0) },
		func() { NewExactAlg(63) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestBankBasics(t *testing.T) {
	rng := xrand.NewSeeded(5)
	b := New(100, NewExactAlg(20), rng)
	for i := 0; i < 100; i++ {
		b.IncrementBy(i, uint64(i*10))
	}
	for i := 0; i < 100; i++ {
		if got := b.Estimate(i); got != float64(i*10) {
			t.Fatalf("slot %d = %v, want %d", i, got, i*10)
		}
	}
	if b.Len() != 100 || b.BitsPerCounter() != 20 {
		t.Fatalf("Len/Bits = %d/%d", b.Len(), b.BitsPerCounter())
	}
}

func TestBankIsPacked(t *testing.T) {
	rng := xrand.NewSeeded(6)
	b := New(10000, NewMorrisAlg(0.05, 12), rng)
	// 10000 × 12 bits = 15000 bytes; a []uint64 would be 80000.
	if b.SizeBytes() > 16000 {
		t.Fatalf("bank footprint %d bytes, want ≈ 15000", b.SizeBytes())
	}
}

func TestBankSlotIndependence(t *testing.T) {
	rng := xrand.NewSeeded(7)
	b := New(50, NewMorrisAlg(0.1, 14), rng)
	b.IncrementBy(7, 100000)
	for i := 0; i < 50; i++ {
		if i != 7 && b.Register(i) != 0 {
			t.Fatalf("slot %d moved: %d", i, b.Register(i))
		}
	}
	if b.Register(7) == 0 {
		t.Fatal("slot 7 never moved")
	}
}

func TestBankAccuracyAcrossManyCounters(t *testing.T) {
	rng := xrand.NewSeeded(8)
	const slots = 2000
	b := New(slots, NewMorrisAlg(0.02, 14), rng)
	const N = 5000
	for i := 0; i < slots; i++ {
		b.IncrementBy(i, N)
	}
	var errs stats.Summary
	for i := 0; i < slots; i++ {
		errs.Add(stats.SignedRelativeError(b.Estimate(i), N))
	}
	if math.Abs(errs.Mean()) > 6*errs.StdErr() {
		t.Fatalf("bank estimates biased: mean rel err %v", errs.Mean())
	}
	// Relative std ≈ √(a/2) = 10%.
	if errs.StdDev() > 0.2 {
		t.Fatalf("bank rel err std %v too large", errs.StdDev())
	}
}

func TestBankMerge(t *testing.T) {
	rng := xrand.NewSeeded(9)
	alg := NewMorrisAlg(0.05, 16)
	const slots, n1, n2, trials = 1, 2000, 3000, 3000
	merged := make([]float64, trials)
	direct := make([]float64, trials)
	for tr := 0; tr < trials; tr++ {
		b1 := New(slots, alg, rng)
		b2 := New(slots, alg, rng)
		b1.IncrementBy(0, n1)
		b2.IncrementBy(0, n2)
		if err := b1.Merge(b2); err != nil {
			t.Fatal(err)
		}
		merged[tr] = b1.Estimate(0)
		d := New(slots, alg, rng)
		d.IncrementBy(0, n1+n2)
		direct[tr] = d.Estimate(0)
	}
	ks := stats.KolmogorovSmirnov(merged, direct)
	if crit := stats.KSCritical(0.001, trials, trials); ks > crit {
		t.Fatalf("bank merge KS %v > %v", ks, crit)
	}
}

// A Remark 2.4 merge starts at the larger register and steps at most the
// smaller one's count of times, so a merged register never exceeds a + b
// (nor the cap) and never falls below max(a, b). The windowed engine's run
// bound (engine/window.go, windowCells.bound) ranks on the upper half of
// this; every MergeAlgorithm must be listed here and keep it.
func TestMergeRegsAtMostSum(t *testing.T) {
	rng := xrand.NewSeeded(12)
	for _, alg := range []MergeAlgorithm{
		NewMorrisAlg(1, 6), NewMorrisAlg(0.3, 8), NewMorrisAlg(0.005, 14),
	} {
		limit := uint64(1)<<uint(alg.Width()) - 1
		regs := []uint64{0, 1, 2, 3, limit / 2, limit - 1, limit}
		for i := 0; i < 40; i++ {
			regs = append(regs, rng.Uint64()%(limit+1), rng.Uint64()%8)
		}
		for _, a := range regs {
			for _, b := range regs {
				got := alg.MergeRegs(a, b, rng)
				if got < max(a, b) || got > min(a+b, limit) {
					t.Fatalf("%s/%d-bit: MergeRegs(%d, %d) = %d outside [max, min(a+b, %d)]",
						alg.Name(), alg.Width(), a, b, got, limit)
				}
			}
		}
	}
}

func TestBankMergeErrors(t *testing.T) {
	rng := xrand.NewSeeded(10)
	b1 := New(10, NewMorrisAlg(0.05, 16), rng)
	b2 := New(20, NewMorrisAlg(0.05, 16), rng)
	if err := b1.Merge(b2); err == nil {
		t.Fatal("length mismatch accepted")
	}
	b3 := New(10, NewMorrisAlg(0.1, 16), rng)
	if err := b1.Merge(b3); err == nil {
		t.Fatal("parameter mismatch accepted")
	}
	c1 := New(10, NewCsurosAlg(16, 10), rng)
	c2 := New(10, NewCsurosAlg(16, 10), rng)
	if err := c1.Merge(c2); err == nil {
		t.Fatal("csuros merge (unsupported) accepted")
	}
}

func TestBankConcurrentIncrements(t *testing.T) {
	rng := xrand.NewSeeded(11)
	b := New(8, NewExactAlg(30), rng)
	var wg sync.WaitGroup
	const perG = 10000
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				b.Increment(slot)
			}
		}(g)
	}
	wg.Wait()
	for i := 0; i < 8; i++ {
		if got := b.Estimate(i); got != perG {
			t.Fatalf("slot %d = %v after concurrent increments, want %d", i, got, perG)
		}
	}
}

func TestMapBasics(t *testing.T) {
	rng := xrand.NewSeeded(12)
	m := NewMap(100, NewExactAlg(20), rng)
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("page-%d", i%10)
		if err := m.Inc(key); err != nil {
			t.Fatal(err)
		}
	}
	if m.Keys() != 10 {
		t.Fatalf("Keys = %d", m.Keys())
	}
	for i := 0; i < 10; i++ {
		if got := m.Count(fmt.Sprintf("page-%d", i)); got != 5 {
			t.Fatalf("page-%d count = %v, want 5", i, got)
		}
	}
	if m.Count("never-seen") != 0 {
		t.Fatal("unknown key nonzero")
	}
}

func TestMapFull(t *testing.T) {
	rng := xrand.NewSeeded(13)
	m := NewMap(2, NewExactAlg(8), rng)
	if err := m.Inc("a"); err != nil {
		t.Fatal(err)
	}
	if err := m.Inc("b"); err != nil {
		t.Fatal(err)
	}
	if err := m.Inc("a"); err != nil {
		t.Fatal("existing key rejected on full map")
	}
	if err := m.Inc("c"); err == nil {
		t.Fatal("overflow key accepted")
	}
}

func TestMapConcurrent(t *testing.T) {
	rng := xrand.NewSeeded(14)
	m := NewMap(64, NewExactAlg(24), rng)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", id)
			for i := 0; i < 5000; i++ {
				if err := m.Inc(key); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < 8; g++ {
		if got := m.Count(fmt.Sprintf("k%d", g)); got != 5000 {
			t.Fatalf("k%d = %v", g, got)
		}
	}
}

func TestBankSnapshotRestore(t *testing.T) {
	rng := xrand.NewSeeded(16)
	b := New(500, NewMorrisAlg(0.05, 13), rng)
	for i := 0; i < 500; i++ {
		b.IncrementBy(i, uint64(i)*17)
	}
	snap := b.Snapshot()
	if len(snap) != (500*13+7)/8 {
		t.Fatalf("snapshot %d bytes, want packed %d", len(snap), (500*13+7)/8)
	}
	c := New(500, NewMorrisAlg(0.05, 13), rng)
	if err := c.Restore(snap); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if c.Register(i) != b.Register(i) {
			t.Fatalf("register %d mismatch after restore", i)
		}
	}
}

func TestBankRestoreTruncated(t *testing.T) {
	rng := xrand.NewSeeded(17)
	b := New(100, NewExactAlg(16), rng)
	if err := b.Restore([]byte{1, 2, 3}); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

func TestMemoryAdvantageOverExactWidth(t *testing.T) {
	// The headline practical claim: a Morris register of ~14 bits covers
	// counts up to 2^40+ that an exact register would need 40+ bits for.
	// X for N = 2^40 is log_{1.01}(1 + 0.01·2^40) ≈ 2540 ≪ 2^14, and the
	// register's estimator inverts it back to ≈ 2^40.
	alg := NewMorrisAlg(0.01, 14)
	xTyp := math.Log1p(0.01*math.Pow(2, 40)) / math.Log1p(0.01)
	if xTyp >= float64(uint64(1)<<14) {
		t.Fatalf("14-bit Morris register cannot reach 2^40: X_typ = %v", xTyp)
	}
	est := alg.Estimate(uint64(math.Round(xTyp)))
	if re := stats.RelativeError(est, math.Pow(2, 40)); re > 0.02 {
		t.Fatalf("estimator inversion off by %v at X_typ", re)
	}
}
