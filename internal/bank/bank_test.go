package bank

import (
	"math"
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

func TestBankAccuracyAcrossManyCounters(t *testing.T) {
	rng := xrand.NewSeeded(8)
	alg := NewMorrisAlg(0.02, 14)
	const slots, N = 2000, 5000
	var errs stats.Summary
	for i := 0; i < slots; i++ {
		var reg uint64
		for j := 0; j < N; j++ {
			reg = alg.Step(reg, rng)
		}
		errs.Add(stats.SignedRelativeError(alg.Estimate(reg), N))
	}
	if math.Abs(errs.Mean()) > 6*errs.StdErr() {
		t.Fatalf("estimates biased: mean rel err %v", errs.Mean())
	}
	// Relative std ≈ √(a/2) = 10%.
	if errs.StdDev() > 0.2 {
		t.Fatalf("rel err std %v too large", errs.StdDev())
	}
}

// TestBankMerge checks Remark 2.4 in law: a register merged from two that
// counted n1 and n2 events is distributed as one that counted n1 + n2.
func TestBankMerge(t *testing.T) {
	rng := xrand.NewSeeded(9)
	alg := NewMorrisAlg(0.05, 16)
	const n1, n2, trials = 2000, 3000, 3000
	steps := func(n int) uint64 {
		var reg uint64
		for i := 0; i < n; i++ {
			reg = alg.Step(reg, rng)
		}
		return reg
	}
	merged := make([]float64, trials)
	direct := make([]float64, trials)
	for tr := 0; tr < trials; tr++ {
		merged[tr] = alg.Estimate(alg.MergeRegs(steps(n1), steps(n2), rng))
		direct[tr] = alg.Estimate(steps(n1 + n2))
	}
	ks := stats.KolmogorovSmirnov(merged, direct)
	if crit := stats.KSCritical(0.001, trials, trials); ks > crit {
		t.Fatalf("merge KS %v > %v", ks, crit)
	}
}

// A Remark 2.4 merge starts at the larger register and steps at most the
// smaller one's count of times, so a merged register never exceeds a + b
// (nor the cap) and never falls below max(a, b). Every MergeAlgorithm must
// be listed here and keep it.
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

// TestBankMergeErrors pins what a bank merge checks of its algorithms:
// only a MergeAlgorithm merges, and banks merge only under equal
// algorithms, so Morris registers with different bases never fold.
func TestBankMergeErrors(t *testing.T) {
	for _, alg := range []Algorithm{NewCsurosAlg(16, 10), NewExactAlg(16)} {
		if _, ok := alg.(MergeAlgorithm); ok {
			t.Fatalf("%s claims a Remark 2.4 merge", alg.Name())
		}
	}
	var a, b, c Algorithm = NewMorrisAlg(0.05, 16), NewMorrisAlg(0.05, 16), NewMorrisAlg(0.1, 16)
	if a != b || a == c || a == Algorithm(NewMorrisAlg(0.05, 15)) {
		t.Fatal("algorithm identity does not follow (a, width)")
	}
}

func TestParseAlgorithm(t *testing.T) {
	for _, tc := range []struct {
		name        string
		a           float64
		width, mant int
		wantErr     string
	}{
		{"morris", 0.01, 14, 8, ""},
		{"csuros", 0.01, 14, 8, ""},
		{"exact", 0.01, 14, 8, ""},
		{"bogus", 0.01, 14, 8, `bank: unknown algorithm "bogus" (want csuros | exact | morris)`},
		{"morris", 2, 14, 8, "bank: morris a = 2 out of (0, 1]"},
		{"morris", 0.01, 70, 8, "bank: morris width 70 out of [1, 62]"},
		{"csuros", 0.01, 14, 20, "bank: csuros mantissa 20 out of [1, 14)"},
	} {
		alg, err := Parse(tc.name, tc.a, tc.width, tc.mant)
		if tc.wantErr == "" {
			if err != nil || alg.Name() != tc.name || alg.Width() != tc.width {
				t.Fatalf("Parse(%s, %v, %d, %d) = %v, %v", tc.name, tc.a, tc.width, tc.mant, alg, err)
			}
		} else if err == nil || err.Error() != tc.wantErr || alg != nil {
			t.Fatalf("Parse(%s, %v, %d, %d) = %v, %v; want error %q", tc.name, tc.a, tc.width, tc.mant, alg, err, tc.wantErr)
		}
	}
}

// TestDecode checks the snapshot header's view of an algorithm: Decode
// rebuilds every algorithm from (Name, Width, Param) exactly, and rejects
// every shape a hostile header can name with an error, never a panic.
func TestDecode(t *testing.T) {
	for _, alg := range []Algorithm{
		NewMorrisAlg(0.005, 14), NewMorrisAlg(1, 1), NewMorrisAlg(0.3, 62),
		NewCsurosAlg(2, 1), NewCsurosAlg(16, 10), NewCsurosAlg(62, 61),
		NewExactAlg(1), NewExactAlg(62),
	} {
		got, err := Decode(alg.Name(), alg.Width(), alg.Param())
		if err != nil || got != alg {
			t.Fatalf("Decode(%s, %d, %#x) = %v, %v; want %v", alg.Name(), alg.Width(), alg.Param(), got, err, alg)
		}
	}
	bad := []struct {
		name  string
		width int
		param uint64
	}{
		{"morris", 14, math.Float64bits(math.NaN())},
		{"morris", 14, math.Float64bits(math.Inf(1))},
		{"morris", 14, math.Float64bits(0)},
		{"morris", 14, math.Float64bits(1.5)},
		{"morris", 0, math.Float64bits(0.5)},
		{"morris", 63, math.Float64bits(0.5)},
		{"csuros", 14, 0},
		{"csuros", 14, 14},
		{"csuros", 14, 63},
		{"csuros", 14, 1 << 40},
		{"csuros", 14, math.MaxUint64},
		{"csuros", 1, 1},
		{"csuros", 64, 8},
		{"exact", 14, 1},
		{"exact", 0, 0},
		{"exact", 64, 0},
		{"bogus", 14, 0},
		{"", 14, 0},
	}
	for _, b := range bad {
		if alg, err := Decode(b.name, b.width, b.param); err == nil || alg != nil {
			t.Fatalf("Decode(%q, %d, %#x) = %v, %v; want an error", b.name, b.width, b.param, alg, err)
		}
	}
}

// TestStepProbMatchesStep checks StepProb against the Step it describes:
// 0 at the cap, positive below it, and the observed increment rate of Step
// within sampling error of it in every state.
func TestStepProbMatchesStep(t *testing.T) {
	rng := xrand.NewSeeded(15)
	const trials = 4000
	for _, alg := range []Algorithm{NewMorrisAlg(0.3, 6), NewCsurosAlg(6, 2), NewExactAlg(5)} {
		limit := uint64(1)<<uint(alg.Width()) - 1
		if p := alg.StepProb(limit); p != 0 {
			t.Fatalf("%s: StepProb(cap) = %v, want 0", alg.Name(), p)
		}
		for reg := uint64(0); reg < limit; reg++ {
			p := alg.StepProb(reg)
			if !(p > 0 && p <= 1) {
				t.Fatalf("%s: StepProb(%d) = %v outside (0, 1]", alg.Name(), reg, p)
			}
			moved := 0
			for i := 0; i < trials; i++ {
				if alg.Step(reg, rng) != reg {
					moved++
				}
			}
			if d := math.Abs(float64(moved)/trials - p); d > 5*math.Sqrt(p*(1-p)/trials)+1e-9 {
				t.Fatalf("%s: state %d stepped at rate %v, StepProb %v", alg.Name(), reg, float64(moved)/trials, p)
			}
		}
	}
	// Below the cap StepProb stays positive where the probability itself
	// underflows a float64, so a step table never mistakes the state for a
	// saturated one.
	for _, alg := range []Algorithm{NewMorrisAlg(1, 16), NewCsurosAlg(16, 1)} {
		if p := alg.StepProb(1<<16 - 2); p <= 0 {
			t.Fatalf("%s: StepProb underflowed to %v below the cap", alg.Name(), p)
		}
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
