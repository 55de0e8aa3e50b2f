// Package bank defines the register algorithms behind the paper's motivating
// application (Section 1): an analytics system keeping a very large number
// of approximate counters — e.g. visits to every page of Wikipedia — where
// shaving bits per counter multiplies into real memory savings.
//
// A register algorithm is a fixed-width automaton: the bounded Morris(a)
// register, a Csűrös floating-point register, or an exact saturating
// register for baseline comparisons. This package is the only one that
// knows what each algorithm is. The packed, lock-striped storage
// (internal/shardbank) tabulates StepProb, and the snapshot header
// (internal/snapcodec) stores Name, Width and Param and rebuilds the
// algorithm with Decode; neither switches on the concrete type. Parse
// builds an algorithm from the daemon's flags.
package bank

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"

	"repro/internal/xrand"
)

// Algorithm defines a fixed-width register counter: a transition function on
// register values plus an estimator. Implementations must be pure state
// machines — all randomness comes from the supplied rng — so registers can
// live in packed storage.
type Algorithm interface {
	// Width returns the register width in bits (1..62).
	Width() int
	// Step returns the register value after one increment.
	Step(reg uint64, rng *xrand.Rand) uint64
	// StepProb returns the probability that Step increments reg: 0 when reg
	// is saturated, and positive below saturation, even where the true
	// probability underflows a float64.
	StepProb(reg uint64) float64
	// Estimate returns N̂ for a register value.
	Estimate(reg uint64) float64
	// Name identifies the algorithm.
	Name() string
	// Param returns the value of the snapshot header's 8-byte parameter
	// slot; Decode(Name(), Width(), Param()) rebuilds an equal Algorithm.
	Param() uint64
}

// MergeAlgorithm is implemented by algorithms whose registers can be merged
// (Remark 2.4 / [CY20]).
type MergeAlgorithm interface {
	Algorithm
	// MergeRegs returns a register distributed as a counter that saw both
	// registers' streams.
	MergeRegs(a, b uint64, rng *xrand.Rand) uint64
}

// decoders maps each algorithm's Name to the function that rebuilds it from
// a width and a header parameter, validating both.
var decoders = map[string]func(width int, param uint64) (Algorithm, error){
	"morris": func(width int, param uint64) (Algorithm, error) {
		return asAlgorithm(newMorrisAlg(math.Float64frombits(param), width))
	},
	"csuros": func(width int, param uint64) (Algorithm, error) {
		return asAlgorithm(newCsurosAlg(width, int(min(param, math.MaxInt32))))
	},
	"exact": func(width int, param uint64) (Algorithm, error) {
		if param != 0 {
			return nil, fmt.Errorf("bank: unexpected parameter %d for exact", param)
		}
		return asAlgorithm(newExactAlg(width))
	},
}

// Decode rebuilds the algorithm a snapshot header names, or returns an
// error when the name is unknown or the shape out of range.
func Decode(name string, width int, param uint64) (Algorithm, error) {
	decode, ok := decoders[name]
	if !ok {
		names := slices.Sorted(maps.Keys(decoders))
		return nil, fmt.Errorf("bank: unknown algorithm %q (want %s)", name, strings.Join(names, " | "))
	}
	return decode(width, param)
}

// Parse builds an algorithm from flag-style parameters: a is Morris's base,
// mantissa the Csűrös mantissa bits; each is ignored by the other
// algorithms.
func Parse(name string, a float64, width, mantissa int) (Algorithm, error) {
	switch name {
	case "morris":
		return asAlgorithm(newMorrisAlg(a, width))
	case "csuros":
		return asAlgorithm(newCsurosAlg(width, mantissa))
	}
	return Decode(name, width, 0)
}

// asAlgorithm returns a constructor's result as Decode does: a nil
// Algorithm with the error.
func asAlgorithm[A Algorithm](alg A, err error) (Algorithm, error) {
	if err != nil {
		return nil, err
	}
	return alg, nil
}

// must unwraps a constructor result, panicking on a shape the calling code
// supplied itself.
func must[A Algorithm](alg A, err error) A {
	if err != nil {
		panic(err.Error())
	}
	return alg
}

func checkWidth(name string, width, lo int) error {
	if width < lo || width > 62 {
		return fmt.Errorf("bank: %s width %d out of [%d, 62]", name, width, lo)
	}
	return nil
}

// MorrisAlg is the bounded Morris(a) register: the register holds X,
// saturating at 2^width − 1.
type MorrisAlg struct {
	a      float64
	lnBase float64
	width  int
	cap    uint64
}

var _ MergeAlgorithm = MorrisAlg{}

// NewMorrisAlg returns a Morris(a) register algorithm of the given width. It
// panics unless a ∈ (0, 1] and width ∈ [1, 62].
func NewMorrisAlg(a float64, width int) MorrisAlg { return must(newMorrisAlg(a, width)) }

func newMorrisAlg(a float64, width int) (MorrisAlg, error) {
	if !(a > 0 && a <= 1) {
		return MorrisAlg{}, fmt.Errorf("bank: morris a = %v out of (0, 1]", a)
	}
	if err := checkWidth("morris", width, 1); err != nil {
		return MorrisAlg{}, err
	}
	return MorrisAlg{a: a, lnBase: math.Log1p(a), width: width, cap: 1<<uint(width) - 1}, nil
}

// Width implements Algorithm.
func (m MorrisAlg) Width() int { return m.width }

// StepProb implements Algorithm: (1+a)^-reg below the cap.
func (m MorrisAlg) StepProb(reg uint64) float64 {
	if reg >= m.cap {
		return 0
	}
	return max(math.Exp(-float64(reg)*m.lnBase), math.SmallestNonzeroFloat64)
}

// Step implements Algorithm. Probabilities below 1e-300 never fire: those
// states need more events than any stream holds.
func (m MorrisAlg) Step(reg uint64, rng *xrand.Rand) uint64 {
	if p := m.StepProb(reg); p >= 1e-300 && rng.Bernoulli(p) {
		return reg + 1
	}
	return reg
}

// Estimate implements Algorithm.
func (m MorrisAlg) Estimate(reg uint64) float64 {
	return math.Expm1(float64(reg)*m.lnBase) / m.a
}

// Name implements Algorithm.
func (m MorrisAlg) Name() string { return "morris" }

// Param implements Algorithm: the IEEE-754 bits of a, so a round trip
// through a snapshot header is exact.
func (m MorrisAlg) Param() uint64 { return math.Float64bits(m.a) }

// MergeRegs implements MergeAlgorithm via the [CY20] subsampling merge.
func (m MorrisAlg) MergeRegs(a, b uint64, rng *xrand.Rand) uint64 {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	x := hi
	for i := uint64(0); i < lo; i++ {
		p := math.Exp(-float64(x-i) * m.lnBase)
		if rng.Bernoulli(p) && x < m.cap {
			x++
		}
	}
	return x
}

// CsurosAlg is the Csűrös floating-point register (see internal/csuros).
type CsurosAlg struct {
	d     uint
	width int
	cap   uint64
}

var _ Algorithm = CsurosAlg{}

// NewCsurosAlg returns a Csűrös register algorithm with the given total
// width and mantissa bits. It panics unless width ∈ [2, 62] and mantissa ∈
// [1, width).
func NewCsurosAlg(width, mantissa int) CsurosAlg { return must(newCsurosAlg(width, mantissa)) }

func newCsurosAlg(width, mantissa int) (CsurosAlg, error) {
	if err := checkWidth("csuros", width, 2); err != nil {
		return CsurosAlg{}, err
	}
	if mantissa < 1 || mantissa >= width {
		return CsurosAlg{}, fmt.Errorf("bank: csuros mantissa %d out of [1, %d)", mantissa, width)
	}
	return CsurosAlg{d: uint(mantissa), width: width, cap: 1<<uint(width) - 1}, nil
}

// Width implements Algorithm.
func (c CsurosAlg) Width() int { return c.width }

// StepProb implements Algorithm: 2^-e below the cap, e the register's
// exponent field.
func (c CsurosAlg) StepProb(reg uint64) float64 {
	if reg >= c.cap {
		return 0
	}
	return max(math.Ldexp(1, -int(reg>>c.d)), math.SmallestNonzeroFloat64)
}

// Step implements Algorithm.
func (c CsurosAlg) Step(reg uint64, rng *xrand.Rand) uint64 {
	if reg >= c.cap {
		return reg
	}
	if rng.BernoulliPow2(uint(reg >> c.d)) {
		return reg + 1
	}
	return reg
}

// Estimate implements Algorithm.
func (c CsurosAlg) Estimate(reg uint64) float64 {
	m := float64(uint64(1) << c.d)
	u := float64(reg & (1<<c.d - 1))
	t := float64(reg >> c.d)
	return (m+u)*math.Pow(2, t) - m
}

// Name implements Algorithm.
func (c CsurosAlg) Name() string { return "csuros" }

// Param implements Algorithm: the mantissa width d in bits.
func (c CsurosAlg) Param() uint64 { return uint64(c.d) }

// ExactAlg is a saturating exact register — the baseline whose width must
// reach ⌈log2 N⌉ to stay accurate.
type ExactAlg struct {
	width int
	cap   uint64
}

var _ Algorithm = ExactAlg{}

// NewExactAlg returns an exact saturating register algorithm. It panics
// unless width ∈ [1, 62].
func NewExactAlg(width int) ExactAlg { return must(newExactAlg(width)) }

func newExactAlg(width int) (ExactAlg, error) {
	if err := checkWidth("exact", width, 1); err != nil {
		return ExactAlg{}, err
	}
	return ExactAlg{width: width, cap: 1<<uint(width) - 1}, nil
}

// Width implements Algorithm.
func (e ExactAlg) Width() int { return e.width }

// StepProb implements Algorithm: 1 below the cap.
func (e ExactAlg) StepProb(reg uint64) float64 {
	if reg >= e.cap {
		return 0
	}
	return 1
}

// Step implements Algorithm.
func (e ExactAlg) Step(reg uint64, _ *xrand.Rand) uint64 {
	if reg >= e.cap {
		return reg
	}
	return reg + 1
}

// Estimate implements Algorithm.
func (e ExactAlg) Estimate(reg uint64) float64 { return float64(reg) }

// Name implements Algorithm.
func (e ExactAlg) Name() string { return "exact" }

// Param implements Algorithm: exact registers have no parameter.
func (e ExactAlg) Param() uint64 { return 0 }
