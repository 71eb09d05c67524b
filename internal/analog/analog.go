// Package analog provides behavioural models of TIMELY's time-domain and
// current-domain circuit blocks (§IV-B/C of the paper): DTCs and TDCs,
// X-subBufs (time latches), P-subBufs (current mirrors), I-adders, and the
// two-phase charging-unit + comparator stage whose transfer function is
// Eq. 2. Each block is bit-exact in the noise-free limit and takes its
// Gaussian error as an already-drawn term e, so a caller can draw a wave's
// errors in one pass and apply them in order (the paper's Monte-Carlo
// methodology, §VI-B "Accuracy"). A noisy caller forms each term with
// ErrorTerm; an ideal caller passes 0.
//
// Conventions: time signals are float64 picoseconds; "charge" is the
// dimensionless dot-product value Σ xᵢ·gᵢ accumulated by a crossbar column,
// where xᵢ is the 8-bit input code and gᵢ the cell level (0..15). The
// physical constants (VDD, Rmin, Cc) cancel into the charging unit's full
// scale, exactly as Eq. 2 cancels them into Rmin/(Cc·B·NCB).
package analog

import (
	"fmt"
	"math"

	"repro/internal/params"
	"repro/internal/stats"
)

// Noise configures Gaussian circuit-error injection. A nil *Noise (or one
// with zero sigmas, or a nil RNG) is ideal. The blocks never read it: the
// functional executor draws each block's error from RNG at its sigma and
// hands the term to the block.
type Noise struct {
	// XSubBufSigma is the per-hop time error ε of one X-subBuf in ps.
	XSubBufSigma float64
	// PSubBufRelSigma is the relative gain error of a P-subBuf current mirror.
	PSubBufRelSigma float64
	// ComparatorSigma is the charging-comparator threshold jitter in ps.
	ComparatorSigma float64
	// TDCSigma is TDC sampling jitter in ps.
	TDCSigma float64
	// DTCSigma is DTC output jitter in ps.
	DTCSigma float64
	// RNG drives the injection; deterministic per seed.
	RNG *stats.RNG
}

// DefaultNoise returns the paper's design-point noise configuration
// (§V, §VI-B) drawing from the counter-based trial stream
// stats.NewTrialRNG(seed, 0).
func DefaultNoise(seed uint64) *Noise {
	return DefaultNoiseRNG(stats.NewTrialRNG(seed, 0))
}

// DefaultNoiseRNG is the design-point noise configuration driven by a
// caller-supplied generator. Monte-Carlo studies that key their generators
// by trial coordinates (stats.NewTrialRNG) build their per-trial noise
// through this.
func DefaultNoiseRNG(rng *stats.RNG) *Noise {
	return &Noise{
		XSubBufSigma:    params.DefaultXSubBufSigma,
		PSubBufRelSigma: params.DefaultPSubBufRelSigma,
		ComparatorSigma: params.DefaultComparatorSigma,
		RNG:             rng,
	}
}

// Deterministic reports whether this configuration can inject no
// randomness at all: every error draw the datapath would make returns
// exactly zero (nil noise, nil RNG, or all sigmas zero). The functional
// executor uses it to route waves through batched kernels when no RNG draw
// ordering needs to be preserved.
func (n *Noise) Deterministic() bool {
	if n == nil || n.RNG == nil {
		return true
	}
	return n.XSubBufSigma == 0 && n.PSubBufRelSigma == 0 &&
		n.ComparatorSigma == 0 && n.TDCSigma == 0 && n.DTCSigma == 0
}

// ErrorTerm forms the error of one block from a standard-normal deviate z
// exactly as stats.RNG.Gauss(0, sigma) does: 0 + σ·z, so a −0 deviate
// yields +0. The product is rounded on its own before the sum, so no
// target can fuse it into the signal the term is later added to.
func ErrorTerm(sigma, z float64) float64 {
	return 0 + float64(sigma*z)
}

// DTC converts a digital code into a time delay: T = code · TDel
// (Fig. 6(f): full range 256·Tdel for 8 bits).
type DTC struct {
	// Bits is the resolution (8 in TIMELY).
	Bits int
	// TDel is the unit delay in ps (50 ps in TIMELY).
	TDel float64
}

// NewDTC returns the Table II DTC.
func NewDTC() DTC { return DTC{Bits: params.DTCBits, TDel: params.TDel} }

// Levels returns the code count 2^Bits.
func (d DTC) Levels() int { return 1 << d.Bits }

// Convert maps code to its time delay plus the DTC jitter e (ps). It
// returns an error for out-of-range codes: feeding an unrepresentable code
// is a mapping bug, not a saturation condition.
func (d DTC) Convert(code int, e float64) (float64, error) {
	if code < 0 || code >= d.Levels() {
		return 0, fmt.Errorf("analog: DTC code %d out of [0,%d)", code, d.Levels())
	}
	t := float64(float64(code)*d.TDel) + e
	if t < 0 {
		t = 0
	}
	return t, nil
}

// TDC converts a time delay back into a digital code by counting unit
// delays, saturating at the range limits (a late edge reads as full scale).
type TDC struct {
	Bits int
	TDel float64
}

// NewTDC returns the Table II TDC.
func NewTDC() TDC { return TDC{Bits: params.DTCBits, TDel: params.TDel} }

// Levels returns the code count 2^Bits.
func (t TDC) Levels() int { return 1 << t.Bits }

// Convert quantises delay plus the sampling jitter e (ps) to the nearest
// code with saturation.
func (t TDC) Convert(delay, e float64) int {
	code := RoundCode((delay + e) / t.TDel)
	if code < 0 {
		return 0
	}
	if code > t.Levels()-1 {
		return t.Levels() - 1
	}
	return code
}

// RoundCode rounds a non-negative quantiser position to the nearest integer
// code, halves away from zero: int(math.Round(x)) without the general
// function's bit manipulation. For x ≥ 0 it is exact, because x − trunc(x)
// is exactly representable. A negative x yields a code ≤ 0, which every
// caller clamps to code 0 just as it clamps math.Round's result.
func RoundCode(x float64) int {
	c := int(x)
	if x-float64(c) >= 0.5 {
		c++
	}
	return c
}

// XSubBuf is the analog time latch between horizontally adjacent crossbars
// (Fig. 6(b)): two cross-coupled inverters plus an output inverter that copy
// an input delay to the output. Each hop adds an independent error ε; k
// cascaded hops accumulate √k·ε (§VI-B).
type XSubBuf struct{}

// Propagate copies the time signal through one X-subBuf hop that adds the
// error e (ps).
func (XSubBuf) Propagate(t, e float64) float64 {
	out := t + e
	if out < 0 {
		return 0
	}
	return out
}

// PSubBuf is the NMOS current-mirror buffer under each crossbar
// (Fig. 6(c)): it copies the column current toward the I-adder with a small
// gain error. The paper does not cascade P-subBufs (§V), so a single mirror
// stage suffices.
type PSubBuf struct{}

// Mirror copies charge (the time-integrated column current) through the
// current mirror, applying the relative gain error e.
func (PSubBuf) Mirror(charge, e float64) float64 {
	return float64(charge * (1 + e))
}

// IAdder sums the column currents of vertically stacked crossbars
// (Fig. 6(d): Iout = Σ Iin). Operating on time-integrated charge, the sum
// is exact; mirror errors are injected upstream by the P-subBufs.
type IAdder struct{}

// Sum adds the charges.
func (IAdder) Sum(charges ...float64) float64 {
	s := 0.0
	for _, c := range charges {
		s += c
	}
	return s
}

// ChargingUnit is the two-phase charging + comparator stage of Fig. 6(e,g)
// implementing Eq. 2:
//
//	To = Rmin/(Cc·B·NCB) · Σ Ti/R1i
//
// In phase I the column charge accumulates with the input times; in phase II
// a constant current Ic tops the capacitor past Vth, and the output time is
// T̃ − Tx. All device constants cancel into FullScale: the dot-product value
// Σ xᵢ·gᵢ that maps to the full 255·TDel output range (the per-layer Rmin
// choice of §IV-C). Every column uses the unit capacitor Cc: the sub-ranged
// nibble columns are recombined by the digital shift-and-add.
type ChargingUnit struct {
	// FullScale is the dot value mapped to full range (must be > 0).
	FullScale float64
	// TDel is the unit delay defining full range ((2^Bits−1)·TDel).
	TDel float64
	// Bits is the downstream TDC resolution defining the output range
	// (0 defaults to the 8-bit Table II design; the functional simulator's
	// ideal-interface verification mode widens it).
	Bits int
}

// NewChargingUnit returns a charging unit with the given full-scale dot
// value and a unit capacitor at the Table II 8-bit resolution.
func NewChargingUnit(fullScale float64) ChargingUnit {
	return ChargingUnit{FullScale: fullScale, TDel: params.TDel, Bits: params.DTCBits}
}

// MaxCode is the largest TDC code the unit can produce (full range).
func (c ChargingUnit) MaxCode() int {
	bits := c.Bits
	if bits == 0 {
		bits = params.DTCBits
	}
	return int(1)<<bits - 1
}

// Output converts the accumulated dot value into an output time delay plus
// the comparator jitter e (ps), saturating at full range (the comparator
// cannot fire later than T̃).
func (c ChargingUnit) Output(dot, e float64) float64 {
	if c.FullScale <= 0 {
		panic("analog: ChargingUnit with non-positive FullScale")
	}
	full := float64(c.MaxCode()) * c.TDel
	t := full*dot/c.FullScale + e
	if t < 0 {
		return 0
	}
	if t > full {
		return full
	}
	return t
}

// CascadeErrorBound returns the paper's √k·ε accumulated-error estimate for
// k cascaded X-subBufs (§VI-B), in ps.
func CascadeErrorBound(k int, epsilon float64) float64 {
	return math.Sqrt(float64(k)) * epsilon
}
