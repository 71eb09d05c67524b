// Package fixed implements the uniform fixed-point quantisation used to map
// CNN/DNN weights and activations onto TIMELY's 8-bit (or 16-bit) datapath:
// symmetric signed quantisation for weights, asymmetric unsigned quantisation
// for post-ReLU activations, and saturating integer helpers.
//
// TIMELY stores weights in 4-bit ReRAM cells using a sub-ranging split
// (§IV-C): an 8-bit weight w occupies two adjacent columns holding the
// most-significant and least-significant nibbles. Split/Combine implement
// that scheme for arbitrary cell widths.
package fixed

import (
	"errors"
	"math"
)

// ErrEmpty is returned when calibrating a quantiser over no data.
var ErrEmpty = errors.New("fixed: cannot calibrate over empty data")

// Quantizer maps float64 values to unsigned integer codes of Bits width
// with a zero point, i.e. code = clamp(round(x/Scale) + Zero).
type Quantizer struct {
	// Bits is the code width (1..16).
	Bits int
	// Scale is the value of one LSB.
	Scale float64
	// Zero is the code representing 0.0.
	Zero int
}

// Levels returns the number of representable codes.
func (q Quantizer) Levels() int { return 1 << q.Bits }

// MaxCode returns the largest representable code.
func (q Quantizer) MaxCode() int { return q.Levels() - 1 }

// Quantize converts x to its nearest code, saturating at the range limits.
func (q Quantizer) Quantize(x float64) int {
	c := int(math.Round(x/q.Scale)) + q.Zero
	if c < 0 {
		return 0
	}
	if c > q.MaxCode() {
		return q.MaxCode()
	}
	return c
}

// NewSymmetric returns a signed symmetric quantiser: zero point at mid-range,
// scale chosen so ±maxAbs spans the code range. Used for weights.
func NewSymmetric(bits int, maxAbs float64) (Quantizer, error) {
	if bits < 1 || bits > 16 {
		return Quantizer{}, errors.New("fixed: bits out of range")
	}
	if maxAbs <= 0 {
		return Quantizer{}, errors.New("fixed: non-positive range")
	}
	half := float64(int(1)<<(bits-1) - 1) // e.g. 127 for 8 bits
	return Quantizer{Bits: bits, Scale: maxAbs / half, Zero: 1 << (bits - 1)}, nil
}

// NewUnsigned returns an unsigned quantiser over [0, maxVal], zero point 0.
// Used for post-ReLU activations, which TIMELY feeds to DTCs as plain codes.
func NewUnsigned(bits int, maxVal float64) (Quantizer, error) {
	if bits < 1 || bits > 16 {
		return Quantizer{}, errors.New("fixed: bits out of range")
	}
	if maxVal <= 0 {
		return Quantizer{}, errors.New("fixed: non-positive range")
	}
	return Quantizer{Bits: bits, Scale: maxVal / float64(int(1)<<bits-1), Zero: 0}, nil
}

// CalibrateSymmetric builds a symmetric quantiser spanning the maximum
// absolute value in xs.
func CalibrateSymmetric(bits int, xs []float64) (Quantizer, error) {
	if len(xs) == 0 {
		return Quantizer{}, ErrEmpty
	}
	m := 0.0
	for _, x := range xs {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	if m == 0 {
		m = 1
	}
	return NewSymmetric(bits, m)
}

// CalibrateUnsigned builds an unsigned quantiser spanning the maximum value
// in xs (non-positive data calibrates to [0,1]).
func CalibrateUnsigned(bits int, xs []float64) (Quantizer, error) {
	if len(xs) == 0 {
		return Quantizer{}, ErrEmpty
	}
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	if m == 0 {
		m = 1
	}
	return NewUnsigned(bits, m)
}

// Split decomposes an unsigned code of totalBits width into big-endian
// cellBits-wide nibbles (most significant first), the layout of TIMELY's
// sub-ranged weight columns. It panics if code does not fit totalBits.
func Split(code, totalBits, cellBits int) []uint8 {
	if code < 0 || code >= 1<<totalBits {
		panic("fixed: code out of range for Split")
	}
	n := (totalBits + cellBits - 1) / cellBits
	out := make([]uint8, n)
	mask := (1 << cellBits) - 1
	for i := n - 1; i >= 0; i-- {
		out[i] = uint8(code & mask)
		code >>= cellBits
	}
	return out
}

// Combine is the inverse of Split: it reassembles big-endian cellBits-wide
// nibbles into one unsigned code.
func Combine(nibbles []uint8, cellBits int) int {
	code := 0
	for _, nb := range nibbles {
		code = code<<cellBits | int(nb)
	}
	return code
}

// ClampInt saturates v into [lo, hi].
func ClampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
