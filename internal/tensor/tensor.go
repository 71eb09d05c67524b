// Package tensor provides the dense tensor containers and bit-exact integer
// reference operators (conv2d, fully-connected, pooling, ReLU, im2col) that
// the analog TIMELY datapath is validated against. Activations and weights
// are integer codes (as produced by package fixed); accumulation is int64 to
// avoid overflow at reference precision.
package tensor

import (
	"fmt"
	"math"
)

// Shape describes a CHW tensor layout (channels, height, width).
type Shape struct {
	C, H, W int
}

// Size returns the element count.
func (s Shape) Size() int { return s.C * s.H * s.W }

// String renders the shape as CxHxW.
func (s Shape) String() string { return fmt.Sprintf("%dx%dx%d", s.C, s.H, s.W) }

// Int is a dense integer tensor in CHW order.
type Int struct {
	Shape Shape
	Data  []int32
}

// NewInt allocates a zeroed tensor of the given shape.
func NewInt(c, h, w int) *Int {
	if c <= 0 || h <= 0 || w <= 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%dx%d", c, h, w))
	}
	return &Int{Shape: Shape{c, h, w}, Data: make([]int32, c*h*w)}
}

// At returns the element at (c,h,w).
func (t *Int) At(c, h, w int) int32 {
	return t.Data[(c*t.Shape.H+h)*t.Shape.W+w]
}

// Set stores v at (c,h,w).
func (t *Int) Set(c, h, w int, v int32) {
	t.Data[(c*t.Shape.H+h)*t.Shape.W+w] = v
}

// Clone returns a deep copy.
func (t *Int) Clone() *Int {
	cp := &Int{Shape: t.Shape, Data: make([]int32, len(t.Data))}
	copy(cp.Data, t.Data)
	return cp
}

// Fill sets every element to v.
func (t *Int) Fill(v int32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Filter is a 4-D filter bank: D output channels over CHW kernels.
type Filter struct {
	D, C, Z, G int // output channels, input channels, kernel height, width
	Data       []int32
}

// NewFilter allocates a zeroed filter bank.
func NewFilter(d, c, z, g int) *Filter {
	if d <= 0 || c <= 0 || z <= 0 || g <= 0 {
		panic(fmt.Sprintf("tensor: invalid filter %dx%dx%dx%d", d, c, z, g))
	}
	return &Filter{D: d, C: c, Z: z, G: g, Data: make([]int32, d*c*z*g)}
}

// At returns the weight at (d,c,z,g).
func (f *Filter) At(d, c, z, g int) int32 {
	return f.Data[((d*f.C+c)*f.Z+z)*f.G+g]
}

// Set stores v at (d,c,z,g).
func (f *Filter) Set(d, c, z, g int, v int32) {
	f.Data[((d*f.C+c)*f.Z+z)*f.G+g] = v
}

// ConvOut returns the output spatial dims of a convolution with kernel k,
// stride s and symmetric padding p over an input extent n.
func ConvOut(n, k, s, p int) int {
	if s <= 0 {
		panic("tensor: non-positive stride")
	}
	return (n+2*p-k)/s + 1
}

// Conv2D computes a standard cross-correlation (the CNN "convolution" of
// Eq. 1 in the paper): out[d][y][x] = Σ_c Σ_i Σ_j in[c][Sy+i-p][Sx+j-p] ·
// w[d][c][i][j] + bias[d]. Out-of-bounds taps contribute zero (zero pad).
// bias may be nil.
func Conv2D(in *Int, w *Filter, bias []int32, stride, pad int) *Int {
	if in.Shape.C != w.C {
		panic(fmt.Sprintf("tensor: channel mismatch %d vs %d", in.Shape.C, w.C))
	}
	if bias != nil && len(bias) != w.D {
		panic("tensor: bias length mismatch")
	}
	e := ConvOut(in.Shape.H, w.Z, stride, pad)
	f := ConvOut(in.Shape.W, w.G, stride, pad)
	out := NewInt(w.D, e, f)
	for d := 0; d < w.D; d++ {
		var b int64
		if bias != nil {
			b = int64(bias[d])
		}
		for y := 0; y < e; y++ {
			for x := 0; x < f; x++ {
				acc := b
				for c := 0; c < w.C; c++ {
					for i := 0; i < w.Z; i++ {
						hy := y*stride + i - pad
						if hy < 0 || hy >= in.Shape.H {
							continue
						}
						for j := 0; j < w.G; j++ {
							wx := x*stride + j - pad
							if wx < 0 || wx >= in.Shape.W {
								continue
							}
							acc += int64(in.At(c, hy, wx)) * int64(w.At(d, c, i, j))
						}
					}
				}
				out.Set(d, y, x, saturate32(acc))
			}
		}
	}
	return out
}

// FC computes a fully-connected layer out[d] = Σ_k in[k]·w[d][k] + bias[d].
// The input is flattened in CHW order. bias may be nil.
func FC(in *Int, weights [][]int32, bias []int32) []int32 {
	n := in.Shape.Size()
	out := make([]int32, len(weights))
	for d, row := range weights {
		if len(row) != n {
			panic(fmt.Sprintf("tensor: FC row %d has %d weights, want %d", d, len(row), n))
		}
		var acc int64
		if bias != nil {
			acc = int64(bias[d])
		}
		for k, x := range in.Data {
			acc += int64(x) * int64(row[k])
		}
		out[d] = saturate32(acc)
	}
	return out
}

// MaxPool2D applies non-overlapping-capable max pooling with the given
// kernel k and stride s (no padding).
func MaxPool2D(in *Int, k, s int) *Int {
	e := ConvOut(in.Shape.H, k, s, 0)
	f := ConvOut(in.Shape.W, k, s, 0)
	out := NewInt(in.Shape.C, e, f)
	for c := 0; c < in.Shape.C; c++ {
		for y := 0; y < e; y++ {
			for x := 0; x < f; x++ {
				m := int32(math.MinInt32)
				for i := 0; i < k; i++ {
					for j := 0; j < k; j++ {
						if v := in.At(c, y*s+i, x*s+j); v > m {
							m = v
						}
					}
				}
				out.Set(c, y, x, m)
			}
		}
	}
	return out
}

// AvgPool2D applies average pooling (integer division, rounding toward zero).
func AvgPool2D(in *Int, k, s int) *Int {
	e := ConvOut(in.Shape.H, k, s, 0)
	f := ConvOut(in.Shape.W, k, s, 0)
	out := NewInt(in.Shape.C, e, f)
	n := int64(k * k)
	for c := 0; c < in.Shape.C; c++ {
		for y := 0; y < e; y++ {
			for x := 0; x < f; x++ {
				var sum int64
				for i := 0; i < k; i++ {
					for j := 0; j < k; j++ {
						sum += int64(in.At(c, y*s+i, x*s+j))
					}
				}
				out.Set(c, y, x, saturate32(sum/n))
			}
		}
	}
	return out
}

// ReLU clamps negative elements to zero in place and returns its argument.
func ReLU(t *Int) *Int {
	for i, v := range t.Data {
		if v < 0 {
			t.Data[i] = 0
		}
	}
	return t
}

// RequantizeShift arithmetic-shifts every element right by sh bits (rounding
// toward negative infinity) and saturates into [0, maxCode]. This is the
// digital requantisation step between PIM layers.
func RequantizeShift(t *Int, sh int, maxCode int32) *Int {
	for i, v := range t.Data {
		s := v >> uint(sh)
		if s < 0 {
			s = 0
		}
		if s > maxCode {
			s = maxCode
		}
		t.Data[i] = s
	}
	return t
}

// Im2ColDims returns the unrolled-matrix dimensions of an im2col pass:
// rows = C·Z·G patch elements, and the E×F output positions.
func Im2ColDims(in *Int, z, g, stride, pad int) (rows, e, f int) {
	e = ConvOut(in.Shape.H, z, stride, pad)
	f = ConvOut(in.Shape.W, g, stride, pad)
	return in.Shape.C * z * g, e, f
}

// Im2ColInto unrolls convolution receptive fields into dst, a caller-provided
// flat buffer of at least rows·E·F elements holding one patch (receptive
// field) per output position: dst[(y*F+x)*rows + r], with patch element
// r = (c·Z+i)·G + j — the row layout weights take inside crossbars and the
// input-vector layout the batched forward kernels consume. Out-of-bounds
// taps are written as zero (zero padding). It returns (rows, e, f) and
// panics if dst is too small; it allocates nothing.
func Im2ColInto(in *Int, z, g, stride, pad int, dst []int32) (rows, e, f int) {
	return im2colFill(in, z, g, stride, pad, dst)
}

// Im2ColIntoInts is Im2ColInto writing widened codes into an []int buffer —
// the input type the functional executor consumes — saving callers a
// separate widening copy.
func Im2ColIntoInts(in *Int, z, g, stride, pad int, dst []int) (rows, e, f int) {
	return im2colFill(in, z, g, stride, pad, dst)
}

// Im2ColIntoCodes is Im2ColInto writing 8-bit codes — the DTC input the
// functional executor's ForwardCodes consumes — for an input whose every
// element is in [0, 255]; other values wrap, so callers check first.
func Im2ColIntoCodes(in *Int, z, g, stride, pad int, dst []uint8) (rows, e, f int) {
	return im2colFill(in, z, g, stride, pad, dst)
}

// im2colFill is the shared patch-major unrolling behind the Im2ColInto
// variants.
func im2colFill[T int32 | int | uint8](in *Int, z, g, stride, pad int, dst []T) (rows, e, f int) {
	rows, e, f = Im2ColDims(in, z, g, stride, pad)
	if len(dst) < rows*e*f {
		panic(fmt.Sprintf("tensor: im2col buffer %d shorter than %d", len(dst), rows*e*f))
	}
	h, w, ch := in.Shape.H, in.Shape.W, in.Shape.C
	p := 0
	for y := 0; y < e; y++ {
		for x := 0; x < f; x++ {
			patch := dst[p*rows : (p+1)*rows]
			r := 0
			for c := 0; c < ch; c++ {
				cbase := c * h * w
				for i := 0; i < z; i++ {
					hy := y*stride + i - pad
					if hy < 0 || hy >= h {
						for j := 0; j < g; j++ {
							patch[r] = 0
							r++
						}
						continue
					}
					rowbase := cbase + hy*w
					wx := x*stride - pad
					for j := 0; j < g; j++ {
						if wx+j < 0 || wx+j >= w {
							patch[r] = 0
						} else {
							patch[r] = T(in.Data[rowbase+wx+j])
						}
						r++
					}
				}
			}
			p++
		}
	}
	return rows, e, f
}

func saturate32(v int64) int32 {
	if v > math.MaxInt32 {
		return math.MaxInt32
	}
	if v < math.MinInt32 {
		return math.MinInt32
	}
	return int32(v)
}
