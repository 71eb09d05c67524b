package reram

import "fmt"

// Signed-weight handling. ReRAM conductances are non-negative, so signed
// weights need an encoding. The repository implements the two standard
// schemes; the functional TIMELY executor (package core) uses the
// differential scheme by default, and the analytic models account columns
// per the paper's 2-columns-per-8-bit-weight budget (offset scheme).
//
//   - Differential: each weight w splits into w⁺ = max(w,0) and w⁻ =
//     max(−w,0) programmed into paired column groups; the digital result is
//     dot⁺ − dot⁻. Exact, at the cost of doubling columns.
//
//   - Offset binary: w is stored as w + 2^(bits−1); the true dot product is
//     recovered digitally as dot_enc − 2^(bits−1)·Σx, with Σx supplied by a
//     reference column of unit conductances (one extra column per array).

// SignedScheme selects the signed-weight encoding.
type SignedScheme int

const (
	// SchemeDifferential uses paired positive/negative column groups.
	SchemeDifferential SignedScheme = iota
	// SchemeOffset uses offset-binary encoding with a reference column.
	SchemeOffset
)

// String returns the encoding scheme's name.
func (s SignedScheme) String() string {
	switch s {
	case SchemeDifferential:
		return "differential"
	case SchemeOffset:
		return "offset"
	}
	return fmt.Sprintf("scheme(%d)", int(s))
}

// ProgramSignedDifferential writes signed weights into two adjacent
// sub-ranged column groups (positive at col0, negative right after) and
// returns the total number of columns used.
func (x *Crossbar) ProgramSignedDifferential(col0 int, weights []int, weightBits int) (int, error) {
	lim := int(1) << (weightBits - 1)
	pos := make([]int, len(weights))
	neg := make([]int, len(weights))
	for i, w := range weights {
		if w < -lim || w >= lim {
			return 0, fmt.Errorf("reram: signed weight %d out of %d-bit range", w, weightBits)
		}
		if w >= 0 {
			pos[i] = w
		} else {
			neg[i] = -w
		}
	}
	// Magnitudes use weightBits-1 bits... but −2^(b−1) needs the full b−1+1
	// magnitude; program magnitudes with weightBits width for headroom.
	n1, err := x.ProgramWeightColumns(col0, pos, weightBits)
	if err != nil {
		return 0, err
	}
	n2, err := x.ProgramWeightColumns(col0+n1, neg, weightBits)
	if err != nil {
		return 0, err
	}
	return n1 + n2, nil
}

// SignedDotDifferential recombines a differential column pair programmed by
// ProgramSignedDifferential into the signed dot product (code units).
func (x *Crossbar) SignedDotDifferential(times []float64, col0, weightBits int, tdel float64) float64 {
	ncols := (weightBits + x.CellBits - 1) / x.CellBits
	pos := x.SubRangedDot(times, col0, weightBits, tdel)
	neg := x.SubRangedDot(times, col0+ncols, weightBits, tdel)
	return pos - neg
}

// ProgramSignedOffset writes signed weights in offset-binary form into the
// sub-ranged group at col0 and programs a unit reference column right after
// it. It returns the number of columns used (group + 1).
func (x *Crossbar) ProgramSignedOffset(col0 int, weights []int, weightBits int) (int, error) {
	lim := int(1) << (weightBits - 1)
	codes := make([]int, len(weights))
	for i, w := range weights {
		if w < -lim || w >= lim {
			return 0, fmt.Errorf("reram: signed weight %d out of %d-bit range", w, weightBits)
		}
		codes[i] = w + lim
	}
	n, err := x.ProgramWeightColumns(col0, codes, weightBits)
	if err != nil {
		return 0, err
	}
	refCol := col0 + n
	if refCol >= x.B {
		return 0, fmt.Errorf("reram: no room for reference column at %d", refCol)
	}
	for row := range weights {
		if err := x.Program(row, refCol, 1); err != nil {
			return 0, err
		}
	}
	return n + 1, nil
}

// SignedDotOffset recombines an offset-binary group (with its reference
// column) into the signed dot product: dot_enc − 2^(bits−1)·Σx, where Σx is
// read from the reference column.
func (x *Crossbar) SignedDotOffset(times []float64, col0, weightBits int, tdel float64) float64 {
	ncols := (weightBits + x.CellBits - 1) / x.CellBits
	enc := x.SubRangedDot(times, col0, weightBits, tdel)
	sumX := x.ColumnDot(times, col0+ncols, tdel)
	return enc - float64(float64(int(1)<<(weightBits-1))*sumX)
}
