package reram

import (
	"testing"
	"testing/quick"

	"repro/internal/params"
)

func mustProgram(t *testing.T, x *Crossbar, row, col int, level uint8) {
	t.Helper()
	if err := x.Program(row, col, level); err != nil {
		t.Fatal(err)
	}
}

// ideal input times for a vector of 8-bit codes
func timesFor(codes []int) []float64 {
	ts := make([]float64, len(codes))
	for i, c := range codes {
		ts[i] = float64(c) * params.TDel
	}
	return ts
}

func TestProgramAndReadback(t *testing.T) {
	x := New(4, 4)
	if err := x.Program(1, 2, 9); err != nil {
		t.Fatal(err)
	}
	if got := x.Level(1, 2); got != 9 {
		t.Errorf("Level = %d, want 9", got)
	}
}

func TestProgramErrors(t *testing.T) {
	x := New(4, 4)
	if err := x.Program(4, 0, 1); err == nil {
		t.Errorf("out-of-range row accepted")
	}
	if err := x.Program(0, 0, 16); err == nil {
		t.Errorf("over-level accepted by 4-bit cell")
	}
}

func TestNewPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("New(0,4) did not panic")
		}
	}()
	New(0, 4)
}

// TestColumnDotKirchhoff verifies Fig. 3(a): the column current is the sum
// of per-cell currents, i.e. the dot of input times and conductances.
func TestColumnDotKirchhoff(t *testing.T) {
	x := New(4, 4)
	mustProgram(t, x, 0, 0, 3)
	mustProgram(t, x, 1, 0, 15)
	mustProgram(t, x, 2, 0, 1)
	times := timesFor([]int{10, 20, 0, 255})
	got := x.ColumnDot(times, 0, params.TDel)
	want := 10.0*3 + 20*15 + 0*1 // row 3 has level 0
	if got != want {
		t.Errorf("ColumnDot = %v, want %v", got, want)
	}
}

func TestColumnDotPartialRows(t *testing.T) {
	x := New(8, 4)
	mustProgram(t, x, 5, 2, 7)
	// Only 3 input rows driven: row 5 floats, contributes nothing.
	if got := x.ColumnDot(timesFor([]int{1, 2, 3}), 2, params.TDel); got != 0 {
		t.Errorf("floating-row dot = %v, want 0", got)
	}
}

func TestSubRangedDot8Bit(t *testing.T) {
	x := New(8, 4)
	codes := []int{0xAB, 0x0F, 0xF0, 0x01}
	if _, err := x.ProgramWeightColumns(0, codes, 8); err != nil {
		t.Fatal(err)
	}
	inputs := []int{1, 2, 3, 4}
	got := x.SubRangedDot(timesFor(inputs), 0, 8, params.TDel)
	want := 0.0
	for i := range codes {
		want += float64(inputs[i] * codes[i])
	}
	if got != want {
		t.Errorf("SubRangedDot = %v, want %v", got, want)
	}
}

func TestSubRangedDot16BitOver4BitCells(t *testing.T) {
	x := New(4, 4)
	codes := []int{0x1234, 0xFFFF, 0, 0x8000}
	if _, err := x.ProgramWeightColumns(0, codes, 16); err != nil {
		t.Fatal(err)
	}
	inputs := []int{3, 1, 9, 2}
	got := x.SubRangedDot(timesFor(inputs), 0, 16, params.TDel)
	want := 0.0
	for i := range codes {
		want += float64(inputs[i] * codes[i])
	}
	if got != want {
		t.Errorf("16-bit SubRangedDot = %v, want %v", got, want)
	}
}

func TestProgramWeightColumnsErrors(t *testing.T) {
	x := New(4, 4)
	if _, err := x.ProgramWeightColumns(3, []int{1}, 8); err == nil {
		t.Errorf("column overflow accepted")
	}
	if _, err := x.ProgramWeightColumns(0, []int{256}, 8); err == nil {
		t.Errorf("over-range code accepted")
	}
	if _, err := x.ProgramWeightColumns(0, make([]int, 5), 8); err == nil {
		t.Errorf("too many rows accepted")
	}
}

func TestSignedDifferentialExact(t *testing.T) {
	x := New(8, 4)
	weights := []int{-128, 127, -1, 0, 64, -64, 5, -5}
	n, err := x.ProgramSignedDifferential(0, weights, 8)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("differential 8-bit used %d columns, want 4", n)
	}
	inputs := []int{255, 1, 100, 50, 2, 2, 10, 10}
	got := x.SignedDotDifferential(timesFor(inputs), 0, 8, params.TDel)
	want := 0.0
	for i := range weights {
		want += float64(inputs[i] * weights[i])
	}
	if got != want {
		t.Errorf("signed differential dot = %v, want %v", got, want)
	}
}

func TestSignedOffsetExact(t *testing.T) {
	x := New(8, 4)
	weights := []int{-128, 127, -1, 0, 64, -64, 5, -5}
	n, err := x.ProgramSignedOffset(0, weights, 8)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("offset 8-bit used %d columns, want 3 (2 + reference)", n)
	}
	inputs := []int{255, 1, 100, 50, 2, 2, 10, 10}
	got := x.SignedDotOffset(timesFor(inputs), 0, 8, params.TDel)
	want := 0.0
	for i := range weights {
		want += float64(inputs[i] * weights[i])
	}
	if got != want {
		t.Errorf("signed offset dot = %v, want %v", got, want)
	}
}

func TestSignedRangeErrors(t *testing.T) {
	x := New(4, 4)
	if _, err := x.ProgramSignedDifferential(0, []int{128}, 8); err == nil {
		t.Errorf("differential accepted +128 for 8 bits")
	}
	if _, err := x.ProgramSignedOffset(0, []int{-129}, 8); err == nil {
		t.Errorf("offset accepted -129 for 8 bits")
	}
}

// Property: both signed schemes agree with the integer dot product for
// random weights/inputs.
func TestSignedSchemesAgreeProperty(t *testing.T) {
	f := func(ws [6]int8, xs [6]uint8) bool {
		want := 0.0
		weights := make([]int, 6)
		inputs := make([]int, 6)
		for i := range ws {
			weights[i] = int(ws[i])
			inputs[i] = int(xs[i])
			want += float64(int(ws[i]) * int(xs[i]))
		}
		xd := New(8, 4)
		if _, err := xd.ProgramSignedDifferential(0, weights, 8); err != nil {
			return false
		}
		xo := New(8, 4)
		if _, err := xo.ProgramSignedOffset(0, weights, 8); err != nil {
			return false
		}
		ts := timesFor(inputs)
		return xd.SignedDotDifferential(ts, 0, 8, params.TDel) == want &&
			xo.SignedDotOffset(ts, 0, 8, params.TDel) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
