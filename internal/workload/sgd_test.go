package workload

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/stats"
)

// sgdShapes are the MLP shapes the SGD identity tests cover: a small
// shape whose widths are not multiples of the forward pass's 4-row block
// or the backward pass's row pairs, the §VI-B accuracy classifier and the
// defect-study CNN head.
var sgdShapes = [][]int{{7, 5, 3}, {16, 48, 4}, {288, 32, 4}}

// naiveForward is the row-at-a-time reference for MLP.forward: each output
// row accumulates from its bias in ascending input order.
func naiveForward(m *MLP, x []float64) [][]float64 {
	acts := [][]float64{x}
	cur := x
	for l := range m.W {
		next := make([]float64, len(m.W[l]))
		for o, row := range m.W[l] {
			s := m.B[l][o]
			for i, v := range cur {
				s += row[i] * v
			}
			if l < len(m.W)-1 && s < 0 {
				s = 0
			}
			next[o] = s
		}
		acts = append(acts, next)
		cur = next
	}
	return acts
}

// naiveSGD is the row-at-a-time reference for one SGD update: the input
// gradient of every layer, layer 0 included, accumulates one output row
// at a time from the pre-update weights. It returns the loss.
func naiveSGD(m *MLP, x []float64, y int, lr float64) float64 {
	acts := naiveForward(m, x)
	probs := m.softmaxInto(acts[len(acts)-1])
	loss := -math.Log(math.Max(probs[y], 1e-12))
	delta := append([]float64(nil), probs...)
	delta[y] -= 1
	for l := len(m.W) - 1; l >= 0; l-- {
		in := acts[l]
		prev := make([]float64, len(in))
		for o, row := range m.W[l] {
			g := delta[o]
			m.B[l][o] -= lr * g
			lg := lr * g
			for i, ri := range row {
				prev[i] += g * ri
				row[i] = ri - lg*in[i]
			}
		}
		if l == 0 {
			return loss
		}
		for i, v := range in {
			if v <= 0 {
				prev[i] = 0
			}
		}
		delta = prev
	}
	return loss
}

// sgdSamples draws n labelled inputs for an MLP of the given sizes, with
// exact zeros mixed in so the ReLU gates see both branches.
func sgdSamples(rng *stats.RNG, sizes []int, n int) ([][]float64, []int) {
	xs, ys := make([][]float64, n), make([]int, n)
	for s := range xs {
		x := make([]float64, sizes[0])
		for i := range x {
			if rng.Intn(5) > 0 {
				x[i] = rng.Float64()
			}
		}
		xs[s], ys[s] = x, rng.Intn(sizes[len(sizes)-1])
	}
	return xs, ys
}

// sameBits reports whether a and b hold bit-identical float64s.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameParams reports whether two MLPs hold bit-identical weights and biases.
func sameParams(a, b *MLP) bool {
	for l := range a.W {
		if !sameBits(a.B[l], b.B[l]) {
			return false
		}
		for o := range a.W[l] {
			if !sameBits(a.W[l][o], b.W[l][o]) {
				return false
			}
		}
	}
	return true
}

// TestForwardMatchesNaive: the 4-row blocked forward pass is bit-identical
// to the row-at-a-time reference, including layer widths that leave a
// remainder after the blocks.
func TestForwardMatchesNaive(t *testing.T) {
	for _, sizes := range append([][]int{{9, 6, 7, 2}, {13, 1, 11, 4}}, sgdShapes...) {
		rng := stats.NewRNG(11)
		m := NewMLP(rng, sizes...)
		for l := range m.B {
			for o := range m.B[l] {
				m.B[l][o] = rng.Gauss(0, 0.5)
			}
		}
		xs, _ := sgdSamples(rng, sizes, 50)
		for s, x := range xs {
			want := naiveForward(m, x)
			got := m.forward(x)
			for l := range want {
				if !sameBits(got[l], want[l]) {
					t.Fatalf("sizes %v sample %d layer %d: blocked forward differs from reference", sizes, s, l)
				}
			}
		}
	}
}

// TestStepSkipsOnlyTheInputGradient: after 200 updates, step (which never
// forms the layer-0 input gradient) and the naive reference (which does)
// leave bit-identical weights, biases and losses.
func TestStepSkipsOnlyTheInputGradient(t *testing.T) {
	const steps, lr = 200, 0.05
	for _, sizes := range sgdShapes {
		a := NewMLP(stats.NewRNG(21), sizes...)
		ref := NewMLP(stats.NewRNG(21), sizes...)
		xs, ys := sgdSamples(stats.NewRNG(22), sizes, steps)
		for s := range xs {
			la := a.step(xs[s], ys[s], lr)
			lr0 := naiveSGD(ref, xs[s], ys[s], lr)
			if math.Float64bits(la) != math.Float64bits(lr0) {
				t.Fatalf("sizes %v step %d: losses step=%v reference=%v", sizes, s, la, lr0)
			}
		}
		if !sameParams(a, ref) {
			t.Fatalf("sizes %v: parameters differ from the reference after %d steps", sizes, steps)
		}
	}
}

// TestStepSkipsDeadUnits: with a third of the hidden units forced dead
// (negative bias, non-positive incoming weights, non-negative inputs) their
// layer-0 deltas are exactly zero, and step, which skips those rows, still
// leaves weights, biases and losses bit-identical to the naive reference,
// which updates every row. The dead rows stay exactly as initialised.
func TestStepSkipsDeadUnits(t *testing.T) {
	const steps, lr = 200, 0.05
	for _, sizes := range sgdShapes {
		kill := func(m *MLP) {
			for o := 0; o < sizes[1]; o += 3 {
				for i := range m.W[0][o] {
					m.W[0][o][i] = -math.Abs(m.W[0][o][i])
				}
				m.B[0][o] = -1
			}
		}
		a := NewMLP(stats.NewRNG(31), sizes...)
		ref := NewMLP(stats.NewRNG(31), sizes...)
		kill(a)
		kill(ref)
		dead := append([]float64(nil), a.W[0][0]...)
		xs, ys := sgdSamples(stats.NewRNG(32), sizes, steps)
		for s := range xs {
			la := a.step(xs[s], ys[s], lr)
			lr0 := naiveSGD(ref, xs[s], ys[s], lr)
			if math.Float64bits(la) != math.Float64bits(lr0) {
				t.Fatalf("sizes %v step %d: loss %v, reference %v", sizes, s, la, lr0)
			}
		}
		if !sameParams(a, ref) {
			t.Fatalf("sizes %v: parameters differ from the reference after %d steps", sizes, steps)
		}
		if !sameBits(a.W[0][0], dead) || a.B[0][0] != -1 {
			t.Fatalf("sizes %v: a dead unit's row was updated", sizes)
		}
	}
}

// TestTrainEmptyDataset: both trainers return a zero loss, not NaN, on a
// dataset with no samples.
func TestTrainEmptyDataset(t *testing.T) {
	m := NewMLP(stats.NewRNG(1), 4, 3, 2)
	empty := &Dataset{Dim: 4, Classes: 2}
	if got := m.Train(empty, stats.NewRNG(2), 3, 0.05); got != 0 {
		t.Errorf("Train on an empty dataset = %v, want 0", got)
	}
	if got := m.TrainWithNoise(empty, stats.NewRNG(2), 3, 0.05, 0.02); got != 0 {
		t.Errorf("TrainWithNoise on an empty dataset = %v, want 0", got)
	}
}

// BenchmarkMLPTrain measures one training epoch on the two shapes the
// experiment suite trains: the §VI-B accuracy classifier (16→48→4,
// noise-aware, 1920 samples) and the defect-study CNN head (288→32→4,
// 480 feature vectors).
func BenchmarkMLPTrain(b *testing.B) {
	cases := []struct {
		sizes []int
		n     int
		sigma float64
	}{
		{[]int{16, 48, 4}, 1920, 0.02},
		{[]int{288, 32, 4}, 480, 0},
	}
	for _, c := range cases {
		name := fmt.Sprintf("shape=%dx%dx%d", c.sizes[0], c.sizes[1], c.sizes[2])
		if c.sigma != 0 {
			name += "/noise"
		}
		b.Run(name, func(b *testing.B) {
			rng := stats.NewRNG(2020)
			d := SyntheticClusters(rng, c.n, c.sizes[0], c.sizes[2], 0.3)
			m := NewMLP(rng, c.sizes...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.TrainWithNoise(d, rng, 1, 0.05, c.sigma)
			}
		})
	}
}
