package core

import (
	"strings"
	"testing"

	"repro/internal/analog"
	"repro/internal/energy"
	"repro/internal/stats"
)

// lockstepNoise is a noise configuration on rng with the sigmas mask
// selects (bits 0–4: DTC, X-subBuf, P-subBuf, comparator, TDC) set to
// random non-zero magnitudes drawn from pick.
func lockstepNoise(pick *stats.RNG, mask int, rng *stats.RNG) *analog.Noise {
	sigma := func(bit int, scale float64) float64 {
		if mask&(1<<bit) == 0 {
			return 0
		}
		return scale * (0.5 + pick.Float64())
	}
	return &analog.Noise{
		DTCSigma:        sigma(0, 3),
		XSubBufSigma:    sigma(1, 7),
		PSubBufRelSigma: sigma(2, 0.01),
		ComparatorSigma: sigma(3, 9),
		TDCSigma:        sigma(4, 4),
		RNG:             rng,
	}
}

// TestComputeLockstepMatchesClonedStreams: for random sigma sets, hop
// counts, layer shapes and interface widths, a group of layers sharing one
// RNG and run in lockstep yields, wave after wave, the psums and ledger
// counts of each layer run alone by Compute on its own clone of the
// stream, and the shared RNG ends where every clone does.
func TestComputeLockstepMatchesClonedStreams(t *testing.T) {
	shapes := []struct{ d, rows int }{{4, 9}, {8, 300}, {80, 40}, {70, 270}}
	for c := uint64(0); c < 16; c++ {
		pick := stats.NewRNG(100 + c)
		shape := shapes[pick.Intn(len(shapes))]
		hops := pick.Intn(4)
		mask := pick.Intn(32)
		ifBits := []int{8, 24}[pick.Intn(2)]
		k := 1 + pick.Intn(4)
		shared := stats.NewTrialRNG(c, 3)
		layers := make([]*MappedLayer, k)
		refs := make([]*MappedLayer, k)
		clones := make([]*stats.RNG, k)
		ledgers := make([]*energy.Ledger, 2*k)
		for j := range layers {
			clones[j] = shared.Clone()
			// Both copies of layer j take the same sigma magnitudes.
			noise := lockstepNoise(pick, mask, shared)
			alone := *noise
			alone.RNG = clones[j]
			for i, nz := range []*analog.Noise{noise, &alone} {
				ledgers[2*j+i] = energy.NewLedger(nil)
				opt := Options{Noise: nz, Ledger: ledgers[2*j+i], InterfaceBits: ifBits, InputHops: hops}
				m := mapRandom(t, opt, 40+c*8+uint64(j), shape.d, shape.rows)
				if i == 0 {
					layers[j] = m
				} else {
					refs[j] = m
				}
			}
		}
		psums := make([][]int, k)
		for wave := 0; wave < 3; wave++ {
			ins := make([][]int, k)
			for j := range layers {
				ins[j] = randomBatch(pick, 1, shape.rows)
				psums[j] = make([]int, shape.d)
			}
			if err := ComputeLockstep(layers, ins, psums); err != nil {
				t.Fatalf("case %d: %v", c, err)
			}
			for j, ref := range refs {
				want, err := ref.Compute(ins[j])
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if psums[j][i] != want[i] {
						t.Fatalf("case %d (mask %05b, hops %d, %dx%d, if=%d) wave %d layer %d psum[%d]: lockstep %d, alone %d",
							c, mask, hops, shape.d, shape.rows, ifBits, wave, j, i, psums[j][i], want[i])
					}
				}
			}
		}
		for j := range layers {
			got, want := ledgers[2*j], ledgers[2*j+1]
			for _, comp := range energy.Components() {
				for _, cl := range energy.Classes() {
					if g, w := got.CountClass(comp, cl), want.CountClass(comp, cl); g != w {
						t.Fatalf("case %d layer %d ledger %v/%v: lockstep %v, alone %v", c, j, comp, cl, g, w)
					}
				}
			}
			if g, w := shared.Clone().Uint64(), clones[j].Uint64(); g != w {
				t.Fatalf("case %d: shared RNG and clone %d end in different states", c, j)
			}
		}
	}
}

// TestComputeLockstepRejectsMixedGroups: a group whose layers draw
// different deviate counts, or draw from different RNGs, or whose inputs
// or outputs are mis-sized or not DTC codes, fails before anything is
// drawn, computed or counted.
func TestComputeLockstepRejectsMixedGroups(t *testing.T) {
	const d, rows = 8, 300
	rng := stats.NewTrialRNG(9, 1)
	fresh := rng.Clone()
	led := energy.NewLedger(nil)
	mk := func(mask int, r *stats.RNG) *MappedLayer {
		opt := Options{Noise: lockstepNoise(stats.NewRNG(1), mask, r), Ledger: led, InterfaceBits: 8}
		return mapRandom(t, opt, 3, d, rows)
	}
	codes := func(n int) [][]int {
		out := make([][]int, n)
		for i := range out {
			out[i] = make([]int, rows)
		}
		return out
	}
	bad := codes(2)
	bad[1][rows-1] = 256
	psums := func(n int) [][]int {
		out := make([][]int, n)
		for i := range out {
			out[i] = []int{7, 7, 7, 7, 7, 7, 7, 7}
		}
		return out
	}
	base := mk(0b01000, rng) // comparator only
	for _, tc := range []struct {
		name   string
		layers []*MappedLayer
		codes  [][]int
		psums  [][]int
		want   string
	}{
		{"count", []*MappedLayer{base, mk(0b11000, rng)}, codes(2), psums(2), "deviates a wave"},
		{"rng", []*MappedLayer{base, mk(0b01000, rng.Clone())}, codes(2), psums(2), "another RNG"},
		{"nil rng", []*MappedLayer{base, mk(0b01000, nil)}, codes(2), psums(2), "another RNG"},
		{"inputs", []*MappedLayer{base, base}, codes(1), psums(2), "with 1 inputs"},
		{"rows", []*MappedLayer{base}, [][]int{make([]int, rows-1)}, psums(1), "inputs for"},
		{"channels", []*MappedLayer{base}, codes(1), [][]int{{7}}, "outputs for"},
		{"code", []*MappedLayer{base, base}, bad, psums(2), "analog: DTC code 256 out of [0,256)"},
	} {
		ps := tc.psums
		err := ComputeLockstep(tc.layers, tc.codes, ps)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %v; want one containing %q", tc.name, err, tc.want)
		}
		for _, p := range ps {
			for _, v := range p {
				if v != 7 {
					t.Fatalf("%s: a rejected group wrote psums", tc.name)
				}
			}
		}
	}
	if g, w := rng.Uint64(), fresh.Uint64(); g != w {
		t.Fatal("a rejected group advanced the shared RNG")
	}
	if led.Total() != 0 {
		t.Fatalf("a rejected group counted %v fJ", led.Total())
	}
}
