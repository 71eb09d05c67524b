package stats

import (
	"math"
	"testing"
)

// TestPhiloxKnownAnswer pins philoxBlock against the published Philox4x32-10
// known-answer vectors of the Random123 reference implementation
// (kat_vectors: counter words, key words, expected output words). A
// counter-based regime is only trustworthy across machines and languages if
// the block function is the reference bijection bit for bit.
func TestPhiloxKnownAnswer(t *testing.T) {
	cases := []struct {
		ctr  [4]uint32
		key  [2]uint32
		want [4]uint32
	}{
		{
			ctr:  [4]uint32{0, 0, 0, 0},
			key:  [2]uint32{0, 0},
			want: [4]uint32{0x6627e8d5, 0xe169c58d, 0xbc57ac4c, 0x9b00dbd8},
		},
		{
			ctr:  [4]uint32{0xffffffff, 0xffffffff, 0xffffffff, 0xffffffff},
			key:  [2]uint32{0xffffffff, 0xffffffff},
			want: [4]uint32{0x408f276d, 0x41c83b0e, 0xa20bc7c6, 0x6d5451fd},
		},
		{
			// The pi-digits vector: counter and key from the hex expansion of pi.
			ctr:  [4]uint32{0x243f6a88, 0x85a308d3, 0x13198a2e, 0x03707344},
			key:  [2]uint32{0xa4093822, 0x299f31d0},
			want: [4]uint32{0xd16cfe09, 0x94fdcceb, 0x5001e420, 0x24126ea1},
		},
	}
	for _, c := range cases {
		if got := philoxBlock(c.ctr, c.key); got != c.want {
			t.Errorf("philoxBlock(%08x, %08x) = %08x, want %08x", c.ctr, c.key, got, c.want)
		}
	}
}

// TestPhiloxStreamMatchesBlocks: the v3 Uint64 stream serves each 128-bit
// block as two uint64s (words 0|1 then 2|3) with the block counter
// advancing by one per block — so any draw position is computable from its
// coordinates alone, which is the property the trial fan-out rests on.
func TestPhiloxStreamMatchesBlocks(t *testing.T) {
	const seed = 0xdeadbeefcafef00d
	const trial = 7
	r := NewTrialRNG(seed, trial)
	key := [2]uint32{uint32(seed & 0xffffffff), uint32(seed >> 32)}
	for block := uint32(0); block < 64; block++ {
		o := philoxBlock([4]uint32{block, 0, 0, trial}, key)
		want0 := uint64(o[0]) | uint64(o[1])<<32
		want1 := uint64(o[2]) | uint64(o[3])<<32
		if got := r.Uint64(); got != want0 {
			t.Fatalf("block %d draw 0: got %016x, want %016x", block, got, want0)
		}
		if got := r.Uint64(); got != want1 {
			t.Fatalf("block %d draw 1: got %016x, want %016x", block, got, want1)
		}
	}
}

// TestPhiloxBlockCounterCarry: the 64-bit block counter carries from word 0
// into word 1 (2^32 blocks in, the stream must not wrap onto itself).
func TestPhiloxBlockCounterCarry(t *testing.T) {
	r := NewTrialRNG(42, 0)
	r.ctr[0] = 0xffffffff // jump to the last block before the carry
	first := r.Uint64()
	r.Uint64() // second half of the block
	if r.ctr[0] != 0 || r.ctr[1] != 1 {
		t.Fatalf("counter after carry = %v, want word0=0 word1=1", r.ctr)
	}
	// The post-carry block must equal the directly-keyed block (0, 1).
	o := philoxBlock([4]uint32{0, 1, 0, 0}, [2]uint32{42, 0})
	if got := r.Uint64(); got != uint64(o[0])|uint64(o[1])<<32 {
		t.Fatalf("post-carry draw mismatch")
	}
	if first == 0 {
		t.Log("pre-carry draw was zero (fine, just exercising the path)")
	}
}

// TestTrialSubstreamsDisjoint is the leapfrog test: the (seed, trial, slot)
// coordinates of adjacent trials enumerate disjoint counter sets, so their
// streams can never overlap — not probably-never like additively-derived
// splitmix seeds, but structurally never. Since Philox is a bijection per
// key, distinct counters map to distinct blocks; the test drives the real
// generators and asserts zero shared 64-bit outputs over a window large
// enough that any aliasing of the counter layout would collide.
func TestTrialSubstreamsDisjoint(t *testing.T) {
	const seed = 2020
	const draws = 1 << 14
	seen := make(map[uint64]int, 4*draws)
	for trial := uint32(0); trial < 4; trial++ {
		r := NewTrialRNG(seed, trial)
		for i := 0; i < draws; i++ {
			u := r.Uint64()
			if prev, dup := seen[u]; dup {
				t.Fatalf("trial %d repeats a 64-bit output of trial %d", trial, prev)
			}
			seen[u] = int(trial)
		}
	}
	// Slot substreams of one trial are likewise disjoint from the trial's
	// main stream and from each other.
	main := NewTrialRNG(seed, 1)
	for slot := uint32(0); slot < 4; slot++ {
		r := main.Substream(1, slot)
		for i := 0; i < draws; i++ {
			u := r.Uint64()
			if prev, dup := seen[u]; dup {
				t.Fatalf("slot %d substream repeats an output of stream %d", slot, prev)
			}
			seen[u] = int(100 + slot)
		}
	}
}

// TestSubstreamKeying: Substream is pure (no receiver advance), depends
// only on (seed, trial, lane, index), and validates its arguments.
func TestSubstreamKeying(t *testing.T) {
	r := NewTrialRNG(99, 3)
	before := *r
	a1 := r.Substream(2, 17).Uint64()
	if *r != before {
		t.Fatal("Substream advanced the receiver")
	}
	// Same coordinates -> same stream, even after the receiver advanced.
	r.Uint64()
	if a2 := r.Substream(2, 17).Uint64(); a2 != a1 {
		t.Fatalf("substream draw changed with receiver position: %x vs %x", a1, a2)
	}
	// Different lane or index -> different stream.
	if b := r.Substream(2, 18).Uint64(); b == a1 {
		t.Fatal("adjacent substream indexes collide on first draw")
	}
	if b := r.Substream(3, 17).Uint64(); b == a1 {
		t.Fatal("adjacent substream lanes collide on first draw")
	}
	for _, bad := range [][2]uint32{{0, 0}, {1 << 8, 0}, {1, 1 << 24}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Substream(%d, %d) did not panic", bad[0], bad[1])
				}
			}()
			r.Substream(bad[0], bad[1])
		}()
	}
	// Substreams need counter coordinates: NewRNG generators must refuse.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Substream on a NewRNG generator did not panic")
			}
		}()
		NewRNG(1).Substream(1, 0)
	}()
}

// TestPhiloxSubstreamUniform: chi-square uniformity of each substream's
// Float64 draws over 64 equal bins, and a KS check between two adjacent
// trial substreams — independence in distribution, not just disjointness
// of outputs.
func TestPhiloxSubstreamUniform(t *testing.T) {
	const n = 1 << 15
	const bins = 64
	// 99.9% chi-square critical value for 63 degrees of freedom.
	const crit999 = 103.44
	exp := make([]float64, bins)
	for i := range exp {
		exp[i] = float64(n) / bins
	}
	samples := make([][]float64, 3)
	for trial := uint32(0); trial < 3; trial++ {
		r := NewTrialRNG(77, trial)
		obs := make([]float64, bins)
		xs := make([]float64, n)
		for i := 0; i < n; i++ {
			u := r.Float64()
			xs[i] = u
			obs[int(u*bins)]++
		}
		samples[trial] = xs
		if x2 := ChiSquare(obs, exp); x2 > crit999 {
			t.Errorf("trial %d substream uniformity chi-square = %.1f > %.1f", trial, x2, crit999)
		}
	}
	// Adjacent-trial KS: both draw from U(0,1); the two-sample statistic
	// must sit below the 99.9% threshold.
	d := KSTwoSample(samples[0], samples[1])
	if thresh := KSThreshold(0.001, n, n); d > thresh {
		t.Errorf("adjacent trial substreams KS = %.4f > %.4f", d, thresh)
	}
	// Cross-trial correlation: the lag-0 sample correlation between two
	// substreams' draw sequences must be statistically zero (|rho| below
	// ~4/sqrt(n)).
	var sx, sy, sxx, syy, sxy float64
	for i := 0; i < n; i++ {
		x, y := samples[0][i], samples[1][i]
		sx += x
		sy += y
		sxx += x * x
		syy += y * y
		sxy += x * y
	}
	fn := float64(n)
	cov := sxy/fn - sx/fn*sy/fn
	vx := sxx/fn - sx/fn*sx/fn
	vy := syy/fn - sy/fn*sy/fn
	rho := cov / math.Sqrt(vx*vy)
	if limit := 4 / math.Sqrt(fn); math.Abs(rho) > limit {
		t.Errorf("cross-trial correlation rho = %.4f, |rho| > %.4f", rho, limit)
	}
}

// TestV3DeviateAlgorithmsAreV2: the trial stream's derived deviates are
// the sublinear set — Intn is Lemire (exactly uniform) and Norm the
// Ziggurat — over the Philox bits, and a clone replays all of them.
func TestV3DeviateAlgorithmsAreV2(t *testing.T) {
	r := NewTrialRNG(5, 0)
	if !r.Philox() {
		t.Fatal("NewTrialRNG does not draw the Philox stream")
	}
	// Clone must replay the identical stream, mid-block buffer included.
	r.Uint64() // leave one buffered uint64
	cl := r.Clone()
	for i := 0; i < 17; i++ {
		if r.Uint64() != cl.Uint64() {
			t.Fatal("trial-stream clone diverged")
		}
	}
	if r.Intn(10) != cl.Intn(10) || r.Norm() != cl.Norm() || r.Binomial(1000, 0.01) != cl.Binomial(1000, 0.01) {
		t.Fatal("trial-stream clone diverged on derived deviates")
	}
	for i := 0; i < 100; i++ {
		if got, want := r.Intn(97), int(cl.intnLemire(97)); got != want {
			t.Fatalf("Intn draw %d = %d; want Lemire %d", i, got, want)
		}
		if got, want := r.Norm(), cl.normZiggurat(); got != want {
			t.Fatalf("Norm draw %d = %v; want Ziggurat %v", i, got, want)
		}
	}
}

// TestPhiloxRefillMatchesBlocks: the interleaved refill serves exactly the
// philoxBlock reference stream, block after block, across several refill
// boundaries, with the 64-bit block counter carrying from word 0 into
// word 1 at every position inside a refill. The counter advances once per
// consumed block, never per refill.
func TestPhiloxRefillMatchesBlocks(t *testing.T) {
	seed := uint64(0x0123456789abcdef)
	key := [2]uint32{uint32(seed), uint32(seed >> 32)}
	for start := uint64(0xffffffff) - 3*philoxLanes; start <= 0xffffffff; start++ {
		r := NewTrialRNG(seed, 5)
		r.ctr[0], r.ctr[1] = uint32(start), uint32(start>>32)
		for j := uint64(0); j < 3*philoxLanes; j++ {
			n := start + j
			o := philoxBlock([4]uint32{uint32(n), uint32(n >> 32), 0, 5}, key)
			if got, want := r.Uint64(), uint64(o[0])|uint64(o[1])<<32; got != want {
				t.Fatalf("start %#x block %d word 0|1: got %016x, want %016x", start, j, got, want)
			}
			if got := uint64(r.ctr[0]) | uint64(r.ctr[1])<<32; got != n+1 {
				t.Fatalf("start %#x block %d: counter %#x, want %#x", start, j, got, n+1)
			}
			if got, want := r.Uint64(), uint64(o[2])|uint64(o[3])<<32; got != want {
				t.Fatalf("start %#x block %d word 2|3: got %016x, want %016x", start, j, got, want)
			}
		}
	}
}

// refillMatchesBlocks fails unless one philoxRefill4 call at the given
// counter and key writes the four philoxBlock reference blocks at
// counters ctr..ctr+3, and leaves its counter and key arguments alone.
func refillMatchesBlocks(t *testing.T, ctr [4]uint32, key [2]uint32) {
	t.Helper()
	var buf [2 * philoxLanes]uint64
	c, k := ctr, key
	philoxRefill4(&buf, &c, &k)
	if c != ctr || k != key {
		t.Fatalf("philoxRefill4 changed its arguments: ctr %08x -> %08x, key %08x -> %08x", ctr, c, key, k)
	}
	n := uint64(ctr[0]) | uint64(ctr[1])<<32
	for j := uint64(0); j < philoxLanes; j++ {
		m := n + j
		o := philoxBlock([4]uint32{uint32(m), uint32(m >> 32), ctr[2], ctr[3]}, key)
		want := [2]uint64{uint64(o[0]) | uint64(o[1])<<32, uint64(o[2]) | uint64(o[3])<<32}
		if got := [2]uint64{buf[2*j], buf[2*j+1]}; got != want {
			t.Fatalf("ctr %08x key %08x block +%d: got %016x, want %016x", ctr, key, j, got, want)
		}
	}
}

// TestPhiloxKernelMatchesBlocks: the refill kernel computes exactly the
// philoxBlock reference blocks for random keys, stream ids and trial
// words, with the block counter placed so that the carry from word 0
// into word 1 (and the wrap of the whole 64-bit block counter) falls at
// every lane of the refill, and at random counters.
func TestPhiloxKernelMatchesBlocks(t *testing.T) {
	rng := NewRNG(2020)
	for i := 0; i < 200; i++ {
		u := rng.Uint64()
		key := [2]uint32{uint32(u), uint32(u >> 32)}
		if i < 3 {
			key = [2]uint32{0, 0}
			if i == 1 {
				key = [2]uint32{0xffffffff, 0xffffffff}
			}
		}
		u = rng.Uint64()
		stream, trial := uint32(u), uint32(u>>32)
		hi := uint32(rng.Uint64())
		for _, base := range []uint64{1 << 32, uint64(hi) << 32, 0} {
			for off := uint64(0); off <= philoxLanes; off++ {
				n := base - off
				refillMatchesBlocks(t, [4]uint32{uint32(n), uint32(n >> 32), stream, trial}, key)
			}
		}
		n := rng.Uint64()
		refillMatchesBlocks(t, [4]uint32{uint32(n), uint32(n >> 32), stream, trial}, key)
	}
}

// TestPhiloxCloneAtEveryOffset: a Clone taken at any position inside the
// refill buffer replays the receiver's continuation exactly, so deferred
// fault injection can snapshot a v3 stream mid-block.
func TestPhiloxCloneAtEveryOffset(t *testing.T) {
	for offset := 0; offset <= 4*philoxLanes; offset++ {
		r := NewTrialRNG(77, 3).Substream(2, 9)
		for i := 0; i < offset; i++ {
			r.Uint64()
		}
		c := r.Clone()
		for i := 0; i < 5*philoxLanes; i++ {
			if a, b := r.Uint64(), c.Uint64(); a != b {
				t.Fatalf("offset %d draw %d: clone %016x, receiver %016x", offset, i, b, a)
			}
		}
	}
}

// wordsServed is the number of 64-bit words a trial generator has served
// since block 0: each started block advances the counter by one and yields
// two words, and an odd count leaves an odd number of words buffered.
func wordsServed(r *RNG) uint64 {
	return 2*(uint64(r.ctr[0])|uint64(r.ctr[1])<<32) - uint64(r.bufn&1)
}

// normFillMatches fills from a and draws the same number of Norm deviates
// from b, in the given split lengths, and fails unless every deviate is
// bit-identical and both generators end in the same state.
func normFillMatches(t *testing.T, a, b *RNG, splits []int) {
	t.Helper()
	for _, n := range splits {
		got := make([]float64, n)
		a.NormFill(got)
		for i, g := range got {
			if want := b.Norm(); math.Float64bits(g) != math.Float64bits(want) {
				t.Fatalf("split %v: NormFill deviate %d = %v, Norm gives %v", splits, i, g, want)
			}
		}
		if *a != *b {
			t.Fatalf("split %v: generator state after NormFill(%d) differs from %d Norm calls", splits, n, n)
		}
	}
	if a.Uint64() != b.Uint64() || a.Float64() != b.Float64() || a.Norm() != b.Norm() {
		t.Fatalf("split %v: the draws after NormFill diverge", splits)
	}
}

// TestNormFillMatchesNorm: NormFill yields exactly the deviates, and leaves
// exactly the generator state, of successive Norm calls on both bit
// sources — for fill lengths that cross the Philox refill boundary at every
// offset, and for odd lengths that leave or consume a pending Box-Muller
// spare. Over a million trial-stream deviates it must take the Ziggurat's
// wedge and tail paths, not just the rectangle.
func TestNormFillMatchesNorm(t *testing.T) {
	splits := []int{0, 1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 2*philoxLanes + 1, 63, 64, 65, 1000}
	for _, src := range []struct {
		name string
		new  func() *RNG
	}{
		{"splitmix", func() *RNG { return NewRNG(99) }},
		{"philox", func() *RNG { return NewTrialRNG(99, 4) }},
		{"substream", func() *RNG { return NewTrialRNG(99, 4).Substream(3, 7) }},
		{"counter-carry", func() *RNG {
			r := NewTrialRNG(99, 4)
			r.ctr[0] = 0xffffffff - 2*philoxLanes
			return r
		}},
	} {
		t.Run(src.name, func(t *testing.T) {
			for lead := 0; lead <= 2*philoxLanes; lead++ {
				a, b := src.new(), src.new()
				for i := 0; i < lead; i++ {
					a.Uint64()
					b.Uint64()
				}
				normFillMatches(t, a, b, splits)
			}
			// A spare pending before the fill (Box-Muller leaves one
			// after an odd number of deviates).
			a, b := src.new(), src.new()
			a.Norm()
			b.Norm()
			normFillMatches(t, a, b, []int{3, 1, 4, 1, 5, 9, 2, 6})
		})
	}

	r, ref := NewTrialRNG(2021, 0), NewTrialRNG(2021, 0)
	const n = 1 << 20
	got := make([]float64, n)
	r.NormFill(got)
	wedge, tail := 0, 0
	for i, g := range got {
		before := wordsServed(ref)
		want := ref.Norm()
		if math.Float64bits(g) != math.Float64bits(want) {
			t.Fatalf("deviate %d: NormFill %v, Norm %v", i, g, want)
		}
		switch words := wordsServed(ref) - before; {
		case math.Abs(want) > zigR:
			tail++
		case words > 1:
			wedge++
		}
	}
	if *r != *ref {
		t.Fatal("generator state after a 2^20 fill differs from 2^20 Norm calls")
	}
	if wedge == 0 || tail == 0 {
		t.Fatalf("2^20 deviates took the wedge %d and the tail %d times; want both > 0", wedge, tail)
	}
}

// BenchmarkNormFill measures bulk trial-stream Gaussians as the noisy wave
// draws them, in fills of 976 (one §VI-B first-layer wave); compare
// BenchmarkNormPhilox, one Norm call per deviate.
func BenchmarkNormFill(b *testing.B) {
	r := NewTrialRNG(1, 0)
	buf := make([]float64, 976)
	for i := 0; i < b.N; i += len(buf) {
		r.NormFill(buf[:min(len(buf), b.N-i)])
	}
}

// BenchmarkPhiloxRefill measures one buffer refill: four Philox4x32-10
// blocks, eight uint64s of the trial stream.
func BenchmarkPhiloxRefill(b *testing.B) {
	r := NewTrialRNG(1, 0)
	for i := 0; i < b.N; i++ {
		r.philoxRefill()
		r.ctr[0] += philoxLanes
	}
}
