package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"repro/sim"
)

// The generators turn a seed into a workload's full schedule before the
// clock starts. The programs under test only ever see the requests.

// Fixed loopback addresses: ring ownership in the two-replica fleet is a
// function of these strings, so the forwarded share and the set of
// registered names that fail stay identical on every run.
var (
	hitAddrs  = []string{"127.0.0.1:18461", "127.0.0.1:18462"}
	sweepAddr = "127.0.0.1:18463"
)

// Workload shape constants.
const (
	hitRate       = 500                     // evaluate requests per second, open loop
	hitColdShare  = 0.05                    // first-seen inline specs
	hitZipfS      = 1.1                     // popularity skew over the hot pool
	healthzEvery  = 50 * time.Millisecond   // one /healthz probe per period
	hitLimit      = 50 * time.Millisecond   // goodput latency limit
	sweepSlotRate = 42                      // schedule slots per second, open loop
	sweepLimit    = 1000 * time.Millisecond // goodput latency limit
	sweepTrials   = 1                       // Monte-Carlo trials per functional point
	registrations = 6                       // networks registered during serve-hit
	byNameRepeats = 4                       // evaluations per registered name and entry
	workers       = 2                       // requests in flight from the generator (nproc here)
)

// sweepSeeds are the two functional Monte-Carlo seeds serve-sweep pairs
// its points over; setup trains both before the clock starts.
var sweepSeeds = [2]uint64{101, 202}

// sweepNets are the zoo networks serve-sweep simulates on the timing
// backend: the ones a one-chip deployment of at most 12 images simulates
// in about 1–40 ms.
var sweepNets = []string{"VGG-D", "CNN-1", "MLP-L", "VGG-1", "VGG-2", "VGG-3", "VGG-4",
	"MSRA-1", "MSRA-2", "MSRA-3"}

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func evalOp(due time.Duration, entry int, req *sim.EvalRequest) Op {
	return Op{Due: due, Entry: entry, Kind: opEval, Path: "/v1/evaluate",
		Body: mustJSON(req), Backend: req.Backend}
}

// genSpec returns a small conv/pool/fc network. Distinct uniq values give
// distinct layer tables, hence distinct spec hashes.
func genSpec(r *rand.Rand, name string, uniq int) *sim.NetworkSpec {
	h := []int{16, 24, 32}[r.IntN(3)]
	return &sim.NetworkSpec{
		Name:  name,
		Input: sim.NetworkDims{C: 3, H: h, W: h},
		Layers: []sim.NetworkLayer{
			{Kind: "conv", Filters: 8 + r.IntN(24), Kernel: 3, Pad: 1},
			{Kind: "maxpool", Kernel: 2, Stride: 2},
			{Kind: "conv", Filters: 16 + r.IntN(48), Kernel: 3, Pad: 1},
			{Kind: "fc", Units: 10 + uniq},
		},
	}
}

// registeredSpecs are the networks serve-hit registers during the run.
// They do not depend on the seed, so which of them the ring places on the
// replica that did not register them is the same on every run.
func registeredSpecs() []*sim.NetworkSpec {
	r := newRand(0, 99)
	out := make([]*sim.NetworkSpec, registrations)
	for i := range out {
		out[i] = genSpec(r, fmt.Sprintf("bench-net-%d", i), 5000+i)
	}
	return out
}

// hitPool is serve-hit's hot request pool in popularity order: one hot
// functional body, then zoo requests, the same requests with defaults
// written out, and inline specs, ranked by a seeded shuffle.
func hitPool(seed uint64) []*sim.EvalRequest {
	r := newRand(seed, 1)
	var pool []*sim.EvalRequest
	for _, n := range sim.ZooNetworks() {
		for _, b := range []string{"timely", "prime", "isaac"} {
			pool = append(pool, &sim.EvalRequest{Backend: b, Network: n})
		}
		pool = append(pool, &sim.EvalRequest{Backend: "timely", Network: n, Bits: 8})
		pool = append(pool, &sim.EvalRequest{Backend: "prime", Network: n, Chips: 1})
	}
	for i := 0; i < 16; i++ {
		pool = append(pool, &sim.EvalRequest{Backend: "timely", Spec: genSpec(r, fmt.Sprintf("pool-%d", i), i)})
	}
	r.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	hot := &sim.EvalRequest{Backend: "functional", Network: "mlp"}
	return append([]*sim.EvalRequest{hot}, pool...)
}

// zipf draws ranks in [0,n) with P(k) ∝ 1/(k+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		z.cdf[k] = sum
	}
	for k := range z.cdf {
		z.cdf[k] /= sum
	}
	return z
}

func (z *zipf) draw(r *rand.Rand) int {
	u := r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// hitSchedule builds serve-hit: evaluate requests at hitRate spread over
// both entries (95% from the Zipf-ranked hot pool, 5% first-seen inline
// specs), registrations of the fixed networks on entry 0 with evaluations
// by name through both entries, and a /healthz probe per healthzEvery.
func hitSchedule(seed uint64, seconds float64) []Op {
	r := newRand(seed, 2)
	pool := hitPool(seed)
	z := newZipf(len(pool), hitZipfS)
	window := time.Duration(seconds * float64(time.Second))
	var ops []Op
	step := time.Second / hitRate
	cold := 0
	for due := time.Duration(0); due < window; due += step {
		entry := r.IntN(len(hitAddrs))
		if r.Float64() < hitColdShare {
			spec := genSpec(r, fmt.Sprintf("cold-%d", cold), 100+cold)
			cold++
			ops = append(ops, evalOp(due, entry, &sim.EvalRequest{Backend: "timely", Spec: spec}))
			continue
		}
		ops = append(ops, evalOp(due, entry, pool[z.draw(r)]))
	}
	for due := time.Duration(0); due < window; due += healthzEvery {
		ops = append(ops, Op{Due: due + step/2, Entry: int(due/healthzEvery) % len(hitAddrs),
			Kind: opHealthz, Path: "/healthz"})
	}
	// Registration k happens at (k+1)/(n+2) of the window; its name is then
	// evaluated byNameRepeats times through each entry, starting 200 ms
	// later so the registration has landed.
	specs := registeredSpecs()
	for k, spec := range specs {
		at := window * time.Duration(k+1) / time.Duration(len(specs)+2)
		ops = append(ops, Op{Due: at + step/3, Entry: 0, Kind: opRegister,
			Path: "/v1/networks", Body: mustJSON(spec)})
		gap := (window - at - 200*time.Millisecond) / byNameRepeats
		for i := 0; i < byNameRepeats; i++ {
			for e := range hitAddrs {
				req := &sim.EvalRequest{Backend: "timely", Network: spec.Name}
				op := evalOp(at+200*time.Millisecond+time.Duration(i)*gap+step/3, e, req)
				op.Kind = opByName
				ops = append(ops, op)
			}
		}
	}
	sortOps(ops)
	return ops
}

// hitWarm is what serve-hit's setup sends before the clock starts: every
// hot-pool body once, so the measured window sees a warm fleet.
func hitWarm(seed uint64) [][]byte {
	var out [][]byte
	for _, req := range hitPool(seed) {
		out = append(out, mustJSON(req))
	}
	return out
}

// sweepWarm trains both functional seeds on both workloads at values the
// sweep itself never draws.
func sweepWarm() [][]byte {
	var out [][]byte
	for _, s := range sweepSeeds {
		out = append(out,
			mustJSON(&sim.EvalRequest{Backend: "functional", Network: "mlp", Seed: ptr(s), Trials: sweepTrials, NoisePS: ptr(0.0)}),
			mustJSON(&sim.EvalRequest{Backend: "functional", Network: "cnn", Seed: ptr(s), Trials: sweepTrials, FaultRate: ptr(0.0)}))
	}
	return out
}

// sweepCycle is serve-sweep's slot mix, in slots per cycle of 20: timing
// points, functional pairs, points sent twice at once, analytic specs.
// Each cycle is shuffled, so every run has the same mix and only its
// order and points depend on the seed.
var sweepCycle = [4]int{9, 4, 1, 6}

const (
	slotTiming = iota
	slotPair
	slotDup
	slotSpec
)

// sweepSchedule builds serve-sweep: one slot per 1/sweepSlotRate against
// the single replica, drawn from sweepCycle. A timing slot simulates a
// zoo network (round-robin over sweepNets) at a fresh (γ, images) point;
// a pair is two functional points differing only in seed; a dup is a
// timing point or spec sent twice at once; a spec slot is a first-seen
// analytic inline spec. Every point is new, so the result cache never
// hits.
func sweepSchedule(seed uint64, seconds float64) []Op {
	r := newRand(seed, 3)
	window := time.Duration(seconds * float64(time.Second))
	specs := 0
	nextSpec := func() *sim.EvalRequest {
		b := []string{"timely", "prime", "isaac"}[r.IntN(3)]
		specs++
		return &sim.EvalRequest{Backend: b, Spec: genSpec(r, fmt.Sprintf("sweep-%d", specs), specs)}
	}
	// Each network's (γ, images) points, shuffled; networks take turns in
	// a per-round shuffled order.
	points := make([][][2]int, len(sweepNets))
	for n := range points {
		for g := 4; g <= 8; g++ {
			for im := 2; im <= 12; im++ {
				points[n] = append(points[n], [2]int{g, im})
			}
		}
		r.Shuffle(len(points[n]), func(i, j int) { points[n][i], points[n][j] = points[n][j], points[n][i] })
	}
	var round []int
	nextTiming := func() *sim.EvalRequest {
		if len(round) == 0 {
			round = r.Perm(len(sweepNets))
		}
		n := round[0]
		round = round[1:]
		if len(points[n]) == 0 {
			return nextSpec()
		}
		p := points[n][0]
		points[n] = points[n][1:]
		return &sim.EvalRequest{Backend: "timing", Network: sweepNets[n], Gamma: p[0], Images: p[1]}
	}
	used := map[float64]bool{0: true}
	fresh := func(lo, hi float64, digits float64) float64 {
		for {
			v := math.Round((lo+r.Float64()*(hi-lo))*digits) / digits
			if !used[v] {
				used[v] = true
				return v
			}
		}
	}
	var cycle []int
	var ops []Op
	step := time.Second / sweepSlotRate
	pairs := 0
	for due := time.Duration(0); due < window; due += step {
		if len(cycle) == 0 {
			for kind, n := range sweepCycle {
				for i := 0; i < n; i++ {
					cycle = append(cycle, kind)
				}
			}
			r.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
		}
		kind := cycle[0]
		cycle = cycle[1:]
		switch kind {
		case slotTiming:
			ops = append(ops, evalOp(due, 0, nextTiming()))
		case slotPair:
			// The members differ only in seed and are due together, so
			// they gather into one batch group and fuse.
			pairs++
			net, noise, fault := "cnn", (*float64)(nil), (*float64)(nil)
			if pairs%2 == 0 {
				net, noise = "mlp", ptr(fresh(5, 60, 1e4))
			} else {
				fault = ptr(fresh(0.0005, 0.02, 1e6))
			}
			for _, s := range sweepSeeds {
				ops = append(ops, evalOp(due, 0, &sim.EvalRequest{Backend: "functional", Network: net,
					Seed: ptr(s), Trials: sweepTrials, NoisePS: noise, FaultRate: fault}))
			}
		case slotDup:
			req := nextSpec()
			if pairs%2 == 0 {
				req = nextTiming()
			}
			ops = append(ops, evalOp(due, 0, req), evalOp(due, 0, req))
		case slotSpec:
			ops = append(ops, evalOp(due, 0, nextSpec()))
		}
	}
	sortOps(ops)
	return ops
}

func ptr[T any](v T) *T { return &v }

// sortOps orders ops by due time, keeping generation order among equals.
func sortOps(ops []Op) {
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].Due < ops[j].Due })
}
