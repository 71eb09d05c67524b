package stats

import "fmt"

// The Monte-Carlo trial streams (sampler v3) draw their uniform bits from
// Philox4x32-10 (Salmon, Moraes, Dror & Shaw, "Parallel Random Numbers: As
// Easy as 1, 2, 3", SC'11 — the Random123 reference implementation), a
// keyed bijection on a 128-bit counter. Unlike the serial splitmix64
// stream of NewRNG, any position of a trial stream is computable in O(1)
// from its coordinates alone, so Monte-Carlo substreams can be *keyed* instead of
// *split*: the generator for (seed, trial, grid slot) is constructed
// directly, without consuming or cloning any other stream. That is what
// makes trial-level fan-out byte-stable at any parallelism — worker count
// and materialisation order cannot move a draw from one substream to
// another, because the substream coordinates, not the execution order,
// define every deviate.
//
// Counter layout (32-bit words):
//
//	word 0,1  block counter (low/high) — advances by 1 per 128-bit block
//	word 2    stream id: 0 for the main stream, lane<<24|index for
//	          Substream-derived streams (fault/variation draws per slot)
//	word 3    trial index
//
// The 64-bit study seed is the Philox key. Distinct (seed, trial, stream)
// triples therefore enumerate disjoint counter sets — substreams can never
// overlap, for adjacent trials or any other pair — and each substream
// yields 2^65 uint64s before its block counter wraps. On top of the bit
// source run Ziggurat Gaussians, Lemire bounded Intn and the binomial +
// Floyd fault draws.

// Philox4x32 round constants: the two 32-bit multipliers and the Weyl key
// schedule increments of the reference implementation.
const (
	philoxM0 uint64 = 0xD2511F53
	philoxM1 uint64 = 0xCD9E8D57
	philoxW0 uint32 = 0x9E3779B9
	philoxW1 uint32 = 0xBB67AE85

	philoxRounds = 10
)

// philoxBlock applies the 10-round Philox4x32 bijection to one 128-bit
// counter under a 64-bit key and returns the four 32-bit output words. It
// matches the Random123 reference implementation bit for bit (the
// known-answer tests pin the published vectors), and it is the one-block
// reference both builds of philoxRefill4 are tested against.
func philoxBlock(c [4]uint32, k [2]uint32) [4]uint32 {
	for i := 0; i < philoxRounds; i++ {
		if i > 0 {
			k[0] += philoxW0
			k[1] += philoxW1
		}
		c[0], c[1], c[2], c[3] = philoxRound(c[0], c[1], c[2], c[3], k[0], k[1])
	}
	return c
}

// philoxRound is one Philox4x32 round on counter words c0..c3 under round
// key (k0, k1).
func philoxRound(c0, c1, c2, c3, k0, k1 uint32) (uint32, uint32, uint32, uint32) {
	p0 := philoxM0 * uint64(c0)
	p1 := philoxM1 * uint64(c2)
	return uint32(p1>>32) ^ c1 ^ k0, uint32(p1), uint32(p0>>32) ^ c3 ^ k1, uint32(p0)
}

// philoxInit resets the receiver to the substream (seed, trial, stream):
// Philox key = seed, block counter 0, empty output buffer.
func (r *RNG) philoxInit(seed uint64, trial, stream uint32) {
	*r = RNG{
		philox: true,
		key:    [2]uint32{uint32(seed), uint32(seed >> 32)},
		ctr:    [4]uint32{0, 0, stream, trial},
	}
}

// philoxLanes is the number of consecutive blocks one buffer refill
// computes. Their ten-round chains are independent, so running them side
// by side lets the multiplies of one block overlap the latency of the
// others instead of waiting on a single serial chain. Both builds of
// philoxRefill4 are written out for exactly four lanes.
const philoxLanes = 4

// philoxNext serves the next 64 bits of a trial stream: each 128-bit block
// yields two uint64s (words 0|1 then 2|3), and the block counter in counter
// words 0-1 advances by one as each block starts being served. The buffer
// holds the blocks at counters ctr, ctr+1, ... computed ahead by
// philoxRefill, so the served sequence and the counter are exactly those
// of one philoxBlock call per consumed block.
func (r *RNG) philoxNext() uint64 {
	if r.bufn == 0 {
		r.philoxRefill()
	}
	i := len(r.buf) - int(r.bufn)
	r.bufn--
	if i&1 == 0 {
		r.ctr[0]++
		if r.ctr[0] == 0 {
			r.ctr[1]++
		}
	}
	return r.buf[i]
}

// philoxRefill fills the buffer with the philoxLanes blocks starting at
// the current counter (philoxRefill4: the SSE2 kernel on amd64, the
// interleaved Go rounds elsewhere). It leaves the counter alone:
// philoxNext advances it per consumed block.
func (r *RNG) philoxRefill() {
	philoxRefill4(&r.buf, &r.ctr, &r.key)
	r.bufn = 2 * philoxLanes
}

// NewTrialRNG returns the trial-th substream of the counter-based study
// keyed by seed: the Philox stream with counter coordinates (seed, trial,
// stream 0). Every trial's generator is constructed independently — no
// other stream is consumed or cloned — so a study can evaluate its trials
// in any order, on any number of workers, and every draw is identical to a
// serial run (see the Sampling section of DESIGN.md).
func NewTrialRNG(seed uint64, trial uint32) *RNG {
	r := &RNG{}
	r.philoxInit(seed, trial, 0)
	return r
}

// Substream lanes partition a trial generator's stream-id word so different
// draw purposes on the same (seed, trial) can never collide: the main
// stream (noise draws during compute) is stream id 0, and each
// (lane, index) pair owns the id lane<<24|index.
const (
	// SubstreamLanes is the exclusive upper bound on Substream lane values.
	SubstreamLanes = 1 << 8
	// SubstreamIndexes is the exclusive upper bound on Substream indexes.
	SubstreamIndexes = 1 << 24
)

// Substream returns the (lane, index) substream of a trial generator: a fresh
// generator with the same seed key and trial word, stream id
// lane<<24|index, and its block counter at zero. Lanes must be in
// [1, SubstreamLanes) — lane 0 is the main stream — and indexes in
// [0, SubstreamIndexes). The receiver is not advanced; calling Substream
// any number of times, in any order, returns generators whose streams are
// disjoint from each other and from the receiver's by construction. It
// panics on a NewRNG generator (the serial splitmix64 stream has no
// substream coordinates; check Philox first) or an out-of-range
// lane/index.
func (r *RNG) Substream(lane, index uint32) *RNG {
	if !r.philox {
		panic("stats: Substream on a serial NewRNG generator (substreams need the counter-based trial stream)")
	}
	if lane == 0 || lane >= SubstreamLanes || index >= SubstreamIndexes {
		panic(fmt.Sprintf("stats: Substream(%d, %d) out of range", lane, index))
	}
	sub := &RNG{}
	sub.philoxInit(uint64(r.key[0])|uint64(r.key[1])<<32, r.ctr[3], lane<<24|index)
	return sub
}
