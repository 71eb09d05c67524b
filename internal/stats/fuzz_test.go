package stats

import "testing"

// FuzzNormFill: for any seed, trial and pair of split lengths, two
// NormFill calls on either bit source yield exactly the deviates and the
// final generator state of the same number of Norm calls.
func FuzzNormFill(f *testing.F) {
	f.Add(uint64(1), uint32(0), uint16(0), uint16(1), true)
	f.Add(uint64(2020), uint32(3), uint16(7), uint16(9), true)
	f.Add(uint64(5), uint32(1), uint16(3), uint16(4), false)
	f.Add(uint64(1<<63), uint32(1<<31), uint16(1000), uint16(17), true)
	f.Fuzz(func(t *testing.T, seed uint64, trial uint32, n1, n2 uint16, philox bool) {
		mk := func() *RNG { return NewRNG(seed ^ uint64(trial)) }
		if philox {
			mk = func() *RNG { return NewTrialRNG(seed, trial) }
		}
		normFillMatches(t, mk(), mk(), []int{int(n1 % 4096), int(n2 % 4096)})
	})
}

// FuzzPhiloxRefill: for any key, block counter, stream id and trial word,
// one refill computes exactly the four philoxBlock reference blocks.
func FuzzPhiloxRefill(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint32(0), uint32(0))
	f.Add(uint64(0xffffffffffffffff), uint64(0xffffffffffffffff), uint32(0xffffffff), uint32(0xffffffff))
	f.Add(uint64(2020), uint64(0xfffffffe), uint32(1<<24|7), uint32(3))
	f.Fuzz(func(t *testing.T, seed, counter uint64, stream, trial uint32) {
		refillMatchesBlocks(t, [4]uint32{uint32(counter), uint32(counter >> 32), stream, trial},
			[2]uint32{uint32(seed), uint32(seed >> 32)})
	})
}
