//go:build !amd64 || purego

package stats

// philoxRefill4 writes the four Philox blocks at counters ctr, ctr+1,
// ctr+2, ctr+3 (64-bit block counter in words 0-1, stream and trial words
// unchanged) to buf, each block as two uint64s (words 0|1, then 2|3). This
// is the portable build: the four ten-round chains are independent, so
// they are written out side by side and the multiplies of one block
// overlap the latency of the others. amd64 runs the SSE2 kernel in
// philox_amd64.s instead.
func philoxRefill4(buf *[2 * philoxLanes]uint64, ctr *[4]uint32, key *[2]uint32) {
	n := uint64(ctr[0]) | uint64(ctr[1])<<32
	s, t := ctr[2], ctr[3]
	a0, a1, a2, a3 := uint32(n), uint32(n>>32), s, t
	n++
	b0, b1, b2, b3 := uint32(n), uint32(n>>32), s, t
	n++
	c0, c1, c2, c3 := uint32(n), uint32(n>>32), s, t
	n++
	d0, d1, d2, d3 := uint32(n), uint32(n>>32), s, t
	k0, k1 := key[0], key[1]
	for i := 0; i < philoxRounds; i++ {
		if i > 0 {
			k0 += philoxW0
			k1 += philoxW1
		}
		a0, a1, a2, a3 = philoxRound(a0, a1, a2, a3, k0, k1)
		b0, b1, b2, b3 = philoxRound(b0, b1, b2, b3, k0, k1)
		c0, c1, c2, c3 = philoxRound(c0, c1, c2, c3, k0, k1)
		d0, d1, d2, d3 = philoxRound(d0, d1, d2, d3, k0, k1)
	}
	*buf = [2 * philoxLanes]uint64{
		uint64(a0) | uint64(a1)<<32, uint64(a2) | uint64(a3)<<32,
		uint64(b0) | uint64(b1)<<32, uint64(b2) | uint64(b3)<<32,
		uint64(c0) | uint64(c1)<<32, uint64(c2) | uint64(c3)<<32,
		uint64(d0) | uint64(d1)<<32, uint64(d2) | uint64(d3)<<32,
	}
}
