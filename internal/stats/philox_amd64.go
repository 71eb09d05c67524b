//go:build amd64 && !purego

package stats

// philoxRefill4 writes the four Philox blocks at counters ctr, ctr+1,
// ctr+2, ctr+3 (64-bit block counter in words 0-1, stream and trial words
// unchanged) to buf, each block as two uint64s (words 0|1, then 2|3). It
// is the SSE2 kernel of philox_amd64.s; SSE2 is the amd64 baseline, so
// there is no feature check. philox_generic.go holds the portable build.
//
//go:noescape
func philoxRefill4(buf *[2 * philoxLanes]uint64, ctr *[4]uint32, key *[2]uint32)
