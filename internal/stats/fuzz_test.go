package stats

import "testing"

// FuzzSamplerVersion hammers the regime parser with arbitrary spellings:
// it must never panic, accept exactly "" (the default) and "v3", reject
// everything else with an error, and the accepted spellings must resolve
// to SamplerV3 and round-trip through String.
func FuzzSamplerVersion(f *testing.F) {
	for _, s := range []string{"", "v1", "v2", "v3", "v4", "V1", "legacy", "2", "v", "v3 ", "default"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		v, err := ParseSamplerVersion(s)
		if accept := s == "" || s == "v3"; (err == nil) != accept {
			t.Fatalf("ParseSamplerVersion(%q) err = %v; want accepted = %v", s, err, accept)
		}
		if err != nil {
			return
		}
		if v.Resolve() != SamplerV3 {
			t.Fatalf("ParseSamplerVersion(%q) resolved to %v, want v3", s, v.Resolve())
		}
		if s != "" {
			if back, err := ParseSamplerVersion(v.String()); err != nil || back != v {
				t.Fatalf("regime %v does not round-trip through String: %v, %v", v, back, err)
			}
		}
	})
}

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
