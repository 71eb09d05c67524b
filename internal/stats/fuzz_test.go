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
