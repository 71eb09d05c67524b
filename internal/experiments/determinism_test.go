package experiments

import (
	"bytes"
	"context"
	"testing"
)

// The reproducibility harness of the counter-based trial streams: the full
// experiment suite's rendered output — text AND JSON — must be
// byte-identical at every worker count, the structural claim that keyed
// substreams make parallelism invisible to the results.

// renderAll runs every registered experiment and returns the text and JSON
// artifacts.
func renderAll(t *testing.T, par int) (text, js []byte) {
	t.Helper()
	results := Run(context.Background(), All(), Options{Par: par})
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("par %d: experiment %s failed: %v", par, r.Experiment.ID, r.Err)
		}
	}
	var tb, jb bytes.Buffer
	if err := WriteText(&tb, results); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&jb, results); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), jb.Bytes()
}

// TestFullSuiteDeterministicAcrossPar renders the complete suite at worker
// counts 1, 2 and 8 and diffs the bytes against the serial run. A single
// differing byte means some Monte-Carlo draw escaped its keyed substream.
func TestFullSuiteDeterministicAcrossPar(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the full experiment suite three times; skipped in -short")
	}
	refText, refJSON := renderAll(t, 1)
	if len(refText) == 0 || len(refJSON) == 0 {
		t.Fatal("empty suite render")
	}
	for _, par := range []int{2, 8} {
		text, js := renderAll(t, par)
		if !bytes.Equal(text, refText) {
			t.Errorf("text output at -par %d differs from -par 1 (%d vs %d bytes)", par, len(text), len(refText))
		}
		if !bytes.Equal(js, refJSON) {
			t.Errorf("JSON output at -par %d differs from -par 1 (%d vs %d bytes)", par, len(js), len(refJSON))
		}
	}
}
