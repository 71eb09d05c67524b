package experiments

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
)

// runGolden renders the given experiments and compares the text artifact
// byte-for-byte against a golden file.
func runGolden(t *testing.T, ids []string, file string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	var exps []Experiment
	for _, id := range ids {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, e)
	}
	var got bytes.Buffer
	if err := WriteText(&got, Run(context.Background(), exps, Options{Par: 1})); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("%v text output differs from %s (%d vs %d bytes);\n"+
			"the artifacts must stay byte-identical — if the change is an intentional\n"+
			"modelling change, regenerate the golden (see comments)",
			ids, file, got.Len(), len(want))
	}
}

// monteCarloIDs are the two Monte-Carlo-heavy experiments; analyticIDs are
// the rest, whose artifacts come from the closed-form models alone.
var (
	monteCarloIDs = []string{"accuracy", "ablation"}
	analyticIDs   = []string{"fig1c", "fig4", "fig5", "fig8a", "fig8b", "fig9",
		"fig10", "fig11", "layers", "table4", "table5"}
)

// TestAnalyticGolden locks every analytic artifact byte-for-byte: a
// parameter or mapping edit that moves any figure or table (the Fig. 8
// geomeans included) shows up here as a diff. Regenerate (only after an
// intentional modelling change) with:
//
//	go run ./cmd/timely fig1c fig4 fig5 fig8a fig8b fig9 fig10 fig11 layers table4 table5 -par 1 \
//	    > internal/experiments/testdata/analytic.golden
func TestAnalyticGolden(t *testing.T) {
	runGolden(t, analyticIDs, "analytic.golden")
}

// TestAccuracyAblationGolden locks the text artifacts of the two
// Monte-Carlo-heavy experiments byte-for-byte (the counter-based sampler
// v3 streams). Regenerate (only after an intentional modelling or stream
// change) with:
//
//	go run ./cmd/timely accuracy ablation -par 1 \
//	    > internal/experiments/testdata/accuracy_ablation.golden
func TestAccuracyAblationGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden run re-trains the accuracy workloads; skipped in -short")
	}
	runGolden(t, monteCarloIDs, "accuracy_ablation.golden")
}
