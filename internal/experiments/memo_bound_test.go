package experiments_test

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/experiments"
	"repro/sim"
)

// TestFunctionalSeedStreamStaysBounded streams three times the cap of
// distinct Monte-Carlo seeds through the functional backend: the trained
// classifier memo never holds more than its cap, and a seed evicted on
// the way answers again with byte-identical JSON (elapsed_ms aside).
func TestFunctionalSeedStreamStaysBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("trains one classifier per seed")
	}
	eval := func(seed uint64) []byte {
		t.Helper()
		res, err := sim.Evaluate(context.Background(),
			&sim.EvalRequest{Backend: "functional", Network: "mlp", Seed: &seed, Trials: 1})
		if err != nil {
			t.Fatal(err)
		}
		res.ElapsedMS = 0
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	const first = 7001
	want := eval(first)
	for s := uint64(first + 1); s < first+3*experiments.MLPMemoCap; s++ {
		eval(s)
		if n := experiments.MLPMemoLen(); n > experiments.MLPMemoCap {
			t.Fatalf("after seed %d the memo holds %d classifiers, cap %d", s, n, experiments.MLPMemoCap)
		}
	}
	if got := eval(first); string(got) != string(want) {
		t.Errorf("evicted seed answered differently:\n got %s\nwant %s", got, want)
	}
}
