package experiments

import (
	"context"

	"repro/internal/report"
)

// Table5Row is one CONV layer's L1 input-read comparison (Table V).
type Table5Row struct {
	Layer string
	// Prime / Timely are the L1 read counts; Saving is 1 − Timely/Prime.
	Prime, Timely, Saving float64
}

// Table5 reproduces Table V: L1 memory accesses for reading inputs over the
// first six CONV layers of VGG-D — PRIME re-reads each input Z·G/S² times,
// O2IR reads it once (88.9 % saved for 3×3/s1 layers).
func Table5() []Table5Row {
	vgg, err := network("VGG-D")
	if err != nil {
		panic(err)
	}
	convs := vgg.ConvLayers()
	var rows []Table5Row
	for i := 0; i < 6; i++ {
		l := convs[i]
		prime := float64(l.Inputs()) * float64(l.Z*l.G) / float64(l.S*l.S)
		timely := float64(l.Inputs())
		rows = append(rows, Table5Row{
			Layer:  l.Name,
			Prime:  prime,
			Timely: timely,
			Saving: 1 - timely/prime,
		})
	}
	return rows
}

func runTable5(context.Context) ([]*report.Table, error) {
	t := report.New("Table V: L1 input reads, VGG-D CONV1-6",
		"layer", "PRIME", "TIMELY", "saved by")
	for _, r := range Table5() {
		t.Add(r.Layer, report.Millions(r.Prime), report.Millions(r.Timely), report.Pct(r.Saving))
	}
	return []*report.Table{t}, nil
}

func init() {
	register(Experiment{
		ID:          "table5",
		Paper:       "Table V",
		Description: "L1 input reads of VGG-D CONV1-6: O2IR vs PRIME",
		Run:         runTable5,
	})
}
