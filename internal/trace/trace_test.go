package trace

import (
	"testing"
	"testing/quick"
)

// TestIntraFirstWriteAtFifthCycle checks the §IV-E narration: the first
// datum is read at cycle 1 and written back at cycle 5.
func TestIntraFirstWriteAtFifthCycle(t *testing.T) {
	p := IntraPipeline{Items: 10}
	var firstWrite int64
	p.Simulate(func(e Event) {
		if e.Stage == StageWrite && e.Item == 1 && firstWrite == 0 {
			firstWrite = e.Cycle
		}
	})
	if firstWrite != 5 {
		t.Errorf("first write at cycle %d, want 5 (§IV-E)", firstWrite)
	}
}

// TestIntraFifthCycleOccupancy checks the full §IV-E snapshot: "at the
// fifth cycle, the fifth, fourth, third, and second data is read, converted
// by a DTC, computed in the analog-domain, and converted by a TDC".
func TestIntraFifthCycleOccupancy(t *testing.T) {
	var occ [NumStages]int64
	IntraPipeline{Items: 10}.Simulate(func(e Event) {
		if e.Cycle == 5 {
			occ[e.Stage] = e.Item
		}
	})
	want := [NumStages]int64{5, 4, 3, 2, 1}
	if occ != want {
		t.Errorf("cycle-5 occupancy = %v, want %v", occ, want)
	}
}

func TestIntraMakespan(t *testing.T) {
	if got := (IntraPipeline{Items: 1}).Makespan(); got != 5 {
		t.Errorf("single-item makespan = %d, want 5", got)
	}
	if got := (IntraPipeline{Items: 100}).Makespan(); got != 104 {
		t.Errorf("100-item makespan = %d, want 104", got)
	}
	if got := (IntraPipeline{}).Makespan(); got != 0 {
		t.Errorf("empty makespan = %d", got)
	}
}

// TestIntraEventConsistencyProperty: every item visits every stage exactly
// once, in order.
func TestIntraEventConsistencyProperty(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int64(nRaw%50) + 1
		p := IntraPipeline{Items: n}
		visits := make(map[int64][]Stage)
		ok := true
		p.Simulate(func(e Event) {
			seq := visits[e.Item]
			if len(seq) > 0 && seq[len(seq)-1]+1 != e.Stage {
				ok = false
			}
			if len(seq) == 0 && e.Stage != StageRead {
				ok = false
			}
			visits[e.Item] = append(seq, e.Stage)
		})
		if int64(len(visits)) != n {
			return false
		}
		for _, seq := range visits {
			if len(seq) != int(NumStages) {
				return false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestStageString(t *testing.T) {
	if StageRead.String() != "read" || StageWrite.String() != "write" {
		t.Errorf("stage names wrong")
	}
	if Stage(9).String() == "" {
		t.Errorf("out-of-range stage name empty")
	}
}
