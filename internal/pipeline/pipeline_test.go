package pipeline

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestBalanceMinimum(t *testing.T) {
	stages := []Stage{{"a", 100, 2}, {"b", 50, 3}}
	inst, err := Balance(stages, 5)
	if err != nil {
		t.Fatal(err)
	}
	if inst[0] != 1 || inst[1] != 1 {
		t.Errorf("tight allocation = %v, want [1 1]", inst)
	}
}

func TestBalanceGivesSpareToBottleneck(t *testing.T) {
	stages := []Stage{{"slow", 100, 1}, {"fast", 10, 1}}
	inst, err := Balance(stages, 6)
	if err != nil {
		t.Fatal(err)
	}
	// All 4 spare units should duplicate the slow stage: 100/5 = 20 vs 10.
	if inst[0] != 5 || inst[1] != 1 {
		t.Errorf("allocation = %v, want [5 1]", inst)
	}
	if got := BottleneckCycles(stages, inst); got != 20 {
		t.Errorf("bottleneck = %v, want 20", got)
	}
}

func TestBalanceCapacityError(t *testing.T) {
	_, err := Balance([]Stage{{"a", 1, 10}}, 5)
	if !errors.Is(err, ErrCapacity) {
		t.Errorf("err = %v, want ErrCapacity", err)
	}
}

func TestBalanceRejectsBadStages(t *testing.T) {
	if _, err := Balance(nil, 10); err == nil {
		t.Errorf("empty stage list accepted")
	}
	if _, err := Balance([]Stage{{"a", 1, 0}}, 10); err == nil {
		t.Errorf("zero MinUnits accepted")
	}
	if _, err := Balance([]Stage{{"a", -1, 1}}, 10); err == nil {
		t.Errorf("negative work accepted")
	}
}

func TestBalanceZeroWorkTerminates(t *testing.T) {
	inst, err := Balance([]Stage{{"idle", 0, 1}}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if inst[0] != 1 {
		t.Errorf("zero-work stage replicated: %v", inst)
	}
}

func TestSerialVsBottleneck(t *testing.T) {
	stages := []Stage{{"a", 30, 1}, {"b", 20, 1}, {"c", 50, 1}}
	inst := []int{1, 1, 1}
	if got := SerialCycles(stages, inst); got != 100 {
		t.Errorf("serial = %v, want 100", got)
	}
	if got := BottleneckCycles(stages, inst); got != 50 {
		t.Errorf("bottleneck = %v, want 50", got)
	}
}

func TestThroughput(t *testing.T) {
	// 1000 cycles of 200 ns = 0.2 ms per image = 5000 images/s.
	got := Throughput(1000, 200_000)
	if math.Abs(got-5000) > 1e-9 {
		t.Errorf("throughput = %v, want 5000", got)
	}
	if Throughput(0, 100) != 0 || Throughput(100, 0) != 0 {
		t.Errorf("degenerate throughput must be 0")
	}
}

// Property: Balance never exceeds the unit budget and never starves a stage.
func TestBalanceBudgetProperty(t *testing.T) {
	f := func(works [5]uint8, mins [5]uint8, extra uint8) bool {
		stages := make([]Stage, 5)
		need := 0
		for i := range stages {
			stages[i] = Stage{
				Name:     "s",
				Work:     float64(works[i]) + 1,
				MinUnits: int(mins[i]%4) + 1,
			}
			need += stages[i].MinUnits
		}
		total := need + int(extra)
		inst, err := Balance(stages, total)
		if err != nil {
			return false
		}
		used := 0
		for i, n := range inst {
			if n < 1 {
				return false
			}
			used += n * stages[i].MinUnits
		}
		return used <= total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: granting more hardware never worsens the bottleneck.
func TestBalanceMonotoneProperty(t *testing.T) {
	f := func(works [4]uint8, extraA, extraB uint8) bool {
		stages := make([]Stage, 4)
		for i := range stages {
			stages[i] = Stage{Name: "s", Work: float64(works[i]) + 1, MinUnits: 1}
		}
		lo := 4 + int(extraA%50)
		hi := lo + int(extraB%50)
		iLo, err1 := Balance(stages, lo)
		iHi, err2 := Balance(stages, hi)
		if err1 != nil || err2 != nil {
			return false
		}
		return BottleneckCycles(stages, iHi) <= BottleneckCycles(stages, iLo)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
