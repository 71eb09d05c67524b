// Package pipeline implements the inter-stage pipeline timing model of
// §IV-E: layers mapped to sub-chip (TIMELY) or tile (ISAAC) groups form a
// pipeline whose steady-state throughput is set by the slowest stage, and a
// balanced replicator that spends spare hardware on the bottleneck stages,
// the strategy both TIMELY and ISAAC use for weight duplication (§V).
package pipeline

import (
	"errors"
	"fmt"
)

// Stage is one pipeline stage (usually one layer).
type Stage struct {
	Name string
	// Work is the stage's cycle count per image when granted exactly
	// MinUnits hardware units (one mapped instance).
	Work float64
	// MinUnits is the hardware needed to hold one instance of the stage.
	MinUnits int
}

// ErrCapacity reports that the deployment cannot hold one instance of every
// stage.
var ErrCapacity = errors.New("pipeline: total units below minimum mapping requirement")

// Balance distributes total hardware units over the stages: every stage
// first receives its MinUnits, then spare units go, one instance at a time,
// to the stage with the highest per-unit work (greedy water-filling, the
// weight-duplication strategy of §V). The returned slice holds instance
// counts per stage (allocated units = instances × MinUnits).
func Balance(stages []Stage, total int) ([]int, error) {
	if len(stages) == 0 {
		return nil, errors.New("pipeline: no stages")
	}
	need := 0
	for _, s := range stages {
		if s.MinUnits <= 0 {
			return nil, fmt.Errorf("pipeline: stage %s has non-positive MinUnits", s.Name)
		}
		if s.Work < 0 {
			return nil, fmt.Errorf("pipeline: stage %s has negative work", s.Name)
		}
		need += s.MinUnits
	}
	if total < need {
		return nil, fmt.Errorf("%w: need %d, have %d", ErrCapacity, need, total)
	}
	inst := make([]int, len(stages))
	for i := range stages {
		inst[i] = 1
	}
	spare := total - need
	for {
		// Find the bottleneck stage that can still afford another instance.
		best, bestTime := -1, -1.0
		for i, s := range stages {
			if s.MinUnits > spare {
				continue
			}
			t := s.Work / float64(inst[i])
			if t > bestTime {
				best, bestTime = i, t
			}
		}
		if best < 0 || bestTime == 0 {
			break
		}
		inst[best]++
		spare -= stages[best].MinUnits
	}
	return inst, nil
}

// BottleneckCycles returns the steady-state cycles per image of the
// pipeline: max over stages of Work/instances.
func BottleneckCycles(stages []Stage, instances []int) float64 {
	worst := 0.0
	for i, s := range stages {
		if t := s.Work / float64(instances[i]); t > worst {
			worst = t
		}
	}
	return worst
}

// SerialCycles returns the cycles per image without inter-stage pipelining
// (PRIME's execution model): the sum of per-stage times.
func SerialCycles(stages []Stage, instances []int) float64 {
	s := 0.0
	for i, st := range stages {
		s += st.Work / float64(instances[i])
	}
	return s
}

// Throughput converts a cycles-per-image figure and a cycle time in ps into
// images per second.
func Throughput(cyclesPerImage, cycleTimePS float64) float64 {
	if cyclesPerImage <= 0 || cycleTimePS <= 0 {
		return 0
	}
	return 1e12 / (cyclesPerImage * cycleTimePS)
}
