package timing

import (
	"fmt"

	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/params"
	"repro/internal/pipeline"
)

// Options configures one timing simulation.
type Options struct {
	// Images is the number of images pushed through the pipeline. It is a
	// floor: the builder widens it to cover at least three full rounds of
	// the instance round-robin, so steady-state measurements always span
	// several departures per replicated instance. 0 means DefaultImages.
	Images int
	// MaxBatchesPerImage bounds the wave batches one (layer, image) pair
	// is coalesced into, keeping command counts independent of layer size
	// (an ImageNet conv layer runs tens of thousands of waves). 0 means
	// DefaultMaxBatches. Batching never changes total unit occupancy —
	// only the granularity at which fill/drain overlap is resolved.
	MaxBatchesPerImage int
}

// Default simulation granularity.
const (
	DefaultImages     = 32
	DefaultMaxBatches = 64
)

// StageModel is one inter-sub-chip pipeline stage: a weighted layer, its
// O2IR placement, and its weight-duplication instance count.
type StageModel struct {
	Layer     model.Layer
	Placement mapping.Placement
	// Instances is the weight-duplication count (uniform network
	// replication, mirroring the analytic model's default).
	Instances int
	// WavesPerImage is the pipeline-wave count one instance issues per
	// image (the placement's grid-slot schedule length).
	WavesPerImage int64
	// TransferValues is the 8-bit value count handed to the next stage
	// per image (0 for the last stage).
	TransferValues int64
}

// unitInfo names one exclusive resource of the machine.
type unitInfo struct {
	name     string
	role     Kind
	stage    int32 // weighted-layer stage index; -1 for none
	instance int32 // instance index within the stage; -1 for links
}

// Machine is one network compiled onto the event-driven model: the unit
// table, the full command DAG, and the per-image command anchors the
// latency accounting needs.
type Machine struct {
	Net    *model.Network
	Cfg    params.TimelyConfig
	Cons   Constraints
	Stages []StageModel
	// Fits reports whether one instance of every stage fit the deployment
	// (the analytic model's capacity check; when false the machine still
	// simulates one instance per stage, assuming free weight reloads).
	Fits bool
	// Images is the widened image count actually simulated.
	Images int

	units []unitInfo
	cmds  []Command
	// firstCmd and lastCmd anchor each image's latency: first stage-0
	// input load and final stage output write.
	firstCmd, lastCmd []int32
}

// rolesPerInstance is the intra-pipeline unit count of one stage instance.
const rolesPerInstance = 6

// Build compiles a network onto the timing model through the same
// mapping.Plan the analytic model uses (O2IR placements, uniform weight
// duplication): one unit per (stage, instance, role), and a transfer
// channel per stage boundary per instance — a dedicated LocalLanes-wide
// neighbour channel within a chip, or the source chip's single shared
// HyperLanes-wide HyperTransport port where Plan.CrossesChip holds. Images
// round-robin across each stage's instances, and with uniform duplication
// image i stays on instance i mod dup through the whole pipeline.
func Build(n *model.Network, cfg params.TimelyConfig, opt Options) (*Machine, error) {
	m := &Machine{Net: n, Cfg: cfg, Cons: NewConstraints(cfg)}
	plan := mapping.Lower(n, cfg)
	if len(plan.Placements) == 0 {
		return nil, fmt.Errorf("timing: network %s has no weighted layers", n.Name)
	}
	m.Fits = plan.Fits
	dup := plan.Copies
	for i, p := range plan.Placements {
		s := StageModel{Layer: p.Layer, Placement: p, Instances: dup, WavesPerImage: p.CyclesPerImage}
		if i+1 < len(plan.Placements) {
			s.TransferValues = plan.Placements[i+1].Layer.Inputs() * int64(cfg.InputPasses())
		}
		m.Stages = append(m.Stages, s)
	}

	images := opt.Images
	if images <= 0 {
		images = DefaultImages
	}
	if min := 3 * dup; images < min {
		images = min
	}
	if images < 8 {
		images = 8
	}
	m.Images = images

	batches := opt.MaxBatchesPerImage
	if batches <= 0 {
		batches = DefaultMaxBatches
	}

	// Unit table: per stage instance the six pipeline roles, plus one
	// shared link per stage boundary.
	unitAt := make([][]int32, len(m.Stages)) // [stage][instance*roles+role]
	for si, s := range m.Stages {
		unitAt[si] = make([]int32, s.Instances*rolesPerInstance)
		for inst := 0; inst < s.Instances; inst++ {
			for role := KindInputLoad; role <= KindOutputWrite; role++ {
				unitAt[si][inst*rolesPerInstance+int(role)] = int32(len(m.units))
				m.units = append(m.units, unitInfo{
					name:     fmt.Sprintf("%s#%d/%s", s.Layer.Name, inst, role),
					role:     role,
					stage:    int32(si),
					instance: int32(inst),
				})
			}
		}
	}
	// Transfer channels. A boundary the plan routes across a chip edge
	// rides the source chip's one shared HyperTransport port; all other
	// boundaries get a dedicated per-instance neighbour channel.
	type boundaryLink struct {
		unit  int32
		lanes int64
	}
	htUnit := map[int]int32{} // source chip index → shared HT unit
	links := make([][]boundaryLink, len(m.Stages)-1)
	for si := 0; si+1 < len(m.Stages); si++ {
		links[si] = make([]boundaryLink, dup)
		for c := 0; c < dup; c++ {
			if plan.CrossesChip(si+1, c) {
				start := c*plan.Need + plan.First[si+1]
				srcChip := ((start - 1) / cfg.SubChips) % cfg.Chips
				u, ok := htUnit[srcChip]
				if !ok {
					u = int32(len(m.units))
					m.units = append(m.units, unitInfo{
						name:     fmt.Sprintf("ht:chip%d", srcChip),
						role:     KindTransfer,
						stage:    -1,
						instance: -1,
					})
					htUnit[srcChip] = u
				}
				links[si][c] = boundaryLink{unit: u, lanes: HyperLanes}
			} else {
				u := int32(len(m.units))
				m.units = append(m.units, unitInfo{
					name:     fmt.Sprintf("chan:%s->%s#%d", m.Stages[si].Layer.Name, m.Stages[si+1].Layer.Name, c),
					role:     KindTransfer,
					stage:    int32(si),
					instance: int32(c),
				})
				links[si][c] = boundaryLink{unit: u, lanes: LocalLanes}
			}
		}
	}

	// Command generation, image-major then stage-major so every explicit
	// dependency points backward.
	m.firstCmd = make([]int32, images)
	m.lastCmd = make([]int32, images)
	for img := 0; img < images; img++ {
		prev := None // transfer feeding the current stage
		for si := range m.Stages {
			s := &m.Stages[si]
			inst := img % s.Instances
			units := unitAt[si][inst*rolesPerInstance:]
			waves := s.WavesPerImage
			k := batches
			if waves < int64(k) {
				k = int(waves)
			}
			base, rem := waves/int64(k), waves%int64(k)
			wave0 := int64(0)
			feed := prev // upstream transfer feeding this stage's image
			var lastWrite int32
			for b := 0; b < k; b++ {
				bw := base
				if int64(b) < rem {
					bw++
				}
				dep := feed
				for role := KindInputLoad; role <= KindOutputWrite; role++ {
					idx := int32(len(m.cmds))
					m.cmds = append(m.cmds, Command{
						Kind:  role,
						Unit:  units[int(role)],
						DurPS: bw * m.Cons.PerWavePS[role],
						Dep0:  dep,
						Dep1:  None,
						Stage: int32(si),
						Image: int32(img),
						Wave0: wave0,
						Waves: bw,
					})
					dep = idx
				}
				lastWrite = dep
				if si == 0 && b == 0 {
					m.firstCmd[img] = lastWrite - int32(rolesPerInstance) + 1
				}
				if si+1 < len(m.Stages) {
					// Stream this batch's share of the layer's outputs as
					// soon as its write lands — transfers overlap
					// production instead of trailing the whole layer. The
					// proportional split sums exactly to TransferValues.
					vb := s.TransferValues*(wave0+bw)/waves - s.TransferValues*wave0/waves
					link := links[si][inst]
					idx := int32(len(m.cmds))
					m.cmds = append(m.cmds, Command{
						Kind:  KindTransfer,
						Unit:  link.unit,
						DurPS: m.Cons.TransferPS(vb, link.lanes),
						Dep0:  lastWrite,
						Dep1:  None,
						Stage: int32(si),
						Image: int32(img),
						Wave0: wave0,
						Waves: bw,
					})
					prev = idx
				}
				wave0 += bw
			}
			if si+1 == len(m.Stages) {
				m.lastCmd[img] = lastWrite
			}
		}
	}
	return m, nil
}

// AnalyticCyclesPerImage is the closed-form steady-state bottleneck the
// analytic TIMELY model reports for the same placement and duplication:
// max over stages of waves/instances.
func (m *Machine) AnalyticCyclesPerImage() float64 {
	stages := make([]pipeline.Stage, len(m.Stages))
	inst := make([]int, len(m.Stages))
	for i, s := range m.Stages {
		stages[i] = pipeline.Stage{Name: s.Layer.Name, Work: float64(s.WavesPerImage), MinUnits: s.Placement.SubChips}
		inst[i] = s.Instances
	}
	return pipeline.BottleneckCycles(stages, inst)
}
