// Package core is the functional model of the paper's primary contribution:
// a TIMELY sub-chip executing convolutions and fully-connected layers
// through the complete analog time-domain path of Fig. 6 — DTC conversion,
// X-subBuf input propagation, ReRAM crossbar dot products, P-subBuf current
// mirroring, I-adder aggregation across the vertical crossbar stack, the
// two-phase charging + comparator stage (Eq. 2), TDC quantisation and the
// digital shift-and-add recombination — while writing every operation into
// the energy ledger with O2IR access counting (each input read and converted
// exactly once).
//
// The functional executor is validated two ways: in ideal-interface mode
// (wide TDC, no noise) it is bit-exact against the integer reference of
// package tensor; in the 8-bit Table II mode its quantisation error is
// bounded by the per-layer scale, and the accuracy experiment measures the
// end-to-end effect together with injected circuit noise.
//
// Hot-path organisation: crossbars are materialised lazily (a mapped layer
// touches a handful of the 16×12 grid) and every wave reuses a per-sub-chip
// scratch arena instead of allocating. With randomness, device variation or
// IR drop configured, ForwardBatch runs strictly ordered per-wave Compute
// calls through the float flat-conductance kernels of package reram, so RNG
// draw sequences (and therefore artifact bytes) are identical to repeated
// Compute calls. Noise-free on integral crossbars, the datapath is exact
// integer arithmetic — 8-bit DTC codes times integer cell levels, summed
// exactly, quantised by a shift — and ForwardBatch pushes whole input
// blocks through the integer matrix–matrix kernel instead, bit-identical to
// the float path. Where that quantiser is the identity (the 24-bit
// interface) a layer is one integer product with its cached effective
// weights. Sub-chips are not safe for concurrent use.
package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/analog"
	"repro/internal/energy"
	"repro/internal/params"
	"repro/internal/reram"
	"repro/internal/stats"
)

// Options configure a functional sub-chip.
type Options struct {
	// Config selects the architecture geometry and precision.
	Config params.TimelyConfig
	// Noise injects circuit errors; nil is ideal.
	Noise *analog.Noise
	// Ledger receives operation counts; nil disables accounting.
	Ledger *energy.Ledger
	// InterfaceBits overrides the DTC/TDC resolution for the *psum* path
	// (0 keeps the Table II 8 bits). Widening it to ≥ 20 gives the
	// ideal-interface verification mode.
	InterfaceBits int
	// InputHops prepends a cascade of X-subBuf copies to every input before
	// it reaches the first crossbar, modelling a layer mapped at the far end
	// of the horizontal buffer chain (§V limits this cascade to 12; the
	// accuracy study evaluates the worst case).
	InputHops int
}

// pendingInject records a fault-injection pass deferred on a
// not-yet-materialised crossbar: the fault total was already counted, and
// rng is the slot's own keyed substream at block 0, so materialisation
// replays the identical faults independently of the order in which other
// slots were counted or materialised.
type pendingInject struct {
	rate float64
	rng  *stats.RNG
}

// Substream lanes of the noise RNG's trial stream (see stats.Substream):
// lane 0 — the main stream — carries the strictly-ordered noise draws of
// the compute path; stuck-at fault injection and device variation each own
// a lane whose index keys (pass, grid slot), so per-crossbar draws are
// independent of slot iteration and materialisation order.
const (
	laneFaults    = 1
	laneVariation = 2
)

// arena is the per-sub-chip scratch reused across waves: DTC time ladders,
// pre-scaled inputs, per-crossbar column dots, I-adder contributions and the
// layer executors' im2col/psum staging. Buffers only grow; a steady-state
// wave allocates nothing.
type arena struct {
	timesAt  []float64
	scaled   []float64
	colDots  []float64
	contribs []float64
	inputs   []int
	psums    []int
	// codes and dots stage the deterministic path's integer DTC codes and
	// per-crossbar column sums.
	codes []uint8
	dots  []int64
}

// grow resizes buf to n elements, reallocating only on capacity growth.
// Contents are unspecified; callers overwrite every element they read.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// SubChip is the functional model of one TIMELY sub-chip.
type SubChip struct {
	cfg       params.TimelyConfig
	noise     *analog.Noise
	ledger    *energy.Ledger
	ifBits    int
	inputHops int

	// grid holds GridRows × GridCols crossbar slots, row-major; slots stay
	// nil until first touched (most layers use a small corner of the grid).
	grid []*reram.Crossbar
	// irDrop is applied to every crossbar at materialisation.
	irDrop float64
	// pending holds deferred fault injections per slot (nil when none).
	pending [][]pendingInject
	// faultPasses / variationPasses count the completed InjectFaults /
	// ApplyDeviceVariation passes, so repeated passes key fresh substreams
	// instead of replaying the previous pass's draws.
	faultPasses, variationPasses int

	dtc  analog.DTC
	tdc  analog.TDC
	xbuf analog.XSubBuf
	pbuf analog.PSubBuf
	iadd analog.IAdder

	ar arena
}

// NewSubChip builds an erased sub-chip.
func NewSubChip(opt Options) *SubChip {
	cfg := opt.Config
	if cfg.B == 0 {
		cfg = params.DefaultTimely(8)
	}
	ifBits := opt.InterfaceBits
	if ifBits == 0 {
		ifBits = params.DTCBits
	}
	return &SubChip{
		cfg:       cfg,
		noise:     opt.Noise,
		ledger:    opt.Ledger,
		ifBits:    ifBits,
		inputHops: opt.InputHops,
		grid:      make([]*reram.Crossbar, cfg.GridRows*cfg.GridCols),
		dtc:       analog.DTC{Bits: params.DTCBits, TDel: params.TDel},
		tdc:       analog.TDC{Bits: ifBits, TDel: params.TDel},
	}
}

// Config returns the sub-chip's architecture configuration.
func (s *SubChip) Config() params.TimelyConfig { return s.cfg }

// xbar returns the crossbar in grid slot i, materialising it on first touch
// (IR-drop configuration applied, deferred fault injections replayed from
// their RNG snapshots).
func (s *SubChip) xbar(i int) *reram.Crossbar {
	if x := s.grid[i]; x != nil {
		return x
	}
	x := reram.New(s.cfg.B, s.cfg.CellBits)
	if s.irDrop != 0 {
		x.SetIRDrop(s.irDrop)
	}
	if s.pending != nil {
		for _, p := range s.pending[i] {
			if _, err := x.InjectStuckFaults(p.rate, p.rng); err != nil {
				// The rate was validated when the injection was counted.
				panic(err)
			}
		}
		s.pending[i] = nil
	}
	s.grid[i] = x
	return x
}

// Crossbar returns the array at grid position (row, col).
func (s *SubChip) Crossbar(row, col int) *reram.Crossbar {
	return s.xbar(row*s.cfg.GridCols + col)
}

// ApplyDeviceVariation draws per-cell conductance errors on every crossbar,
// each grid slot from its own keyed substream (laneVariation,
// pass·slots+slot) of the noise RNG. Without a noise RNG it does nothing;
// a noise RNG that is not a counter-based trial stream is an error.
func (s *SubChip) ApplyDeviceVariation(sigma float64) error {
	if s.noise == nil || s.noise.RNG == nil {
		return nil
	}
	rng := s.noise.RNG
	if !rng.Philox() {
		return errSerialRNG
	}
	pass := s.variationPasses
	s.variationPasses++
	for i := range s.grid {
		s.xbar(i).ApplyVariation(sigma, rng.Substream(laneVariation, uint32(pass*len(s.grid)+i)))
	}
	return nil
}

// errSerialRNG rejects per-slot draws on a noise RNG without substream
// coordinates (a stats.NewRNG generator).
var errSerialRNG = errors.New("core: fault and variation draws need a counter-based noise RNG (stats.NewTrialRNG)")

// ApplyIRDrop configures wire-resistance attenuation on every crossbar
// (see reram.SetIRDrop). Apply before MapDense so the per-layer scale is
// chosen against the attenuated conductances seen at compute time.
func (s *SubChip) ApplyIRDrop(alpha float64) {
	s.irDrop = alpha
	for _, x := range s.grid {
		if x != nil {
			x.SetIRDrop(alpha)
		}
	}
}

// InjectFaults pins a fraction of every crossbar's cells as stuck-at faults
// (half SA0, half SA1) and returns the total number of stuck cells. Call
// before MapDense: stuck cells ignore later programming, and MapDense reads
// the array back so its per-layer scale covers the faulted conductances.
// Requires a noise RNG.
//
// Each slot draws from the keyed substream (laneFaults, pass·slots+slot)
// of the noise RNG's (seed, trial) coordinates: no slot's draws depend on
// any other slot's and the main noise stream is not advanced at all — the
// property that makes trial-parallel runs byte-stable at any worker count.
// Crossbars not yet materialised only draw their binomial fault count here
// (reram.StuckFaultCount, the first draw of the injection it defers), and
// the physical injection is replayed from the slot's substream if the
// crossbar is touched later, so the returned total and all downstream
// results match an eager injection exactly. A noise RNG that is not a
// counter-based trial stream is an error.
func (s *SubChip) InjectFaults(rate float64) (int, error) {
	if s.noise == nil || s.noise.RNG == nil {
		return 0, fmt.Errorf("core: fault injection needs Options.Noise with an RNG")
	}
	rng := s.noise.RNG
	if !rng.Philox() {
		return 0, errSerialRNG
	}
	pass := s.faultPasses
	total := 0
	cells := s.cfg.B * s.cfg.B
	for i := range s.grid {
		r := rng.Substream(laneFaults, uint32(pass*len(s.grid)+i))
		if x := s.grid[i]; x != nil {
			fm, err := x.InjectStuckFaults(rate, r)
			if err != nil {
				return 0, err
			}
			total += fm.Total()
			continue
		}
		snap := r.Clone()
		n, err := reram.StuckFaultCount(cells, rate, r)
		if err != nil {
			return 0, err
		}
		if s.pending == nil {
			s.pending = make([][]pendingInject, len(s.grid))
		}
		s.pending[i] = append(s.pending[i], pendingInject{rate: rate, rng: snap})
		total += n
	}
	s.faultPasses++
	return total, nil
}

func (s *SubChip) add(c energy.Component, cl energy.Class, n float64) {
	if s.ledger != nil {
		s.ledger.Add(c, cl, n)
	}
}

// armsPerWeight is the differential signed scheme's column-group factor.
const armsPerWeight = 2

// MappedLayer is one weighted layer programmed onto a sub-chip with the
// differential signed scheme: each output channel owns two sub-ranged column
// groups (positive and negative magnitudes).
type MappedLayer struct {
	sc *SubChip
	// Rows is the dot-product depth.
	Rows int
	// D is the output channel count.
	D int
	// ScaleShift is the per-layer power-of-two scale k: one TDC LSB
	// represents 2^k dot units (the per-layer Rmin choice of §IV-C).
	ScaleShift int
	// gridRowsUsed / gridColsUsed: the crossbar grid extent in use.
	gridRowsUsed, gridColsUsed int
	// colsPerArm is the nibble-column count of one magnitude group.
	colsPerArm int
	// physCols is the total bit-cell column count (D·2·colsPerArm).
	physCols int
	// weff caches the effective weights of a lossless layer (see
	// effectiveWeights), row-major Rows × D. weffGen is the crossbar write
	// stamp it was built at (0: never built); a nil weff under a current
	// stamp caches the verdict that the layer's quantiser is not the
	// identity.
	weff    []int
	weffGen uint64
}

// physColsPerWeight returns the physical bit-cell columns one weight
// occupies under the differential scheme.
func (m *MappedLayer) physColsPerWeight() int { return armsPerWeight * m.colsPerArm }

// MapDense programs a dense weight matrix weights[d][r] (signed codes of
// cfg.WeightBits width) onto the sub-chip. rows = len(weights[0]) must fit
// the sub-chip's row capacity and D·2·colsPerArm its column capacity.
func (s *SubChip) MapDense(weights [][]int) (*MappedLayer, error) {
	if len(weights) == 0 || len(weights[0]) == 0 {
		return nil, fmt.Errorf("core: empty weight matrix")
	}
	d, rows := len(weights), len(weights[0])
	cfg := s.cfg
	if rows > cfg.RowCapacity() {
		return nil, fmt.Errorf("core: %d rows exceed sub-chip capacity %d", rows, cfg.RowCapacity())
	}
	colsPerArm := cfg.ColumnsPerWeight()
	physCols := d * armsPerWeight * colsPerArm
	if physCols > cfg.ColCapacity() {
		return nil, fmt.Errorf("core: %d physical columns exceed capacity %d", physCols, cfg.ColCapacity())
	}
	lim := int(1) << (cfg.WeightBits - 1)
	m := &MappedLayer{
		sc:           s,
		Rows:         rows,
		D:            d,
		colsPerArm:   colsPerArm,
		physCols:     physCols,
		gridRowsUsed: (rows + cfg.B - 1) / cfg.B,
		gridColsUsed: (physCols + cfg.B - 1) / cfg.B,
	}
	// Program cells and track the worst-case per-column level sum for the
	// per-layer scale choice.
	maxColSum := 0
	colSums := make([]int, physCols)
	for di, wrow := range weights {
		if len(wrow) != rows {
			return nil, fmt.Errorf("core: ragged weight matrix at channel %d", di)
		}
		for r, w := range wrow {
			if w < -lim || w >= lim {
				return nil, fmt.Errorf("core: weight %d out of %d-bit range", w, cfg.WeightBits)
			}
			mag, arm := w, 0
			if w < 0 {
				mag, arm = -w, 1
			}
			for nib := 0; nib < colsPerArm; nib++ {
				shift := uint(cfg.CellBits * (colsPerArm - 1 - nib))
				level := uint8(mag >> shift & (int(1)<<cfg.CellBits - 1))
				gcol := m.globalCol(di, arm, nib)
				gr, lr := r/cfg.B, r%cfg.B
				gc, lc := gcol/cfg.B, gcol%cfg.B
				xb := s.Crossbar(gr, gc)
				if err := xb.Program(lr, lc, level); err != nil {
					return nil, err
				}
				// Read the actual level back: stuck-at cells keep their
				// pinned value, and the per-layer scale must cover it.
				actual := xb.Level(lr, lc)
				if actual > 0 {
					colSums[gcol] += int(actual)
					if colSums[gcol] > maxColSum {
						maxColSum = colSums[gcol]
					}
				}
			}
		}
	}
	m.ScaleShift = scaleShift(maxColSum, s.ifBits)
	return m, nil
}

// scaleShift is the per-layer scale choice: the largest column dot is
// 255·maxColSum (full-scale inputs into the heaviest column), and one TDC
// LSB covers 2^k dot units with the least k that keeps the charging unit
// from saturating.
func scaleShift(maxColSum, ifBits int) int {
	maxCode := int(1)<<ifBits - 1
	k := 0
	for 255*maxColSum > maxCode<<k {
		k++
	}
	return k
}

func (m *MappedLayer) globalCol(d, arm, nib int) int {
	return (d*armsPerWeight+arm)*m.colsPerArm + nib
}

// chargingUnit returns the layer's psum charging stage (Eq. 2 with the
// per-layer full scale).
func (m *MappedLayer) chargingUnit() analog.ChargingUnit {
	return analog.ChargingUnit{
		FullScale: float64(int(1)<<m.sc.ifBits-1) * float64(int64(1)<<m.ScaleShift),
		CapRatio:  1,
		TDel:      params.TDel,
		Bits:      m.sc.ifBits,
	}
}

// Compute runs one dot-product wave: the input codes (one per row,
// 0..255) flow through the full analog path and the method returns the D
// signed psums in dot units (already rescaled by 2^ScaleShift). Accounting
// covers the wave's crossbar, buffer, charging, TDC, I-adder and shift-add
// operations; input-side L1/DTC costs are counted by the layer executors,
// which own the O2IR reuse schedule.
func (m *MappedLayer) Compute(inputs []int) ([]int, error) {
	if len(inputs) != m.Rows {
		return nil, fmt.Errorf("core: %d inputs for %d mapped rows", len(inputs), m.Rows)
	}
	psums := make([]int, m.D)
	if err := m.computeInto(inputs, psums); err != nil {
		return nil, err
	}
	return psums, nil
}

// computeInto is the allocation-free wave executor behind Compute: the same
// operation — and, with noise configured, RNG draw — sequence as the
// original per-wave path, with the per-column crossbar reads replaced by one
// flat DotColumns pass per crossbar (the dots are deterministic, so hoisting
// them ahead of the mirror/comparator draws changes nothing).
func (m *MappedLayer) computeInto(inputs []int, psums []int) error {
	s := m.sc
	cfg := s.cfg
	rows := m.Rows

	// DTC conversion of the input vector (per-row times), plus the optional
	// input-hop cascade. Energy for these conversions is attributed by the
	// caller (O2IR converts once per input, not once per wave).
	timesAt := grow(&s.ar.timesAt, m.gridColsUsed*rows)
	t0 := timesAt[:rows]
	for i, code := range inputs {
		t, err := s.dtc.Convert(code, s.noise)
		if err != nil {
			return err
		}
		t0[i] = s.xbuf.PropagateChain(t, s.inputHops, s.noise)
	}
	if s.inputHops > 0 {
		s.add(energy.XSubBufOp, energy.ClassInput, float64(s.inputHops*rows))
	}
	// Propagate the times across the grid columns through X-subBufs.
	// timesAt[gc·rows:] holds the signal as seen by grid column gc; column 0
	// sees the DTC outputs directly (Fig. 6(a)).
	for gc := 1; gc < m.gridColsUsed; gc++ {
		prev := timesAt[(gc-1)*rows : gc*rows]
		next := timesAt[gc*rows : (gc+1)*rows]
		for i, t := range prev {
			next[i] = s.xbuf.Propagate(t, s.noise)
		}
		s.add(energy.XSubBufOp, energy.ClassInput, float64(rows))
	}
	s.add(energy.CrossbarOp, energy.ClassCompute, float64(m.gridRowsUsed*m.gridColsUsed))

	// Pre-scale times into code units once per wave (the old path divided by
	// TDel per element *per column*) and gather every used column dot of
	// every crossbar in one row-major kernel pass each.
	scaled := grow(&s.ar.scaled, m.gridColsUsed*rows)
	for i, t := range timesAt {
		scaled[i] = t / params.TDel
	}
	colDots := grow(&s.ar.colDots, m.gridRowsUsed*m.physCols)
	for gr := 0; gr < m.gridRowsUsed; gr++ {
		lo := gr * cfg.B
		hi := lo + cfg.B
		if hi > rows {
			hi = rows
		}
		for gc := 0; gc < m.gridColsUsed; gc++ {
			c0 := gc * cfg.B
			nc := m.physCols - c0
			if nc > cfg.B {
				nc = cfg.B
			}
			s.Crossbar(gr, gc).DotColumns(scaled[gc*rows+lo:gc*rows+hi], 0, nc,
				colDots[gr*m.physCols+c0:gr*m.physCols+c0+nc])
		}
	}

	cu := m.chargingUnit()
	contribs := grow(&s.ar.contribs, m.gridRowsUsed)
	for d := 0; d < m.D; d++ {
		acc := 0
		for arm := 0; arm < armsPerWeight; arm++ {
			armDot := 0
			for nib := 0; nib < m.colsPerArm; nib++ {
				gcol := m.globalCol(d, arm, nib)
				// Gather the column current from every vertical crossbar,
				// each through its own P-subBuf mirror (§V: not cascaded;
				// the bottom crossbar feeds the I-adder directly).
				for gr := 0; gr < m.gridRowsUsed; gr++ {
					dot := colDots[gr*m.physCols+gcol]
					if gr < m.gridRowsUsed-1 {
						dot = s.pbuf.Mirror(dot, s.noise)
					}
					contribs[gr] = dot
				}
				if n := m.gridRowsUsed - 1; n > 0 {
					s.add(energy.PSubBufOp, energy.ClassPsum, float64(n))
				}
				total := s.iadd.Sum(contribs...)
				s.add(energy.IAdderOp, energy.ClassPsum, 1)
				code := s.tdc.Convert(cu.Output(total, s.noise), s.noise)
				s.add(energy.ChargingOp, energy.ClassPsum, 1)
				s.add(energy.TDCConv, energy.ClassPsum, 1)
				armDot = armDot<<uint(cfg.CellBits) + code
			}
			if arm == 0 {
				acc += armDot
			} else {
				acc -= armDot
			}
		}
		psums[d] = acc << uint(m.ScaleShift)
		// Digital recombination: one shift-and-add per column sample.
		s.add(energy.ShiftAddOp, energy.ClassDigital, float64(m.physColsPerWeight()))
	}
	return nil
}

// ForwardBatch runs nvec input vectors (flat, vector-major: vector v at
// inputs[v·Rows : (v+1)·Rows]) through the analog path, writing the signed
// psums to out[v·D : (v+1)·D]. It amortises the sub-chip's scratch arena —
// and, when the noise configuration is deterministic, whole blocks of waves
// through the matrix–matrix crossbar kernel — across the batch. With
// randomness configured the waves execute strictly in order, so the RNG draw
// sequence (and every result) is identical to nvec successive Compute calls.
func (m *MappedLayer) ForwardBatch(inputs []int, nvec int, out []int) error {
	if nvec < 0 || len(inputs) != nvec*m.Rows {
		return fmt.Errorf("core: %d batched inputs for %d waves of %d mapped rows",
			len(inputs), nvec, m.Rows)
	}
	if len(out) != nvec*m.D {
		return fmt.Errorf("core: batch output %d for %d waves of %d channels",
			len(out), nvec, m.D)
	}
	if m.BatchDeterministic() {
		return m.forwardBatchDet(inputs, nvec, out)
	}
	for v := 0; v < nvec; v++ {
		if err := m.computeInto(inputs[v*m.Rows:(v+1)*m.Rows], out[v*m.D:(v+1)*m.D]); err != nil {
			return err
		}
	}
	return nil
}

// BatchDeterministic reports whether this mapped layer's batched forward
// path is bit-identical regardless of batch composition: a deterministic
// noise configuration (every sigma zero, no RNG consumed), zero-INL
// interfaces (always true for SubChip-built converters; checked so a
// future nonlinearity knob cannot silently change results) and integral
// crossbars (no device variation, no IR drop), so every dot is an exact
// integer. When false, waves run through the per-wave Compute path: they
// may draw from a shared RNG stream, so reordering inputs across layers or
// batches would change the draws — callers must keep per-input order.
func (m *MappedLayer) BatchDeterministic() bool {
	s := m.sc
	if !s.noise.Deterministic() || s.tdc.INL != 0 || s.dtc.INL != 0 {
		return false
	}
	for gr := 0; gr < m.gridRowsUsed; gr++ {
		for gc := 0; gc < m.gridColsUsed; gc++ {
			if !s.Crossbar(gr, gc).Integral() {
				return false
			}
		}
	}
	return true
}

// batchBlock bounds the scratch footprint of the deterministic batched
// path: waves are processed in blocks of this many input vectors.
const batchBlock = 64

// quantiser is the noise-free charging + TDC stage in integer form. An
// integer column total maps to round(total / 2^shift), halves away from
// zero, clamped to the interface's largest code — what the float
// expression TDC.Convert(ChargingUnit.Output(total)) yields for every total
// the 8- and 24-bit interfaces can produce, ties included (at 24 bits the
// shift is 0 and no tie exists). TestQuantiserExhaustive checks every one.
type quantiser struct {
	shift         uint
	half, maxCode int64
}

func (m *MappedLayer) quantiser() quantiser {
	q := quantiser{shift: uint(m.ScaleShift), maxCode: int64(m.chargingUnit().MaxCode())}
	if m.ScaleShift > 0 {
		q.half = int64(1) << (m.ScaleShift - 1)
	}
	return q
}

// code quantises a non-negative integer column total.
func (q *quantiser) code(total int64) int {
	return int(min((total+q.half)>>q.shift, q.maxCode))
}

// forwardBatchDet is the deterministic ForwardBatch fast path, exact
// integer arithmetic end to end: with integral crossbars and no noise an
// 8-bit DTC code times an integer level is an integer, the X-subBuf copies
// and P-subBuf mirrors are identities, and the I-adder sum of the column
// totals is exact in any order. A lossless layer (effectiveWeights) folds
// the whole datapath into one integer product with its effective weights;
// any other layer runs the blocked integer kernel (reram.DotLevelsBatch)
// for every crossbar's column sums, adds the grid rows in int64 and maps
// each total to the code the float charging + TDC stage would produce.
// Either way the psums are bit-identical to per-wave execution.
func (m *MappedLayer) forwardBatchDet(inputs []int, nvec int, out []int) error {
	s := m.sc
	rows, d := m.Rows, m.D
	weff := m.effectiveWeights()
	dtcLevels := s.dtc.Levels()
	for base := 0; base < nvec; base += batchBlock {
		n := min(nvec-base, batchBlock)
		// DTC conversion: without noise or INL the delay is the code
		// itself in TDel units, whichever grid column it reaches. The DTC
		// has params.DTCBits = 8 bits, so every valid code fits a uint8.
		in := inputs[base*rows : (base+n)*rows]
		codes := grow(&s.ar.codes, len(in))
		for i, code := range in {
			if code < 0 || code >= dtcLevels {
				return fmt.Errorf("analog: DTC code %d out of [0,%d)", code, dtcLevels)
			}
			codes[i] = uint8(code)
		}
		o := out[base*d : (base+n)*d]
		if weff != nil {
			m.gemm(codes, n, weff, o)
		} else {
			m.quantiseBlock(codes, n, o)
		}
		// Ledger accounting, aggregated to the same totals n per-wave
		// Computes would produce (all counts are integral, so the float
		// sums are exact regardless of grouping).
		if s.ledger != nil {
			fn := float64(n)
			if s.inputHops > 0 {
				s.add(energy.XSubBufOp, energy.ClassInput, fn*float64(s.inputHops*rows))
			}
			if m.gridColsUsed > 1 {
				s.add(energy.XSubBufOp, energy.ClassInput, fn*float64((m.gridColsUsed-1)*rows))
			}
			s.add(energy.CrossbarOp, energy.ClassCompute, fn*float64(m.gridRowsUsed*m.gridColsUsed))
			groups := fn * float64(d*armsPerWeight*m.colsPerArm)
			if m.gridRowsUsed > 1 {
				s.add(energy.PSubBufOp, energy.ClassPsum, groups*float64(m.gridRowsUsed-1))
			}
			s.add(energy.IAdderOp, energy.ClassPsum, groups)
			s.add(energy.ChargingOp, energy.ClassPsum, groups)
			s.add(energy.TDCConv, energy.ClassPsum, groups)
			s.add(energy.ShiftAddOp, energy.ClassDigital, fn*float64(d*m.physColsPerWeight()))
		}
	}
	return nil
}

// quantiseBlock computes n waves' psums through the charging + TDC stage:
// one DotLevelsBatch call per crossbar for the whole block, the grid rows'
// column sums folded by the I-adder, then a quantised code per column and
// the shift-and-add recombination of the nibble columns and arms.
func (m *MappedLayer) quantiseBlock(codes []uint8, n int, out []int) {
	s := m.sc
	cfg := s.cfg
	rows := m.Rows
	q := m.quantiser()
	// Layout: dots[(gr·n + v)·physCols + gcol].
	dots := grow(&s.ar.dots, m.gridRowsUsed*n*m.physCols)
	for gr := 0; gr < m.gridRowsUsed; gr++ {
		lo := gr * cfg.B
		hi := min(lo+cfg.B, rows)
		for gc := 0; gc < m.gridColsUsed; gc++ {
			c0 := gc * cfg.B
			nc := min(m.physCols-c0, cfg.B)
			s.Crossbar(gr, gc).DotLevelsBatch(codes[lo:], n, rows, hi-lo, nc,
				dots[gr*n*m.physCols+c0:], m.physCols)
		}
	}
	// I-adder: fold the lower grid rows' sums into grid row 0. Then
	// quantise and recombine; globalCol numbers the columns channel-major,
	// arm, nibble, so one linear walk visits them in recombination order.
	for v := 0; v < n; v++ {
		totals := dots[v*m.physCols : (v+1)*m.physCols]
		for gr := 1; gr < m.gridRowsUsed; gr++ {
			lower := dots[(gr*n+v)*m.physCols : (gr*n+v+1)*m.physCols]
			for g, t := range lower[:len(totals)] {
				totals[g] += t
			}
		}
		o := out[v*m.D : (v+1)*m.D]
		for di := range o {
			acc := 0
			for arm := 0; arm < armsPerWeight; arm++ {
				armDot := 0
				for _, total := range totals[:m.colsPerArm] {
					armDot = armDot<<uint(cfg.CellBits) + q.code(total)
				}
				totals = totals[m.colsPerArm:]
				if arm == 0 {
					acc += armDot
				} else {
					acc -= armDot
				}
			}
			o[di] = acc << uint(m.ScaleShift)
		}
	}
}

// gemm computes n waves' psums as one integer matrix product with the
// layer's effective weights: out[v·D + d] = Σ_r codes[v·Rows + r]·weff[r·D + d].
// Four weight rows share each pass over a psum vector; integer sums are
// exact, so the grouping is free.
func (m *MappedLayer) gemm(codes []uint8, n int, weff []int, out []int) {
	rows, d := m.Rows, m.D
	for v := 0; v < n; v++ {
		o := out[v*d : (v+1)*d]
		clear(o)
		cv := codes[v*rows : (v+1)*rows]
		r := 0
		for ; r+4 <= rows; r += 4 {
			c0, c1, c2, c3 := int(cv[r]), int(cv[r+1]), int(cv[r+2]), int(cv[r+3])
			if c0|c1|c2|c3 == 0 {
				continue
			}
			w0 := weff[r*d : (r+1)*d][:len(o)]
			w1 := weff[(r+1)*d : (r+2)*d][:len(o)]
			w2 := weff[(r+2)*d : (r+3)*d][:len(o)]
			w3 := weff[(r+3)*d : (r+4)*d][:len(o)]
			for j := range o {
				o[j] += c0*w0[j] + c1*w1[j] + c2*w2[j] + c3*w3[j]
			}
		}
		for ; r < rows; r++ {
			c := int(cv[r])
			if c == 0 {
				continue
			}
			w := weff[r*d : (r+1)*d][:len(o)]
			for j, wj := range w {
				o[j] += c * wj
			}
		}
	}
}

// effectiveWeights returns the layer's effective-weight matrix when its
// charging + TDC stage is provably the identity, and nil otherwise. That
// holds when ScaleShift is 0 (one TDC LSB is one dot unit, so the quantiser
// neither scales nor rounds) and no column total can reach the clamp:
// 255·Σ levels ≤ maxCode for every column the layer reads, checked on the
// read-back levels, stuck-at cells included. Then every column code equals
// its exact total, and the shift-and-add of the nibble columns and arms
// is linear, so psum[d] = Σ_r code[r]·Weff[r][d] with
// Weff[r][d] = Σ_arm ±Σ_nib level << CellBits·(colsPerArm−1−nib), the
// signed weight as actually programmed.
//
// The matrix (or the verdict that the layer is lossy) is cached and
// rebuilt whenever a crossbar the layer reads has been written since:
// the cache is keyed by the sum of their write generations, which only
// grow, so any Program, fault injection, variation or IR-drop change
// moves it.
func (m *MappedLayer) effectiveWeights() []int {
	if m.ScaleShift != 0 {
		return nil
	}
	s := m.sc
	cfg := s.cfg
	stamp := uint64(1)
	for gr := 0; gr < m.gridRowsUsed; gr++ {
		for gc := 0; gc < m.gridColsUsed; gc++ {
			stamp += s.Crossbar(gr, gc).Generation()
		}
	}
	if stamp == m.weffGen {
		return m.weff
	}
	m.weffGen = stamp
	m.weff = nil
	weff := make([]int, m.Rows*m.D)
	colSums := grow(&s.ar.dots, m.physCols)
	clear(colSums)
	for r := 0; r < m.Rows; r++ {
		gr, lr := r/cfg.B, r%cfg.B
		for d := 0; d < m.D; d++ {
			w := 0
			for arm := 0; arm < armsPerWeight; arm++ {
				mag := 0
				for nib := 0; nib < m.colsPerArm; nib++ {
					gcol := m.globalCol(d, arm, nib)
					level := int(s.Crossbar(gr, gcol/cfg.B).Level(lr, gcol%cfg.B))
					colSums[gcol] += int64(level)
					mag = mag<<uint(cfg.CellBits) + level
				}
				if arm == 0 {
					w += mag
				} else {
					w -= mag
				}
			}
			weff[r*m.D+d] = w
		}
	}
	// The largest total a column can reach is 255 times its level sum.
	maxCode := int64(m.chargingUnit().MaxCode())
	for _, cs := range colSums {
		if 255*cs > maxCode {
			return nil
		}
	}
	m.weff = weff
	return weff
}

// AppendLevels appends to dst the programmed level of every cell the layer
// reads — its rows × physical columns over the used crossbar grid, grid row
// by grid row — and returns the extended slice. While BatchDeterministic
// holds, the layer's psums are a pure function of these levels (its
// ScaleShift derives from them too), so two layers mapped from the same
// weights under the same options with equal level strings compute the same
// result on every input.
func (m *MappedLayer) AppendLevels(dst []byte) []byte {
	cfg := m.sc.cfg
	for gr := 0; gr < m.gridRowsUsed; gr++ {
		lo := gr * cfg.B
		hi := min(lo+cfg.B, m.Rows)
		for gc := 0; gc < m.gridColsUsed; gc++ {
			nc := min(m.physCols-gc*cfg.B, cfg.B)
			x := m.sc.Crossbar(gr, gc)
			for r := 0; r < hi-lo; r++ {
				for c := 0; c < nc; c++ {
					dst = append(dst, x.Level(r, c))
				}
			}
		}
	}
	return dst
}

// QuantizationBound returns the worst-case absolute psum error of one wave
// from TDC rounding alone (noise-free): each of the 2·colsPerArm column
// codes rounds within ±½ LSB of 2^ScaleShift dot units, weighted by its
// nibble significance.
func (m *MappedLayer) QuantizationBound() float64 {
	weightSum := 0.0
	for nib := 0; nib < m.colsPerArm; nib++ {
		weightSum += math.Pow(2, float64(m.sc.cfg.CellBits*(m.colsPerArm-1-nib)))
	}
	return float64(armsPerWeight) * weightSum * 0.5 * float64(int64(1)<<m.ScaleShift)
}

// ScaleBits reports how many low bits of a psum are below the quantisation
// floor (useful for choosing requantisation shifts).
func (m *MappedLayer) ScaleBits() int {
	return m.ScaleShift + bits.Len(uint(armsPerWeight*m.colsPerArm)) - 1
}
