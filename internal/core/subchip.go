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
// scratch arena instead of allocating. Every cell conductance is its
// integer level, so the noise-free and noisy paths differ in one respect
// only: whether a wave draws. With randomness configured, ForwardBatch runs
// strictly ordered per-wave Compute calls through the float kernels of
// package reram, so RNG draw sequences (and therefore artifact bytes) are
// identical to repeated Compute calls; each such wave draws all its
// Gaussian deviates in one bulk fill before it runs, because their number
// depends on the sigmas and the layer's shape alone; ComputeLockstep shares
// one such fill among layers that draw the same count from one stream.
// Noise-free, the datapath is exact integer arithmetic — 8-bit DTC codes
// times integer cell levels, summed exactly, quantised by a shift — and
// ForwardBatch pushes whole input blocks through the integer matrix–matrix
// kernel instead, bit-identical to the float path. Where that quantiser is
// the identity (the 24-bit interface) a layer is one integer product with
// its cached effective weights. Sub-chips are not safe for concurrent use.
package core

import (
	"errors"
	"fmt"
	"math"

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

// laneFaults is the substream lane of the noise RNG's trial stream (see
// stats.Substream) that stuck-at fault injection draws from. Lane 0 — the
// main stream — carries the strictly-ordered noise draws of the compute
// path; the fault lane's index keys (pass, grid slot), so per-crossbar
// draws are independent of slot iteration and materialisation order.
const laneFaults = 1

// arena is the per-sub-chip scratch reused across waves: DTC time ladders,
// pre-scaled inputs, per-crossbar column dots, a noisy wave's drawn
// deviates and the layer executors' im2col/psum staging. Buffers only grow;
// a steady-state wave allocates nothing.
type arena struct {
	timesAt []float64
	scaled  []float64
	colDots []float64
	devs    []float64
	inputs  []int
	psums   []int
	// codes stages range-checked 8-bit DTC codes; dots the deterministic
	// path's per-crossbar integer column sums.
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
	// pending holds deferred fault injections per slot (nil when none).
	pending [][]pendingInject
	// faultPasses counts the completed InjectFaults passes, so repeated
	// passes key fresh substreams instead of replaying the previous pass's
	// draws.
	faultPasses int

	dtc  analog.DTC
	tdc  analog.TDC
	xbuf analog.XSubBuf
	pbuf analog.PSubBuf

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

// xbar returns the crossbar in grid slot i, materialising it on first touch
// (deferred fault injections replayed from their RNG snapshots).
func (s *SubChip) xbar(i int) *reram.Crossbar {
	if x := s.grid[i]; x != nil {
		return x
	}
	x := reram.New(s.cfg.B, s.cfg.CellBits)
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

// errSerialRNG rejects per-slot fault draws on a noise RNG without
// substream coordinates (a stats.NewRNG generator).
var errSerialRNG = errors.New("core: fault draws need a counter-based noise RNG (stats.NewTrialRNG)")

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
	codes, err := m.sc.dtcCodes(inputs)
	if err != nil {
		return nil, err
	}
	psums := make([]int, m.D)
	m.computeInto(codes, psums)
	return psums, nil
}

// dtcCodes checks that every input is a code of the sub-chip's DTC and
// stages them as bytes in the arena. Nothing is drawn or counted before the
// check, so a rejected input leaves the noise stream and the ledger as they
// were.
func (s *SubChip) dtcCodes(inputs []int) ([]uint8, error) {
	if err := s.checkCodes(inputs); err != nil {
		return nil, err
	}
	return s.stageCodes(inputs), nil
}

// checkCodes returns the DTC's range error for the first input that is not
// one of its codes.
func (s *SubChip) checkCodes(inputs []int) error {
	levels := s.dtc.Levels()
	for _, code := range inputs {
		if code < 0 || code >= levels {
			return fmt.Errorf("analog: DTC code %d out of [0,%d)", code, levels)
		}
	}
	return nil
}

// stageCodes copies checked inputs into the arena as bytes.
func (s *SubChip) stageCodes(inputs []int) []uint8 {
	codes := grow(&s.ar.codes, len(inputs))
	for i, code := range inputs {
		codes[i] = uint8(code)
	}
	return codes
}

// sigmas are the error sigmas a wave draws at: the noise configuration's,
// or all zero when there is no noise or no RNG to draw from.
type sigmas struct{ dtc, x, p, c, tdc float64 }

func (s *SubChip) sigmas() sigmas {
	n := s.noise
	if n == nil || n.RNG == nil {
		return sigmas{}
	}
	return sigmas{n.DTCSigma, n.XSubBufSigma, n.PSubBufRelSigma, n.ComparatorSigma, n.TDCSigma}
}

// drawn is 1 when a block with this sigma draws a deviate per use, else 0.
func drawn(sigma float64) int {
	if sigma != 0 {
		return 1
	}
	return 0
}

// deviates is the number of Gaussian deviates one wave draws: a DTC jitter
// and hops X-subBuf errors per row, an X-subBuf error per row for every
// further grid column, and per physical column a P-subBuf gain error for
// every grid row but the bottom one, a comparator and a TDC jitter. It
// depends on the sigmas and the layer's shape alone, never on the data.
func (m *MappedLayer) deviates(sg sigmas) int {
	hops := max(m.sc.inputHops, 0)
	dx := drawn(sg.x)
	return m.Rows*(drawn(sg.dtc)+hops*dx) + (m.gridColsUsed-1)*m.Rows*dx +
		m.physCols*((m.gridRowsUsed-1)*drawn(sg.p)+drawn(sg.c)+drawn(sg.tdc))
}

// errTerms hands out a wave's pre-drawn deviates in draw order as the error
// terms of the blocks that use them.
type errTerms struct {
	z []float64
	i int
}

// next returns the error term of a block with this sigma: the next deviate
// scaled by it, or 0 without consuming one when the sigma is zero.
func (e *errTerms) next(sigma float64) float64 {
	if sigma == 0 {
		return 0
	}
	z := e.z[e.i]
	e.i++
	return analog.ErrorTerm(sigma, z)
}

// computeInto is the one wave executor for every noise configuration: it
// draws the wave's deviates, then applies them.
func (m *MappedLayer) computeInto(codes []uint8, psums []int) {
	sg := m.sc.sigmas()
	m.apply(codes, psums, sg, m.draw(sg))
}

// draw is a wave's draw step. The number of deviates a wave draws depends
// only on the sigmas and the layer's shape, so it draws them all at once,
// in one NormFill into the arena, and returns them; with zero sigmas
// nothing is drawn.
func (m *MappedLayer) draw(sg sigmas) []float64 {
	z := grow(&m.sc.ar.devs, m.deviates(sg))
	if len(z) > 0 {
		m.sc.noise.RNG.NormFill(z)
	}
	return z
}

// apply is a wave's apply step: it runs codes through the analog path with
// the drawn deviates z (deviates(sg) of them) and writes the psums. It uses
// them in the order the blocks do: per row the DTC jitter then the
// input-hop errors, then the X-subBuf errors of each further grid column,
// then per physical column (channel, arm, nibble) the P-subBuf gain errors
// top to bottom, the comparator and the TDC jitter. That is the order one
// Norm call per block use would draw them, so the psums are those of a
// draw-per-block executor. The per-column crossbar reads are one flat
// DotColumns pass per crossbar (the dots are deterministic, so hoisting
// them ahead of the mirror and comparator changes nothing). codes are
// valid DTC codes.
func (m *MappedLayer) apply(codes []uint8, psums []int, sg sigmas, z []float64) {
	s := m.sc
	cfg := s.cfg
	rows := m.Rows
	errs := errTerms{z: z}

	// DTC conversion of the input vector (per-row times), plus the optional
	// input-hop cascade. Energy for these conversions is attributed by the
	// caller (O2IR converts once per input, not once per wave). An 8-bit
	// code is always in the DTC's range.
	timesAt := grow(&s.ar.timesAt, m.gridColsUsed*rows)
	t0 := timesAt[:rows]
	for i, code := range codes {
		t, _ := s.dtc.Convert(int(code), errs.next(sg.dtc))
		for h := 0; h < s.inputHops; h++ {
			t = s.xbuf.Propagate(t, errs.next(sg.x))
		}
		t0[i] = t
	}
	// Propagate the times across the grid columns through X-subBufs.
	// timesAt[gc·rows:] holds the signal as seen by grid column gc; column 0
	// sees the DTC outputs directly (Fig. 6(a)).
	for gc := 1; gc < m.gridColsUsed; gc++ {
		prev := timesAt[(gc-1)*rows : gc*rows]
		next := timesAt[gc*rows : (gc+1)*rows]
		for i, t := range prev {
			next[i] = s.xbuf.Propagate(t, errs.next(sg.x))
		}
	}

	// Pre-scale times into code units once per wave and gather every used
	// column dot of every crossbar in one row-major kernel pass each.
	scaled := grow(&s.ar.scaled, m.gridColsUsed*rows)
	for i, t := range timesAt {
		scaled[i] = t / params.TDel
	}
	colDots := grow(&s.ar.colDots, m.gridRowsUsed*m.physCols)
	for gr := 0; gr < m.gridRowsUsed; gr++ {
		lo := gr * cfg.B
		hi := min(lo+cfg.B, rows)
		for gc := 0; gc < m.gridColsUsed; gc++ {
			c0 := gc * cfg.B
			nc := min(m.physCols-c0, cfg.B)
			s.Crossbar(gr, gc).DotColumns(scaled[gc*rows+lo:gc*rows+hi], 0, nc,
				colDots[gr*m.physCols+c0:gr*m.physCols+c0+nc])
		}
	}

	// Per column: gather the current from every vertical crossbar, each
	// through its own P-subBuf mirror (§V: not cascaded; the bottom
	// crossbar feeds the I-adder directly), sum in grid-row order, then
	// charge, compare and convert. globalCol numbers the columns channel,
	// arm, nibble, so one linear walk visits them in recombination order.
	cu := m.chargingUnit()
	last := m.gridRowsUsed - 1
	gcol := 0
	for d := range psums {
		acc := 0
		for arm := 0; arm < armsPerWeight; arm++ {
			armDot := 0
			for nib := 0; nib < m.colsPerArm; nib++ {
				total := 0.0
				for gr := 0; gr < last; gr++ {
					total += s.pbuf.Mirror(colDots[gr*m.physCols+gcol], errs.next(sg.p))
				}
				total += colDots[last*m.physCols+gcol]
				ec := errs.next(sg.c)
				et := errs.next(sg.tdc)
				armDot = armDot<<uint(cfg.CellBits) + s.tdc.Convert(cu.Output(total, ec), et)
				gcol++
			}
			if arm == 0 {
				acc += armDot
			} else {
				acc -= armDot
			}
		}
		psums[d] = acc << uint(m.ScaleShift)
	}
	m.countWaves(1)
}

// countWaves adds the ledger counts of n waves: the X-subBuf hops, the
// crossbar activations, per column sample its P-subBuf mirrors, I-adder,
// charging and TDC operations, and the digital shift-and-add per sample.
// Every count is integral, so the float sums are exact in any grouping and
// one call per block of waves totals what one call per wave would.
func (m *MappedLayer) countWaves(n int) {
	s := m.sc
	if s.ledger == nil {
		return
	}
	fn := float64(n)
	if s.inputHops > 0 {
		s.add(energy.XSubBufOp, energy.ClassInput, fn*float64(s.inputHops*m.Rows))
	}
	if m.gridColsUsed > 1 {
		s.add(energy.XSubBufOp, energy.ClassInput, fn*float64((m.gridColsUsed-1)*m.Rows))
	}
	s.add(energy.CrossbarOp, energy.ClassCompute, fn*float64(m.gridRowsUsed*m.gridColsUsed))
	samples := fn * float64(m.physCols)
	if m.gridRowsUsed > 1 {
		s.add(energy.PSubBufOp, energy.ClassPsum, samples*float64(m.gridRowsUsed-1))
	}
	s.add(energy.IAdderOp, energy.ClassPsum, samples)
	s.add(energy.ChargingOp, energy.ClassPsum, samples)
	s.add(energy.TDCConv, energy.ClassPsum, samples)
	s.add(energy.ShiftAddOp, energy.ClassDigital, samples)
}

// ForwardBatch runs nvec input vectors (flat, vector-major: vector v at
// inputs[v·Rows : (v+1)·Rows]) through the analog path, writing the signed
// psums to out[v·D : (v+1)·D]. It is ForwardCodes behind a range check:
// any input that is not a DTC code fails the whole batch before a wave
// runs, with the DTC's range error.
func (m *MappedLayer) ForwardBatch(inputs []int, nvec int, out []int) error {
	codes, err := m.sc.dtcCodes(inputs)
	if err != nil {
		return err
	}
	return m.ForwardCodes(codes, nvec, out)
}

// ForwardCodes runs nvec vectors of 8-bit DTC codes (flat, vector-major)
// through the analog path, writing the signed psums to out[v·D : (v+1)·D].
// It amortises the sub-chip's scratch arena — and, when the noise
// configuration is deterministic, whole blocks of waves through the
// matrix–matrix crossbar kernel — across the batch. With randomness
// configured the waves execute strictly in order, so the RNG draw sequence
// (and every result) is identical to nvec successive Compute calls.
func (m *MappedLayer) ForwardCodes(codes []uint8, nvec int, out []int) error {
	if nvec < 0 || len(codes) != nvec*m.Rows {
		return fmt.Errorf("core: %d batched inputs for %d waves of %d mapped rows",
			len(codes), nvec, m.Rows)
	}
	if len(out) != nvec*m.D {
		return fmt.Errorf("core: batch output %d for %d waves of %d channels",
			len(out), nvec, m.D)
	}
	if m.BatchDeterministic() {
		m.forwardBatchDet(codes, nvec, out)
		return nil
	}
	for v := 0; v < nvec; v++ {
		m.computeInto(codes[v*m.Rows:(v+1)*m.Rows], out[v*m.D:(v+1)*m.D])
	}
	return nil
}

// ComputeLockstep runs one wave on each of layers: layers[i] reads the
// inputs inputs[i] (Rows DTC codes, 0..255) and writes its D signed psums
// to psums[i], as Compute would. The layers' noise must draw from one RNG,
// and a wave of each must draw the same number of deviates; the wave's
// deviates are then drawn once and that one draw is applied to every
// layer. A wave consumes the next deviates(sg) deviates of the stream
// whatever it does with them, so each layer's psums are those of one
// Compute on its own clone of the stream, and the RNG ends where each
// clone would. A group that shares neither, or whose inputs or outputs are
// mis-sized or not DTC codes, fails before anything is drawn or counted.
// A group of one is one Compute; a BatchDeterministic layer runs the
// integer matrix kernel, which draws nothing and gives the same psums.
func ComputeLockstep(layers []*MappedLayer, inputs [][]int, psums [][]int) error {
	if len(inputs) != len(layers) || len(psums) != len(layers) {
		return fmt.Errorf("core: lockstep of %d layers with %d inputs and %d outputs",
			len(layers), len(inputs), len(psums))
	}
	if len(layers) == 0 {
		return nil
	}
	lead := layers[0]
	rng, n := lead.sc.noiseRNG(), lead.deviates(lead.sc.sigmas())
	for i, m := range layers {
		if len(inputs[i]) != m.Rows {
			return fmt.Errorf("core: %d inputs for %d mapped rows", len(inputs[i]), m.Rows)
		}
		if len(psums[i]) != m.D {
			return fmt.Errorf("core: %d outputs for %d channels", len(psums[i]), m.D)
		}
		if err := m.sc.checkCodes(inputs[i]); err != nil {
			return err
		}
		if m.sc.noiseRNG() != rng {
			return fmt.Errorf("core: lockstep layer %d draws from another RNG", i)
		}
		if k := m.deviates(m.sc.sigmas()); k != n {
			return fmt.Errorf("core: lockstep layer %d draws %d deviates a wave, layer 0 %d", i, k, n)
		}
	}
	z := lead.draw(lead.sc.sigmas())
	for i, m := range layers {
		codes := m.sc.stageCodes(inputs[i])
		if m.BatchDeterministic() {
			m.forwardBatchDet(codes, 1, psums[i])
			continue
		}
		m.apply(codes, psums[i], m.sc.sigmas(), z)
	}
	return nil
}

// noiseRNG is the generator the sub-chip's noise draws from, or nil.
func (s *SubChip) noiseRNG() *stats.RNG {
	if s.noise == nil {
		return nil
	}
	return s.noise.RNG
}

// BatchDeterministic reports whether this mapped layer's batched forward
// path is bit-identical regardless of batch composition: a deterministic
// noise configuration (every sigma zero, no RNG consumed), so every dot is
// an exact integer. When false, waves run through the per-wave Compute
// path: they draw from a shared RNG stream, so reordering inputs across
// layers or batches would change the draws — callers must keep per-input
// order.
func (m *MappedLayer) BatchDeterministic() bool { return m.sc.noise.Deterministic() }

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
// integer arithmetic end to end: without noise an 8-bit DTC code times an
// integer level is an integer, the X-subBuf copies and P-subBuf mirrors
// are identities, and the I-adder sum of the column totals is exact in
// any order. A lossless layer (effectiveWeights) folds the whole datapath
// into one integer product with its effective weights; any other layer
// runs the blocked integer kernel (reram.DotLevelsBatch) for every
// crossbar's column sums, adds the grid rows in int64 and maps each total
// to the code the float charging + TDC stage would produce.
// Either way the psums are bit-identical to per-wave execution.
func (m *MappedLayer) forwardBatchDet(codes []uint8, nvec int, out []int) {
	rows, d := m.Rows, m.D
	weff := m.effectiveWeights()
	for base := 0; base < nvec; base += batchBlock {
		n := min(nvec-base, batchBlock)
		// Without noise a DTC delay is the code itself in TDel units,
		// whichever grid column it reaches.
		c := codes[base*rows : (base+n)*rows]
		o := out[base*d : (base+n)*d]
		if weff != nil {
			m.gemm(c, n, weff, o)
		} else {
			m.quantiseBlock(c, n, o)
		}
		m.countWaves(n)
	}
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
// grow, so any Program or fault injection moves it.
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
