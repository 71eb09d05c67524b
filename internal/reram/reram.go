// Package reram models the ReRAM crossbar arrays at the heart of TIMELY:
// B×B grids of multi-level cells whose conductances encode weights and whose
// column currents, integrated over the time-domain inputs, realise analog
// dot products (paper §II-B, Fig. 3(a) and Fig. 6(e)).
//
// Conductances are kept in *level units*: a cell programmed to level g
// (0..2^CellBits−1) contributes g per unit input time. The physical scale
// (Gmax = 1/Rmin) cancels into the charging unit's full scale, mirroring how
// Eq. 2 cancels Rmin. Device variation multiplies the level by (1+δ) with
// Gaussian δ.
//
// Two kernel families read two lazily built caches. The float kernels
// (ColumnDot, DotColumns, SubRangedDot) serve the noisy datapath, where
// variation and IR drop make conductances non-integral: they read a flat
// effective-conductance matrix, the branchy per-cell path (level,
// variation, IR drop) evaluated once per cell into a contiguous []float64.
// The noise-free datapath is exact integer arithmetic, so its batched
// kernel DotLevelsBatch reads the programmed levels instead, packed several
// columns to a machine word. Any state mutation (Program, ApplyVariation,
// SetIRDrop, fault injection) invalidates both caches — each is rebuilt only
// for the row prefix a kernel actually touches — and advances the write
// Generation, which lets readers outside the package keep caches of their
// own. Crossbars are not safe for concurrent use.
package reram

import (
	"fmt"
	"math/bits"

	"repro/internal/fixed"
	"repro/internal/stats"
)

// Crossbar is one B×B ReRAM array.
type Crossbar struct {
	// B is the array dimension.
	B int
	// CellBits is the per-cell weight width.
	CellBits int
	// levels holds the programmed level of each cell, row-major.
	levels []uint8
	// variation holds per-cell relative conductance errors (nil when ideal).
	variation []float64
	// faults holds per-cell stuck-at states (nil when fault-free).
	faults []int8
	// irDrop is the wire-resistance attenuation coefficient (0 = ideal).
	irDrop float64

	// flat caches the effective conductances of the first flatRows rows
	// (row-major, stride B). flatRows == 0 means the cache is stale.
	flat     []float64
	flatRows int
	// packed caches the programmed levels of the first packedRows rows in
	// the SWAR layout of DotLevelsBatch: lanes of packedWidth bits, rows of
	// packedWords words. packedRows == 0 means the cache is stale.
	packed                               []uint64
	packedRows, packedWidth, packedWords int
	// acc is DotLevelsBatch's per-vector lane accumulator scratch.
	acc []uint64
	// gen counts state mutations (see Generation).
	gen uint64
	// scaled and dots are kernel scratch reused by SubRangedDot so the
	// recombining decoders stay allocation-free.
	scaled []float64
	dots   []float64
}

// New returns an erased (all-zero) crossbar. It panics on non-positive
// dimensions, which are programming errors.
func New(b, cellBits int) *Crossbar {
	if b <= 0 || cellBits <= 0 || cellBits > 8 {
		panic(fmt.Sprintf("reram: invalid crossbar %dx%d cells of %d bits", b, b, cellBits))
	}
	return &Crossbar{B: b, CellBits: cellBits, levels: make([]uint8, b*b)}
}

// MaxLevel returns the highest programmable level.
func (x *Crossbar) MaxLevel() uint8 { return uint8(int(1)<<x.CellBits - 1) }

// invalidate drops the cached conductance matrix and packed levels and
// advances the write generation.
func (x *Crossbar) invalidate() {
	x.flatRows, x.packedRows = 0, 0
	x.gen++
}

// Generation returns the crossbar's write generation: a counter that every
// state mutation (Program, ApplyVariation, SetIRDrop, fault injection or
// clearing) advances and nothing else touches. A cache derived from the
// array's levels or conductances is current while the generation it was
// built at still holds.
func (x *Crossbar) Generation() uint64 { return x.gen }

// Program writes one cell. It returns an error if the coordinates are out
// of range or the level exceeds the cell's capability.
func (x *Crossbar) Program(row, col int, level uint8) error {
	if row < 0 || row >= x.B || col < 0 || col >= x.B {
		return fmt.Errorf("reram: cell (%d,%d) outside %dx%d array", row, col, x.B, x.B)
	}
	if level > x.MaxLevel() {
		return fmt.Errorf("reram: level %d exceeds %d-bit cell", level, x.CellBits)
	}
	if x.faults != nil && x.faults[row*x.B+col] != faultNone {
		// Stuck cells ignore programming (the write-verify loop gives up).
		return nil
	}
	x.levels[row*x.B+col] = level
	x.invalidate()
	return nil
}

// Level reads back a programmed level.
func (x *Crossbar) Level(row, col int) uint8 { return x.levels[row*x.B+col] }

// ApplyVariation draws an independent Gaussian relative conductance error
// with the given sigma for every cell (the ReRAM device-variation model the
// accuracy study injects alongside circuit noise).
func (x *Crossbar) ApplyVariation(sigma float64, rng *stats.RNG) {
	x.invalidate()
	if sigma == 0 {
		x.variation = nil
		return
	}
	x.variation = make([]float64, len(x.levels))
	for i := range x.variation {
		x.variation[i] = rng.Gauss(0, sigma)
	}
}

// SetIRDrop configures wire-resistance (IR-drop) attenuation: the effective
// conductance of the cell at (row, col) scales by 1/(1 + α·(row+col)/2B),
// the standard first-order model where cells far from the drivers and the
// sensing column see a degraded voltage. α = 0 disables the effect. TIMELY
// bounds α by keeping arrays at 256×256 and re-driving signals through ALBs
// (§V: the buffers "increase the driving ability of loads").
func (x *Crossbar) SetIRDrop(alpha float64) {
	x.irDrop = alpha
	x.invalidate()
}

// cond returns the effective conductance of a cell in level units. It is
// the scalar reference the flat cache is built from.
func (x *Crossbar) cond(row, col int) float64 {
	g := float64(x.levels[row*x.B+col])
	if x.variation != nil {
		g *= 1 + x.variation[row*x.B+col]
	}
	if x.irDrop != 0 {
		g /= 1 + x.irDrop*float64(row+col)/float64(2*x.B)
	}
	return g
}

// ensureFlat returns the cached conductance matrix with at least the first
// rows rows valid, rebuilding the stale prefix lazily. Kernels that touch
// only a short row prefix (a partially filled array) pay only for that
// prefix.
func (x *Crossbar) ensureFlat(rows int) []float64 {
	if rows > x.B {
		rows = x.B
	}
	if rows > x.flatRows {
		need := rows * x.B
		if cap(x.flat) < need {
			x.flat = make([]float64, need)
			x.flatRows = 0
		}
		x.flat = x.flat[:need]
		for r := x.flatRows; r < rows; r++ {
			base := r * x.B
			for c := 0; c < x.B; c++ {
				x.flat[base+c] = x.cond(r, c)
			}
		}
		x.flatRows = rows
	}
	return x.flat
}

// ColumnDot integrates the column current over the applied input times:
// it returns Σᵢ times[i]·g[i][col] / TDel-units, i.e. the dot value the
// charging unit consumes. times must have length ≤ B; missing rows float
// (contribute nothing). tdel converts times (ps) into code units.
func (x *Crossbar) ColumnDot(times []float64, col int, tdel float64) float64 {
	if col < 0 || col >= x.B {
		panic(fmt.Sprintf("reram: column %d outside array", col))
	}
	if len(times) > x.B {
		panic(fmt.Sprintf("reram: %d input rows exceed array size %d", len(times), x.B))
	}
	g := x.ensureFlat(len(times))
	b := x.B
	dot := 0.0
	for i, t := range times {
		if gi := g[i*b+col]; gi != 0 {
			dot += t / tdel * gi
		}
	}
	return dot
}

// DotColumns computes the dot products of the ncols adjacent columns
// starting at col0 against pre-scaled inputs (scaled[i] = times[i]/tdel),
// overwriting out[0:ncols]. One row-major pass over the cached conductance
// matrix serves every column; each column accumulates its terms in ascending
// row order, so the results are bit-identical to per-column ColumnDot calls.
// The kernel allocates nothing.
func (x *Crossbar) DotColumns(scaled []float64, col0, ncols int, out []float64) {
	if col0 < 0 || ncols < 0 || col0+ncols > x.B {
		panic(fmt.Sprintf("reram: columns [%d,%d) outside array", col0, col0+ncols))
	}
	if len(scaled) > x.B {
		panic(fmt.Sprintf("reram: %d input rows exceed array size %d", len(scaled), x.B))
	}
	if len(out) < ncols {
		panic("reram: DotColumns output shorter than ncols")
	}
	g := x.ensureFlat(len(scaled))
	b := x.B
	out = out[:ncols]
	for j := range out {
		out[j] = 0
	}
	// Four conductance rows per pass when all four inputs are live: the
	// fused expression is the same left-associated ascending-row fold as
	// row-at-a-time accumulation, so results stay bit-identical while the
	// out[] loads/stores amortise over four multiply-adds. Sparse quads
	// (and the tail) fall back to the per-row fold, which skips zero
	// inputs exactly like the original kernel.
	rows := len(scaled)
	i := 0
	for ; i+3 < rows; i += 4 {
		s0, s1, s2, s3 := scaled[i], scaled[i+1], scaled[i+2], scaled[i+3]
		if s0 != 0 && s1 != 0 && s2 != 0 && s3 != 0 {
			g0 := g[i*b+col0 : i*b+col0+ncols]
			g1 := g[(i+1)*b+col0 : (i+1)*b+col0+ncols]
			g2 := g[(i+2)*b+col0 : (i+2)*b+col0+ncols]
			g3 := g[(i+3)*b+col0 : (i+3)*b+col0+ncols]
			for j, gj := range g0 {
				out[j] = out[j] + s0*gj + s1*g1[j] + s2*g2[j] + s3*g3[j]
			}
			continue
		}
		for q, s := range [4]float64{s0, s1, s2, s3} {
			if s == 0 {
				continue
			}
			row := g[(i+q)*b+col0 : (i+q)*b+col0+ncols]
			for j, gj := range row {
				out[j] += s * gj
			}
		}
	}
	for ; i < rows; i++ {
		s := scaled[i]
		if s == 0 {
			continue
		}
		row := g[i*b+col0 : i*b+col0+ncols]
		for j, gj := range row {
			out[j] += s * gj
		}
	}
}

// Integral reports whether every cell's effective conductance is exactly
// its programmed integer level: no device variation and no IR drop.
// Stuck-at faults keep a crossbar integral (they pin levels). On an
// integral crossbar every dot against integer DTC codes is an exact
// integer, which DotLevelsBatch computes without floating point.
func (x *Crossbar) Integral() bool { return x.variation == nil && x.irDrop == 0 }

// laneWidth returns the bit width of one packed column lane for a dot over
// rows rows of 8-bit codes: wide enough for the largest possible column sum
// rows·255·MaxLevel, so no lane can carry into its neighbour.
func (x *Crossbar) laneWidth(rows int) int {
	return bits.Len(uint(rows * 255 * int(x.MaxLevel())))
}

// ensurePacked returns the packed level cache for lane width `width` with at
// least the first rows rows valid, rebuilding the stale prefix lazily (a
// width change repacks from row 0). Row r occupies
// packed[r·packedWords : (r+1)·packedWords]; word k holds columns
// k·lanes … k·lanes+lanes−1, column k·lanes in the lowest lane.
func (x *Crossbar) ensurePacked(rows, width int) []uint64 {
	lanes := 64 / width
	if width != x.packedWidth {
		x.packedWidth = width
		x.packedWords = (x.B + lanes - 1) / lanes
		x.packedRows = 0
	}
	if rows > x.packedRows {
		words := x.packedWords
		need := rows * words
		if cap(x.packed) < need {
			x.packed = make([]uint64, need)
			x.packedRows = 0
		}
		x.packed = x.packed[:need]
		for r := x.packedRows; r < rows; r++ {
			lv := x.levels[r*x.B : (r+1)*x.B]
			row := x.packed[r*words : (r+1)*words]
			for k := range row {
				var pw uint64
				for c := min((k+1)*lanes, x.B) - 1; c >= k*lanes; c-- {
					pw = pw<<width | uint64(lv[c])
				}
				row[k] = pw
			}
		}
		x.packedRows = rows
	}
	return x.packed
}

// DotLevelsBatch is the integer matrix–matrix kernel of the noise-free
// datapath: it computes, for nvec vectors of 8-bit DTC codes, the exact
// column sums Σᵢ code[i]·level[i][col] over the programmed levels of
// columns 0 … ncols−1. Vector v occupies codes[v*istride : v*istride+rows]
// and its sums land in out[v*ostride : v*ostride+ncols]. The kernel reads
// levels, not conductances: it equals the float kernels only on an
// Integral crossbar.
//
// Adjacent columns share one uint64 (SWAR): each word holds 64/w lanes of
// w = bits.Len(rows·255·MaxLevel) bits, so a single multiply-add
// accumulates code·level into several columns at once and no lane can
// overflow into the next — the conv bank's 9 rows get four 16-bit lanes,
// a full 256-row array of 4-bit cells three 20-bit lanes. The packed rows
// are cached per crossbar and invalidated with the conductance cache. The
// kernel allocates nothing once its scratch has grown.
func (x *Crossbar) DotLevelsBatch(codes []uint8, nvec, istride, rows, ncols int, out []int64, ostride int) {
	if ncols < 0 || ncols > x.B {
		panic(fmt.Sprintf("reram: %d columns outside array size %d", ncols, x.B))
	}
	if rows < 0 || rows > x.B {
		panic(fmt.Sprintf("reram: %d input rows outside array size %d", rows, x.B))
	}
	if nvec < 0 || istride < rows || ostride < ncols {
		panic("reram: DotLevelsBatch stride shorter than vector extent")
	}
	if nvec == 0 {
		return
	}
	if len(codes) < (nvec-1)*istride+rows {
		panic("reram: DotLevelsBatch input shorter than batch extent")
	}
	if len(out) < (nvec-1)*ostride+ncols {
		panic("reram: DotLevelsBatch output shorter than batch extent")
	}
	width := max(x.laneWidth(rows), 1)
	lanes := 64 / width
	p := x.ensurePacked(rows, width)
	words := x.packedWords
	nw := (ncols + lanes - 1) / lanes
	if cap(x.acc) < nvec*nw {
		x.acc = make([]uint64, nvec*nw)
	}
	acc := x.acc[:nvec*nw]
	clear(acc)
	// Row-major over the packed levels: each packed row streams once for
	// the whole batch. Integer sums are exact, so the order is free.
	for i := 0; i < rows; i++ {
		prow := p[i*words : i*words+nw]
		for v := 0; v < nvec; v++ {
			c := uint64(codes[v*istride+i])
			if c == 0 {
				continue
			}
			a := acc[v*nw : v*nw+nw][:len(prow)]
			for k, pw := range prow {
				a[k] += c * pw
			}
		}
	}
	mask := uint64(1)<<width - 1
	for v := 0; v < nvec; v++ {
		o := out[v*ostride : v*ostride+ncols]
		for k, w := range acc[v*nw : v*nw+nw] {
			for j := k * lanes; j < min((k+1)*lanes, ncols); j++ {
				o[j] = int64(w & mask)
				w >>= width
			}
		}
	}
}

// ProgramWeightColumns writes one weight vector (unsigned codes of
// weightBits width, one per row) into the sub-ranged column group starting
// at col0: ⌈weightBits/CellBits⌉ adjacent columns holding big-endian
// nibbles, the §IV-C MSB/LSB layout. It returns the number of columns used.
func (x *Crossbar) ProgramWeightColumns(col0 int, codes []int, weightBits int) (int, error) {
	ncols := (weightBits + x.CellBits - 1) / x.CellBits
	if col0 < 0 || col0+ncols > x.B {
		return 0, fmt.Errorf("reram: weight columns [%d,%d) outside array", col0, col0+ncols)
	}
	if len(codes) > x.B {
		return 0, fmt.Errorf("reram: %d weights exceed %d rows", len(codes), x.B)
	}
	for row, code := range codes {
		if code < 0 || code >= 1<<weightBits {
			return 0, fmt.Errorf("reram: weight code %d out of %d-bit range", code, weightBits)
		}
		for i, nb := range fixed.Split(code, weightBits, x.CellBits) {
			if err := x.Program(row, col0+i, nb); err != nil {
				return 0, err
			}
		}
	}
	return ncols, nil
}

// SubRangedDot computes the recombined dot product of the weight-column
// group at col0 against the applied input times, in code units:
// Σ over nibble columns of dot_i · 2^(CellBits·(n−1−i)). This is the digital
// shift-and-add of Fig. 6(a) ⑤ applied to exact column dots; the functional
// TIMELY pipeline in package core routes the same quantities through
// charging units and TDCs instead. The nibble-column dots come from one
// DotColumns pass over the cached conductance matrix.
func (x *Crossbar) SubRangedDot(times []float64, col0, weightBits int, tdel float64) float64 {
	ncols := (weightBits + x.CellBits - 1) / x.CellBits
	if len(times) > x.B {
		panic(fmt.Sprintf("reram: %d input rows exceed array size %d", len(times), x.B))
	}
	if cap(x.scaled) < len(times) {
		x.scaled = make([]float64, len(times))
	}
	scaled := x.scaled[:len(times)]
	for i, t := range times {
		scaled[i] = t / tdel
	}
	if cap(x.dots) < ncols {
		x.dots = make([]float64, ncols)
	}
	dots := x.dots[:ncols]
	x.DotColumns(scaled, col0, ncols, dots)
	dot := 0.0
	for i, d := range dots {
		shift := x.CellBits * (ncols - 1 - i)
		dot += d * float64(int64(1)<<shift)
	}
	return dot
}
