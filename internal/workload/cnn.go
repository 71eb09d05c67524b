package workload

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/params"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// Convolutional workload for the accuracy study: synthetic oriented-grating
// images classified by a small CNN whose convolutional features come from a
// fixed random filter bank (random-feature / "kitchen sink" construction —
// only the fully-connected head is trained, which keeps the pure-Go trainer
// small while still exercising TIMELY's convolution datapath end to end).

// ImageDataset holds labelled single-channel 8-bit images.
type ImageDataset struct {
	X       []*tensor.Int
	Y       []int
	Size    int // images are Size×Size
	Classes int
}

// Len returns the sample count.
func (d *ImageDataset) Len() int { return len(d.X) }

// Split partitions into train/test.
func (d *ImageDataset) Split(frac float64) (train, test *ImageDataset) {
	cut := int(float64(d.Len()) * frac)
	train = &ImageDataset{X: d.X[:cut], Y: d.Y[:cut], Size: d.Size, Classes: d.Classes}
	test = &ImageDataset{X: d.X[cut:], Y: d.Y[cut:], Size: d.Size, Classes: d.Classes}
	return train, test
}

// SyntheticImages draws n oriented-grating images over `classes`
// orientations with additive pixel noise: class k is a sinusoidal grating at
// angle k·π/classes, quantised into 8-bit codes.
func SyntheticImages(rng *stats.RNG, n, size, classes int, noise float64) *ImageDataset {
	if n <= 0 || size <= 0 || classes <= 1 {
		panic(fmt.Sprintf("workload: invalid image dataset n=%d size=%d classes=%d", n, size, classes))
	}
	d := &ImageDataset{Size: size, Classes: classes}
	freq := 2 * math.Pi / float64(size) * 2.5
	for i := 0; i < n; i++ {
		k := rng.Intn(classes)
		angle := float64(k) * math.Pi / float64(classes)
		dx, dy := math.Cos(angle), math.Sin(angle)
		phase := rng.Float64() * 2 * math.Pi
		img := tensor.NewInt(1, size, size)
		for y := 0; y < size; y++ {
			for x := 0; x < size; x++ {
				v := 128 + 100*math.Sin(freq*(dx*float64(x)+dy*float64(y))+phase)
				v += rng.Gauss(0, noise*255)
				if v < 0 {
					v = 0
				}
				if v > 255 {
					v = 255
				}
				img.Set(0, y, x, int32(math.Round(v)))
			}
		}
		d.X = append(d.X, img)
		d.Y = append(d.Y, k)
	}
	return d
}

// CNN is the random-feature convolutional classifier: a fixed signed-integer
// filter bank, ReLU, max pooling, then a trained MLP head over the flattened
// feature codes.
type CNN struct {
	// Filters is the fixed random conv bank (signed codes).
	Filters *tensor.Filter
	// Stride/Pad of the convolution; PoolK/PoolS of the max pool.
	Stride, Pad, PoolK, PoolS int
	// FeatShift requantises conv psums into 8-bit feature codes.
	FeatShift int
	// Head is the trained classifier over flattened features.
	Head *QuantMLP

	// heads holds mapped heads idle for reuse (see MapAnalog).
	heads headPool
}

// headPool is a CNN's free list of mapped heads that draw nothing. A
// mapped layer is not safe for concurrent use, so each head serves one
// AnalogCNN at a time: the list never holds more heads than AnalogCNNs
// were live at once.
type headPool struct {
	mu   sync.Mutex
	free map[headKey][]*AnalogMLP
}

// headKey is everything a head that draws nothing is a function of: the
// trained weights and the options that shape the mapping.
type headKey struct {
	q                 *QuantMLP
	cfg               params.TimelyConfig
	ifBits, inputHops int
}

// NewCNN builds the feature extractor with d random 3×3 filters (codes in
// [-maxW, maxW]) for size×size inputs.
func NewCNN(rng *stats.RNG, d, maxW int) *CNN {
	f := tensor.NewFilter(d, 1, 3, 3)
	for i := range f.Data {
		f.Data[i] = int32(rng.Intn(2*maxW+1)) - int32(maxW)
	}
	return &CNN{Filters: f, Stride: 1, Pad: 1, PoolK: 2, PoolS: 2}
}

// features runs the integer feature path: conv → requant(ReLU) → pool.
func (c *CNN) features(img *tensor.Int) *tensor.Int {
	conv := tensor.Conv2D(img, c.Filters, nil, c.Stride, c.Pad)
	tensor.RequantizeShift(conv, c.FeatShift, 255)
	return tensor.MaxPool2D(conv, c.PoolK, c.PoolS)
}

// calibrate sets FeatShift to the least shift that brings the largest conv
// psum over imgs within 8 bits and returns every image's feature vector,
// convolving each image once. Requantisation (shift, then clamp to
// [0, 255]) is monotone, so max pooling the raw psums first and
// requantising the pooled maxima gives the same codes as features.
func (c *CNN) calibrate(imgs []*tensor.Int) [][]float64 {
	pooled := make([]*tensor.Int, len(imgs))
	maxPsum := int32(0)
	for i, img := range imgs {
		conv := tensor.Conv2D(img, c.Filters, nil, c.Stride, c.Pad)
		for _, v := range conv.Data {
			if v > maxPsum {
				maxPsum = v
			}
		}
		pooled[i] = tensor.MaxPool2D(conv, c.PoolK, c.PoolS)
	}
	c.FeatShift = 0
	for maxPsum>>uint(c.FeatShift) > 255 {
		c.FeatShift++
	}
	feats := make([][]float64, len(imgs))
	for i, p := range pooled {
		feats[i] = featVec(tensor.RequantizeShift(p, c.FeatShift, 255))
	}
	return feats
}

// featVec flattens a feature tensor into normalised float64s for the head
// (codes scaled into [0,1] so the SGD head trains stably; the head's input
// quantiser recovers 8-bit codes from the same scale).
func featVec(t *tensor.Int) []float64 {
	out := make([]float64, len(t.Data))
	for i, v := range t.Data {
		out[i] = float64(v) / 255
	}
	return out
}

// Train calibrates the feature shift on the training images, extracts
// features and trains the FC head. Returns the final training loss.
func (c *CNN) Train(rng *stats.RNG, train *ImageDataset, hidden, epochs int, lr float64) (float64, error) {
	if train.Len() == 0 {
		return 0, fmt.Errorf("workload: empty training set")
	}
	// Calibrate the requantisation shift over the training set and extract
	// the features the float head trains on.
	feats := &Dataset{X: c.calibrate(train.X), Y: append([]int(nil), train.Y...), Classes: train.Classes}
	feats.Dim = len(feats.X[0])
	head := NewMLP(rng, feats.Dim, hidden, train.Classes)
	loss := head.Train(feats, rng, epochs, lr)
	q, err := Quantize(head, feats, 8)
	if err != nil {
		return 0, err
	}
	c.Head = q
	return loss, nil
}

// PredictInt classifies one image through the exact integer path.
func (c *CNN) PredictInt(img *tensor.Int) int {
	return c.Head.PredictInt(featVec(c.features(img)))
}

// AccuracyInt evaluates the integer path.
func (c *CNN) AccuracyInt(d *ImageDataset) float64 {
	hit := 0
	for i, img := range d.X {
		if c.PredictInt(img) == d.Y[i] {
			hit++
		}
	}
	return hitRate(hit, d.Len())
}

// AnalogCNN is a CNN programmed onto functional TIMELY sub-chips: one for
// the conv bank, plus the head's layers.
type AnalogCNN struct {
	cnn      *CNN
	convMap  *core.MappedLayer
	head     *AnalogMLP
	shared   *headKey // the head's free-list key; nil when it may draw
	faultMap int      // total stuck cells injected (0 when clean)

	// Per-instance scratch reused across images (an AnalogCNN is driven by
	// one goroutine at a time): the conv bank's input codes and psums, and
	// Predict's feature vector.
	codes []uint8
	psums []int
	feat  []float64
}

// MapAnalog programs the conv filter bank and the head. faultRate > 0
// additionally pins that fraction of the conv sub-chip's cells as stuck-at
// faults before programming (the defect ablation; requires opt.Noise).
//
// The head never takes faults. Under options that draw nothing in it (no
// ledger, a deterministic noise configuration) it is a function of the
// trained weights and the mapping geometry alone, whatever the noise RNG:
// MapAnalog then takes a head an earlier AnalogCNN handed back through
// Release, and maps a new one only when none is idle.
func (c *CNN) MapAnalog(opt core.Options, faultRate float64) (*AnalogCNN, error) {
	if c.Head == nil {
		return nil, fmt.Errorf("workload: CNN not trained")
	}
	sc := core.NewSubChip(opt)
	faults := 0
	if faultRate > 0 {
		var err error
		if faults, err = sc.InjectFaults(faultRate); err != nil {
			return nil, err
		}
	}
	return c.mapOnto(sc, opt, faults)
}

// mapOnto programs the conv bank onto sc (whose faults, already injected,
// number faults) and takes the head from takeHead.
func (c *CNN) mapOnto(sc *core.SubChip, opt core.Options, faults int) (*AnalogCNN, error) {
	convMap, err := sc.MapDense(core.FlattenFilter(c.Filters))
	if err != nil {
		return nil, err
	}
	head, shared, err := c.takeHead(opt)
	if err != nil {
		return nil, err
	}
	return &AnalogCNN{cnn: c, convMap: convMap, head: head, shared: shared, faultMap: faults}, nil
}

// takeHead returns the head to map under opt, and its free-list key when
// it may be shared: an idle head from the free list, or a newly mapped
// one. A head that draws nothing is mapped without the noise
// configuration, so it holds no reference to any draw's RNG.
func (c *CNN) takeHead(opt core.Options) (*AnalogMLP, *headKey, error) {
	if opt.Ledger != nil || !opt.Noise.Deterministic() {
		head, err := c.Head.MapAnalog(opt)
		return head, nil, err
	}
	k := &headKey{q: c.Head, cfg: opt.Config, ifBits: opt.InterfaceBits, inputHops: opt.InputHops}
	p := &c.heads
	p.mu.Lock()
	if free := p.free[*k]; len(free) > 0 {
		head := free[len(free)-1]
		p.free[*k] = free[:len(free)-1]
		p.mu.Unlock()
		return head, k, nil
	}
	p.mu.Unlock()
	head, err := c.Head.MapAnalog(core.Options{Config: opt.Config, InterfaceBits: opt.InterfaceBits, InputHops: opt.InputHops})
	return head, k, err
}

// Release hands the receiver's head back to its CNN for the next
// MapAnalog, when the head draws nothing and so may serve another draw.
// The AnalogCNN must not be used afterwards.
func (a *AnalogCNN) Release() {
	if k := a.shared; k != nil {
		p := &a.cnn.heads
		p.mu.Lock()
		if p.free == nil {
			p.free = make(map[headKey][]*AnalogMLP)
		}
		p.free[*k] = append(p.free[*k], a.head)
		p.mu.Unlock()
	}
	a.head, a.shared, a.convMap = nil, nil, nil
}

// Faults returns the number of stuck cells injected at mapping time.
func (a *AnalogCNN) Faults() int { return a.faultMap }

// Predict classifies one image through the analog pipeline: conv psums from
// the mapped crossbars, digital requantisation + pooling, then the analog
// head.
func (a *AnalogCNN) Predict(img *tensor.Int) (int, error) {
	return a.predict(img, nil)
}

// predict is Predict reading the conv bank's input from patch, img's
// patch codes (see CNN.PatchCodes), or from img itself when patch is nil.
func (a *AnalogCNN) predict(img *tensor.Int, patch []uint8) (int, error) {
	n := a.featLen(img)
	if cap(a.feat) < n {
		a.feat = make([]float64, n)
	}
	feat := a.feat[:n]
	if err := a.features(img, patch, feat); err != nil {
		return 0, err
	}
	return a.head.Predict(feat)
}

// PatchCodes returns, for every image of d, the 8-bit codes of its im2col
// patches under c's conv geometry: the conv bank's input for that image,
// which depends on the CNN's filter shape, stride and padding alone, never
// on a mapping or a fault map. An image whose pixels are not all 8-bit
// codes gets nil, and is read from its pixels, range check included. A
// study that evaluates many mappings of c on one test set computes these
// once and hands them to AnalogCNN.Accuracy.
func (c *CNN) PatchCodes(d *ImageDataset) [][]uint8 {
	out := make([][]uint8, d.Len())
	for i, img := range d.X {
		if pixelCodes(img) {
			rows, e, f := tensor.Im2ColDims(img, c.Filters.Z, c.Filters.G, c.Stride, c.Pad)
			out[i] = make([]uint8, rows*e*f)
			tensor.Im2ColIntoCodes(img, c.Filters.Z, c.Filters.G, c.Stride, c.Pad, out[i])
		}
	}
	return out
}

// featLen is the length of img's feature vector: every filter's pooled map.
func (a *AnalogCNN) featLen(img *tensor.Int) int {
	c := a.cnn
	_, e, f := tensor.Im2ColDims(img, c.Filters.Z, c.Filters.G, c.Stride, c.Pad)
	return c.Filters.D * tensor.ConvOut(e, c.PoolK, c.PoolS, 0) * tensor.ConvOut(f, c.PoolK, c.PoolS, 0)
}

// features runs one image's patches through the mapped conv bank in a
// single ForwardCodes pass and writes the head's input vector into feat
// (featLen long): per filter and pooling window, the largest psum,
// requantised into an 8-bit code and scaled into [0,1]. Requantisation
// (shift, then clamp) is monotone, so pooling the raw psums first gives
// the codes of requantising every psum and then pooling — the integer
// path of CNN.features. patch, when not nil, is img's patch codes
// (CNN.PatchCodes) and saves the im2col.
func (a *AnalogCNN) features(img *tensor.Int, patch []uint8, feat []float64) error {
	c := a.cnn
	z, g, d := c.Filters.Z, c.Filters.G, c.Filters.D
	rows, e, f := tensor.Im2ColDims(img, z, g, c.Stride, c.Pad)
	if cap(a.psums) < e*f*d {
		a.psums = make([]int, e*f*d)
	}
	psums := a.psums[:e*f*d]
	var err error
	if patch == nil && pixelCodes(img) {
		if cap(a.codes) < rows*e*f {
			a.codes = make([]uint8, rows*e*f)
		}
		patch = a.codes[:rows*e*f]
		tensor.Im2ColIntoCodes(img, z, g, c.Stride, c.Pad, patch)
	}
	if patch != nil {
		err = a.convMap.ForwardCodes(patch, e*f, psums)
	} else {
		// Some pixel is not an 8-bit code: ForwardBatch's range check
		// reports the first one a patch reads, as the DTC would.
		inputs := make([]int, rows*e*f)
		tensor.Im2ColIntoInts(img, z, g, c.Stride, c.Pad, inputs)
		err = a.convMap.ForwardBatch(inputs, e*f, psums)
	}
	if err != nil {
		return err
	}
	k, s := c.PoolK, c.PoolS
	pe, pf := tensor.ConvOut(e, k, s, 0), tensor.ConvOut(f, k, s, 0)
	for ch := 0; ch < d; ch++ {
		for y := 0; y < pe; y++ {
			for x := 0; x < pf; x++ {
				m := int32(math.MinInt32)
				for i := 0; i < k; i++ {
					for j := 0; j < k; j++ {
						if v := int32(psums[((y*s+i)*f+x*s+j)*d+ch]); v > m {
							m = v
						}
					}
				}
				feat[(ch*pe+y)*pf+x] = float64(min(max(m>>uint(c.FeatShift), 0), 255)) / 255
			}
		}
	}
	return nil
}

// pixelCodes reports whether every pixel of img is an 8-bit code.
func pixelCodes(img *tensor.Int) bool {
	for _, v := range img.Data {
		if uint32(v) > 255 {
			return false
		}
	}
	return true
}
