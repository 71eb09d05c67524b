package model

// Declarative network specs. A Spec is the JSON-serializable form of a
// Network: a name, an input shape, and an ordered list of layer specs.
// Compile performs shape inference (propagating each layer's output to the
// next layer's input) and full validation, returning typed *SpecError
// values that name the offending layer and field. Network.Spec is the
// inverse: it exports any network — including the built-in zoo — as a spec
// whose compilation reproduces the exact layer table, which is the
// round-trip property the zoo equivalence tests pin down.
//
// Branching topologies are linearised exactly as the zoo does (see the
// package comment): a layer fed by an earlier activation than its
// predecessor's output carries an explicit "input" shape, and a merge
// (residual add, fire-module concat) is reflected in the next layer's
// explicit input. Layers without an explicit input consume the propagated
// cursor.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Dims is an activation shape: channels × height × width.
type Dims struct {
	C int `json:"c"`
	H int `json:"h"`
	W int `json:"w"`
}

func (d Dims) String() string { return fmt.Sprintf("%dx%dx%d", d.C, d.H, d.W) }

// Spec resource bounds. They exist so a hostile or garbled spec fed to the
// evaluation service cannot overflow the int64 MAC/parameter arithmetic or
// stall the compiler: every per-axis quantity is capped at maxSpecDim,
// each layer's MACs at maxLayerMACs and the layer count at maxSpecLayers,
// which together keep every derived total comfortably inside int64.
const (
	maxSpecDim    = 1 << 20
	maxSpecLayers = 4096
	maxLayerMACs  = 1 << 50
)

func (d Dims) inRange() bool {
	return d.C > 0 && d.H > 0 && d.W > 0 &&
		d.C <= maxSpecDim && d.H <= maxSpecDim && d.W <= maxSpecDim
}

// LayerSpec is one declarative layer. Kind selects which fields apply:
//
//   - "conv": Filters (output channels), Kernel or KernelH/KernelW,
//     Stride (default 1), Pad (default 0).
//   - "fc": Units (output width); the input is flattened.
//   - "maxpool"/"avgpool": Kernel, Stride (default 1), Pad (default 0).
//
// Fields foreign to the kind (Units on a conv, Filters on an fc, ...) are
// validation errors rather than silently ignored. Name is optional; an
// unnamed layer is auto-named kind+index ("conv0", "maxpool5"). Input,
// when present, overrides the propagated input shape — the linearised form
// of a branch.
type LayerSpec struct {
	Name string `json:"name,omitempty"`
	Kind string `json:"kind"`
	// Filters is the conv output channel count D.
	Filters int `json:"filters,omitempty"`
	// Units is the fc output width D.
	Units int `json:"units,omitempty"`
	// Kernel is a square kernel edge; KernelH/KernelW spell a rectangular
	// kernel. Exactly one of the two forms may be used.
	Kernel  int `json:"kernel,omitempty"`
	KernelH int `json:"kernel_h,omitempty"`
	KernelW int `json:"kernel_w,omitempty"`
	// Stride defaults to 1 when omitted.
	Stride int `json:"stride,omitempty"`
	Pad    int `json:"pad,omitempty"`
	// Input overrides the propagated input shape (branch linearisation).
	Input *Dims `json:"input,omitempty"`
}

// Spec is the declarative, JSON-serializable description of a network.
type Spec struct {
	Name   string      `json:"name"`
	Input  Dims        `json:"input"`
	Layers []LayerSpec `json:"layers"`
}

// SpecError is a typed spec validation failure: which spec, which layer
// (index and resolved name; Layer −1 for spec-level problems), which field,
// and why.
type SpecError struct {
	// Spec is the spec's name ("" if the name itself is missing).
	Spec string
	// Layer is the 0-based index into Spec.Layers, or -1 for a problem
	// with the spec header.
	Layer int
	// Name is the offending layer's resolved name, when known.
	Name string
	// Field names the invalid field ("kernel", "stride", ...).
	Field string
	// Msg says what is wrong with it.
	Msg string
}

// Error implements error.
func (e *SpecError) Error() string {
	where := fmt.Sprintf("spec %q", e.Spec)
	if e.Layer >= 0 {
		if e.Name != "" {
			where += fmt.Sprintf(": layer %d (%s)", e.Layer, e.Name)
		} else {
			where += fmt.Sprintf(": layer %d", e.Layer)
		}
	}
	if e.Field != "" {
		where += ": " + e.Field
	}
	return fmt.Sprintf("model: %s: %s", where, e.Msg)
}

// ParseKind resolves a spec kind string ("conv", "fc", "maxpool",
// "avgpool") to its Kind.
func ParseKind(s string) (Kind, error) {
	for _, k := range []Kind{KindConv, KindFC, KindMaxPool, KindAvgPool} {
		if s == k.String() {
			return k, nil
		}
	}
	return 0, fmt.Errorf("model: unknown layer kind %q (want conv, fc, maxpool or avgpool)", s)
}

// autoName is the default name of an unnamed layer: kind plus its index in
// the layer table.
func autoName(k Kind, index int) string { return fmt.Sprintf("%s%d", k, index) }

// Compile validates the spec and builds the network, inferring every
// layer's input from its predecessor's output (or its explicit Input
// override). All errors are *SpecError values.
func (s *Spec) Compile() (*Network, error) {
	fail := func(layer int, name, field, format string, args ...any) error {
		return &SpecError{Spec: s.Name, Layer: layer, Name: name, Field: field,
			Msg: fmt.Sprintf(format, args...)}
	}
	if s.Name == "" {
		return nil, fail(-1, "", "name", "network name is required")
	}
	if !s.Input.inRange() {
		return nil, fail(-1, "", "input", "input dims must be in [1,%d], got %s", maxSpecDim, s.Input)
	}
	if len(s.Layers) == 0 {
		return nil, fail(-1, "", "layers", "network has no layers")
	}
	if len(s.Layers) > maxSpecLayers {
		return nil, fail(-1, "", "layers", "network has %d layers, the limit is %d", len(s.Layers), maxSpecLayers)
	}

	n := &Network{Name: s.Name, InC: s.Input.C, InH: s.Input.H, InW: s.Input.W}
	cur := s.Input
	for i, ls := range s.Layers {
		kind, err := ParseKind(ls.Kind)
		if err != nil {
			return nil, fail(i, ls.Name, "kind", "unknown kind %q (want conv, fc, maxpool or avgpool)", ls.Kind)
		}
		name := ls.Name
		if name == "" {
			name = autoName(kind, i)
		}
		if ls.Input != nil {
			if !ls.Input.inRange() {
				return nil, fail(i, name, "input", "explicit input dims must be in [1,%d], got %s", maxSpecDim, *ls.Input)
			}
			cur = *ls.Input
		}
		stride := ls.Stride
		if stride == 0 {
			stride = 1
		}
		if stride < 0 || stride > maxSpecDim {
			return nil, fail(i, name, "stride", "stride must be in [1,%d], got %d", maxSpecDim, ls.Stride)
		}
		if ls.Pad < 0 || ls.Pad > maxSpecDim {
			return nil, fail(i, name, "pad", "pad must be in [0,%d], got %d", maxSpecDim, ls.Pad)
		}

		// Kernel resolution, shared by conv and pool kinds.
		kernel := func() (z, g int, err error) {
			switch {
			case ls.Kernel != 0 && (ls.KernelH != 0 || ls.KernelW != 0):
				return 0, 0, fail(i, name, "kernel", "kernel and kernel_h/kernel_w are mutually exclusive")
			case ls.Kernel != 0:
				if ls.Kernel < 0 || ls.Kernel > maxSpecDim {
					return 0, 0, fail(i, name, "kernel", "kernel must be in [1,%d], got %d", maxSpecDim, ls.Kernel)
				}
				return ls.Kernel, ls.Kernel, nil
			case ls.KernelH > 0 && ls.KernelW > 0:
				if ls.KernelH > maxSpecDim || ls.KernelW > maxSpecDim {
					return 0, 0, fail(i, name, "kernel", "kernel dims must be in [1,%d], got %dx%d", maxSpecDim, ls.KernelH, ls.KernelW)
				}
				return ls.KernelH, ls.KernelW, nil
			case ls.KernelH != 0 || ls.KernelW != 0:
				return 0, 0, fail(i, name, "kernel", "kernel_h and kernel_w must both be >= 1, got %dx%d", ls.KernelH, ls.KernelW)
			}
			return 0, 0, fail(i, name, "kernel", "%s layer requires a kernel", ls.Kind)
		}
		// reject flags fields foreign to the layer kind.
		reject := func(field string, v int) error {
			if v != 0 {
				return fail(i, name, field, "%s does not apply to %s layers", field, ls.Kind)
			}
			return nil
		}

		var l Layer
		switch kind {
		case KindConv:
			if err := reject("units", ls.Units); err != nil {
				return nil, err
			}
			if ls.Filters <= 0 || ls.Filters > maxSpecDim {
				return nil, fail(i, name, "filters", "conv requires filters in [1,%d], got %d", maxSpecDim, ls.Filters)
			}
			z, g, err := kernel()
			if err != nil {
				return nil, err
			}
			if z > cur.H+2*ls.Pad || g > cur.W+2*ls.Pad {
				return nil, fail(i, name, "kernel",
					"kernel %dx%d does not fit the %s input with pad %d", z, g, cur, ls.Pad)
			}
			l = Layer{Name: name, Kind: KindConv, C: cur.C, H: cur.H, W: cur.W,
				D: ls.Filters, Z: z, G: g, S: stride, Pad: ls.Pad}
			l.E = convOut(cur.H, z, stride, ls.Pad)
			l.F = convOut(cur.W, g, stride, ls.Pad)
			if l.E <= 0 || l.F <= 0 {
				return nil, fail(i, name, "kernel",
					"conv over %s input produces empty %dx%d output (kernel %dx%d, stride %d, pad %d)",
					cur, l.E, l.F, z, g, stride, ls.Pad)
			}
			cur = Dims{C: l.D, H: l.E, W: l.F}
		case KindFC:
			for _, f := range []struct {
				field string
				v     int
			}{
				{"filters", ls.Filters}, {"kernel", ls.Kernel}, {"kernel_h", ls.KernelH},
				{"kernel_w", ls.KernelW}, {"stride", ls.Stride}, {"pad", ls.Pad},
			} {
				if err := reject(f.field, f.v); err != nil {
					return nil, err
				}
			}
			if ls.Units <= 0 || ls.Units > maxSpecDim {
				return nil, fail(i, name, "units", "fc requires units in [1,%d], got %d", maxSpecDim, ls.Units)
			}
			// The kernel spans the flattened input.
			l = Layer{Name: name, Kind: KindFC, C: cur.C, H: cur.H, W: cur.W,
				D: ls.Units, Z: cur.H, G: cur.W, S: 1, E: 1, F: 1}
			cur = Dims{C: l.D, H: 1, W: 1}
		case KindMaxPool, KindAvgPool:
			if err := reject("filters", ls.Filters); err != nil {
				return nil, err
			}
			if err := reject("units", ls.Units); err != nil {
				return nil, err
			}
			z, g, err := kernel()
			if err != nil {
				return nil, err
			}
			if z != g {
				return nil, fail(i, name, "kernel", "pool kernels must be square, got %dx%d", z, g)
			}
			if z > cur.H+2*ls.Pad || g > cur.W+2*ls.Pad {
				return nil, fail(i, name, "kernel",
					"kernel %d does not fit the %s input with pad %d", z, cur, ls.Pad)
			}
			l = Layer{Name: name, Kind: kind, C: cur.C, H: cur.H, W: cur.W,
				Z: z, G: g, S: stride, Pad: ls.Pad}
			l.E = convOut(cur.H, z, stride, ls.Pad)
			l.F = convOut(cur.W, g, stride, ls.Pad)
			if l.E <= 0 || l.F <= 0 {
				return nil, fail(i, name, "kernel",
					"pool over %s input produces empty %dx%d output (kernel %d, stride %d, pad %d)",
					cur, l.E, l.F, z, stride, ls.Pad)
			}
			cur = Dims{C: cur.C, H: l.E, W: l.F}
		}
		if l.E > maxSpecDim || l.F > maxSpecDim {
			return nil, fail(i, name, "size",
				"output map %dx%d exceeds the %d per-axis limit", l.E, l.F, maxSpecDim)
		}
		// Budget check in float64, immune to the int64 overflow it guards
		// against: with layers capped at maxSpecLayers and each below
		// maxLayerMACs, every derived total stays inside int64.
		if macs := float64(l.D) * float64(l.E) * float64(l.F) *
			float64(l.C) * float64(l.Z) * float64(l.G); macs > maxLayerMACs {
			return nil, fail(i, name, "size",
				"layer needs %.3g MACs, the per-layer limit is %.3g", macs, float64(maxLayerMACs))
		}
		n.Layers = append(n.Layers, l)
	}
	if len(n.WeightedLayers()) == 0 {
		// Every accelerator model maps weighted layers onto crossbars; a
		// network of pools alone has nothing to map.
		return nil, fail(-1, "", "layers", "network has no conv or fc layer")
	}
	return n, nil
}

// mustCompile backs the static zoo tables, where an invalid spec is a
// programming bug.
func mustCompile(s *Spec) *Network {
	n, err := s.Compile()
	if err != nil {
		panic(err)
	}
	return n
}

// Spec exports the network's declarative form. Layers whose input shape
// matches the propagated cursor carry no explicit Input; branch layers
// (and layers following a merge) get one, so Compile reproduces the exact
// layer table: for every network n, n.Spec().Compile() deep-equals n.
func (n *Network) Spec() *Spec {
	s := &Spec{Name: n.Name, Input: Dims{C: n.InC, H: n.InH, W: n.InW}}
	cur := s.Input
	for _, l := range n.Layers {
		ls := LayerSpec{Name: l.Name, Kind: l.Kind.String()}
		if in := (Dims{C: l.C, H: l.H, W: l.W}); in != cur {
			ls.Input = &in
		}
		switch l.Kind {
		case KindConv:
			ls.Filters = l.D
			if l.Z == l.G {
				ls.Kernel = l.Z
			} else {
				ls.KernelH, ls.KernelW = l.Z, l.G
			}
			if l.S != 1 {
				ls.Stride = l.S
			}
			ls.Pad = l.Pad
			cur = Dims{C: l.D, H: l.E, W: l.F}
		case KindFC:
			ls.Units = l.D
			cur = Dims{C: l.D, H: 1, W: 1}
		default:
			ls.Kernel = l.Z
			if l.S != 1 {
				ls.Stride = l.S
			}
			ls.Pad = l.Pad
			cur = Dims{C: l.C, H: l.E, W: l.F}
		}
		s.Layers = append(s.Layers, ls)
	}
	return s
}

// SpecHash returns the canonical content hash of the network: the hex
// SHA-256 of the deterministic JSON encoding of its exported spec, with
// the network's own name cleared. Because the export resolves every
// default (stride, auto-names, kernel form) and the name does not
// contribute, any two specs that compile to the same layer table —
// including differently-named copies of one network — hash identically,
// the property the evaluation caches key on.
func (n *Network) SpecHash() string {
	s := n.Spec()
	s.Name = ""
	b, err := json.Marshal(s)
	if err != nil {
		// A Network is plain data; its spec always marshals.
		panic(fmt.Sprintf("model: marshaling spec of %q: %v", n.Name, err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Hash compiles the spec and returns its canonical content hash (see
// Network.SpecHash). Two specs spelling the same network — omitted versus
// explicit stride 1, square kernel versus equal kernel_h/kernel_w, named
// versus auto-named pools — hash identically.
func (s *Spec) Hash() (string, error) {
	n, err := s.Compile()
	if err != nil {
		return "", err
	}
	return n.SpecHash(), nil
}
