package sim

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/model"
)

// The declarative network-spec types, re-exported so SDK users can build
// custom workloads without reaching into internal packages. A spec is pure
// data — JSON-serializable, hashable, and compiled through one shape-
// inference path shared with the built-in Table III zoo.
type (
	// NetworkSpec describes a custom network: name, input shape, layers.
	NetworkSpec = model.Spec
	// NetworkLayer is one declarative layer of a NetworkSpec.
	NetworkLayer = model.LayerSpec
	// NetworkDims is an activation shape (channels × height × width).
	NetworkDims = model.Dims
	// SpecError is the typed validation failure Compile reports.
	SpecError = model.SpecError
)

// NetworkInfo summarises a validated network spec: the compiled layer
// count, derived totals, and the canonical content hash that keys the
// evaluation caches. It is the response body of timelyd's POST /v1/networks.
type NetworkInfo struct {
	Name   string `json:"name"`
	Layers int    `json:"layers"`
	MACs   int64  `json:"macs"`
	Params int64  `json:"params"`
	Hash   string `json:"hash"`
}

func infoOf(n *model.Network) *NetworkInfo {
	return &NetworkInfo{
		Name:   n.Name,
		Layers: len(n.Layers),
		MACs:   n.TotalMACs(),
		Params: n.TotalParams(),
		Hash:   n.SpecHash(),
	}
}

// Registry is a namespace of custom networks registered by name: the
// names by-name evaluation resolves against. Each timelyd replica owns one,
// so a name resolves on the replica a request enters; RegisterNetwork and
// by-name Evaluate use a package default instance. The zero value is an
// empty registry, safe for concurrent use.
type Registry struct {
	mu   sync.RWMutex
	nets map[string]*registeredNet
}

// registeredNet is one registry entry: the network's canonical spec plus
// its summary. Both are immutable after registration.
type registeredNet struct {
	spec *NetworkSpec
	info *NetworkInfo
}

// defaultRegistry backs RegisterNetwork and by-name Evaluate.
var defaultRegistry Registry

// maxRegisteredNetworks caps a registry so an unauthenticated client
// looping POST /v1/networks with unique names cannot grow the process
// without bound.
const maxRegisteredNetworks = 1024

// RegisterNetwork registers spec (see Registry.Register) in the package
// default registry, which by-name Evaluate reads.
func RegisterNetwork(spec *NetworkSpec) (*NetworkInfo, error) {
	return defaultRegistry.Register(spec)
}

// Register validates a custom network spec and registers it under its
// name. Registration is idempotent for an identical spec; a name that is
// already taken by a different network — or by a built-in Table III
// benchmark — fails with ErrDuplicateNetwork. Invalid specs fail with
// ErrInvalidSpec wrapping the *SpecError detail, and the registry is
// capped (ErrRegistryFull once 1024 networks are registered) so it cannot
// grow a long-running service without bound.
func (g *Registry) Register(spec *NetworkSpec) (*NetworkInfo, error) {
	if spec == nil {
		return nil, fmt.Errorf("%w: nil spec", ErrInvalidSpec)
	}
	n, err := spec.Compile()
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidSpec, err)
	}
	if _, err := model.ByName(n.Name); err == nil {
		return nil, fmt.Errorf("%w: %q is a built-in Table III benchmark", ErrDuplicateNetwork, n.Name)
	}
	info := infoOf(n)
	g.mu.Lock()
	defer g.mu.Unlock()
	if prev, ok := g.nets[n.Name]; ok {
		if prev.info.Hash == info.Hash {
			return prev.info, nil
		}
		return nil, fmt.Errorf("%w: %q is already registered with a different layer table", ErrDuplicateNetwork, n.Name)
	}
	if len(g.nets) >= maxRegisteredNetworks {
		return nil, fmt.Errorf("%w: %d networks registered, the limit is %d",
			ErrRegistryFull, len(g.nets), maxRegisteredNetworks)
	}
	if g.nets == nil {
		g.nets = map[string]*registeredNet{}
	}
	g.nets[n.Name] = &registeredNet{spec: n.Spec(), info: info}
	return info, nil
}

// Resolve turns a request naming a registered network into one carrying
// the network's canonical spec inline: Network is kept and Spec is filled
// (shared, so not to be mutated). A request that carries a spec, names a
// zoo benchmark or targets the functional backend is left as it is. An
// unknown name fails with the request's validation error if it has one,
// as Keys reports it, else with ErrUnknownNetwork.
func (g *Registry) Resolve(req *EvalRequest) error {
	if req.Spec != nil || req.Backend == "functional" || model.IsBenchmark(req.Network) {
		return nil
	}
	g.mu.RLock()
	e, ok := g.nets[req.Network]
	g.mu.RUnlock()
	if ok {
		req.Spec = e.spec
		return nil
	}
	if _, err := req.resolve(); err != nil {
		return err
	}
	return fmt.Errorf("%w: %q (backend %q evaluates the Table III suite and registered custom networks)",
		ErrUnknownNetwork, req.Network, req.Backend)
}

// Networks lists the registered networks, sorted by name.
func (g *Registry) Networks() []*NetworkInfo {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]*NetworkInfo, 0, len(g.nets))
	for _, e := range g.nets {
		out = append(out, e.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ZooNetworks lists the built-in Table III benchmark names in the paper's
// order.
func ZooNetworks() []string { return model.BenchmarkNames() }

// ZooSpec exports the declarative spec of a built-in Table III benchmark —
// a ready template for custom networks, and the proof that the zoo itself
// flows through the same spec pipeline. It fails with ErrUnknownNetwork
// for names outside the zoo.
func ZooSpec(name string) (*NetworkSpec, error) {
	n, err := model.ByName(name)
	if err != nil {
		return nil, fmt.Errorf("%w: %q is not a Table III benchmark", ErrUnknownNetwork, name)
	}
	return n.Spec(), nil
}
