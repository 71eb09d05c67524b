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

// registeredNet is one custom registry entry: the compiled network plus
// its summary. Both are immutable after registration.
type registeredNet struct {
	net  *model.Network
	info *NetworkInfo
}

var (
	netMu      sync.RWMutex
	customNets = map[string]*registeredNet{}
)

// maxRegisteredNetworks caps the process-wide custom registry so an
// unauthenticated client looping POST /v1/networks with unique names
// cannot grow the process without bound (a variable, not a constant, so
// tests can lower it).
var maxRegisteredNetworks = 1024

// RegisterNetwork validates a custom network spec and registers it under
// its name, making it evaluable by name through the analytic and timing
// backends (and through timelyd's /v1/evaluate). Registration is idempotent for an
// identical spec; a name that is already taken by a different network — or
// by a built-in Table III benchmark — fails with ErrDuplicateNetwork.
// Invalid specs fail with ErrInvalidSpec wrapping the *SpecError detail,
// and the registry is capped (ErrRegistryFull once 1024 networks are
// registered) so it cannot grow a long-running service without bound.
func RegisterNetwork(spec *NetworkSpec) (*NetworkInfo, error) {
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
	netMu.Lock()
	defer netMu.Unlock()
	if prev, ok := customNets[n.Name]; ok {
		if prev.info.Hash == info.Hash {
			return prev.info, nil
		}
		return nil, fmt.Errorf("%w: %q is already registered with a different layer table", ErrDuplicateNetwork, n.Name)
	}
	if len(customNets) >= maxRegisteredNetworks {
		return nil, fmt.Errorf("%w: %d networks registered, the limit is %d",
			ErrRegistryFull, len(customNets), maxRegisteredNetworks)
	}
	customNets[n.Name] = &registeredNet{net: n, info: info}
	return info, nil
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

// registeredNetwork resolves a custom-registry name. The returned network
// is shared and must not be mutated.
func registeredNetwork(name string) (*model.Network, bool) {
	netMu.RLock()
	defer netMu.RUnlock()
	e, ok := customNets[name]
	if !ok {
		return nil, false
	}
	return e.net, true
}

// RegisteredNetworks lists the custom networks registered in this process,
// sorted by name.
func RegisteredNetworks() []*NetworkInfo {
	netMu.RLock()
	defer netMu.RUnlock()
	out := make([]*NetworkInfo, 0, len(customNets))
	for _, e := range customNets {
		out = append(out, e.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
