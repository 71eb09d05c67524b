package experiments

// Shared heavy inputs — benchmark networks, baseline accelerator
// evaluations, and the trained classifiers behind the accuracy/defect
// studies — are memoized here so that experiments running concurrently (or
// repeatedly within one process) compute each of them exactly once. Every
// cached value is treated as immutable after construction: experiments only
// read ledgers, networks and quantized models, so sharing across goroutines
// is safe.

import (
	"fmt"
	"sync"

	"repro/internal/accel"
	"repro/internal/batchq"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/workload"
)

// memo is a sync.Once-per-key cache over one bounded LRU (batchq.Cache):
// the first Do for a key computes, every other caller (including
// concurrent ones) waits and shares the result. Every memo has a cap, so
// a client-controlled key space (unique spec hashes, seeds, chip counts)
// churns the cold end instead of growing the process, while a hot key
// keeps hitting through an arbitrarily long scan of cold keys. An entry
// evicted while still computing keeps serving the callers already
// attached to it; only future lookups recompute.
type memo[V any] struct {
	lru *batchq.Cache[*memoEntry[V]]
}

type memoEntry[V any] struct {
	once sync.Once
	val  V
	err  error
}

// newMemo returns a memo holding at most limit entries.
func newMemo[V any](limit int) memo[V] {
	return memo[V]{lru: batchq.NewCache[*memoEntry[V]](limit)}
}

func (m memo[V]) Do(key string, f func() (V, error)) (V, error) {
	e, _ := m.lru.GetOrPut(key, &memoEntry[V]{})
	e.once.Do(func() { e.val, e.err = f() })
	return e.val, e.err
}

// Memo caps. Each sits above the distinct keys one process inserts in
// `timely all` (15 networks, 132 evaluations, 1 MLP seed, 1 CNN seed) and
// in the timelybench workloads (at most ~720 evaluations per serve-hit
// replica over a 25 s run, and 2 seeds of each trained model in the
// serve-sweep server), so neither ever evicts. Past its cap a
// client-controlled key stream (seeds, chip counts, spec hashes)
// recomputes its cold keys instead of growing the process.
const (
	networkEntries = 32   // Table III benchmarks
	evalEntries    = 4096 // zoo and spec evaluations, one budget for both
	mlpEntries     = 4    // trained §VI-B classifiers, ~420 KB each
	cnnEntries     = 4    // trained defect-study CNNs, ~530 KB each
)

var (
	networkCache = newMemo[*model.Network](networkEntries)
	evalCache    = newMemo[*accel.Result](evalEntries)
	mlpCache     = newMemo[*trainedMLP](mlpEntries)
	cnnCache     = newMemo[*trainedCNN](cnnEntries)
)

// ResetCaches drops every memoized input so the next run recomputes from
// scratch. The benchmarks use it to time cold executions.
func ResetCaches() {
	networkCache.lru.Clear()
	evalCache.lru.Clear()
	mlpCache.lru.Clear()
	cnnCache.lru.Clear()
}

// network returns the memoized Table III benchmark. The returned Network is
// shared — callers must not mutate it.
func network(name string) (*model.Network, error) {
	return networkCache.Do(name, func() (*model.Network, error) {
		return model.ByName(name)
	})
}

// benchmarks returns the memoized full Table III suite in the paper's order.
func benchmarks() []*model.Network {
	names := model.BenchmarkNames()
	out := make([]*model.Network, len(names))
	for i, name := range names {
		n, err := network(name)
		if err != nil {
			panic(err)
		}
		out[i] = n
	}
	return out
}

// Eval returns the memoized analytic evaluation of one Table III benchmark
// on one backend — "timely", "prime" or "isaac" — at the given deployment.
// It is the entry point the public sim facade shares with the experiment
// suite, so a service evaluating the same (backend, deployment, network)
// as a running experiment computes it exactly once. bits selects TIMELY's
// operand precision and is ignored by the fixed-precision baselines
// (PRIME is 8-bit, ISAAC 16-bit by design).
func Eval(backend string, bits, chips int, network string) (*accel.Result, error) {
	switch backend {
	case "timely":
		return evalTimely(bits, chips, network)
	case "prime":
		return evalPrime(chips, network)
	case "isaac":
		return evalIsaac(chips, network)
	}
	return nil, fmt.Errorf("experiments: unknown analytic backend %q", backend)
}

// EvalSpec returns the memoized analytic evaluation of a custom compiled
// network at the shared design point, keyed by the canonical spec hash of
// its layer table (model.Network.SpecHash) rather than its name: two
// differently-named or differently-spelled specs that compile to the same
// network share one cache entry, and a custom network can never collide
// with a Table III benchmark's entry.
func EvalSpec(backend string, bits, chips int, n *model.Network) (*accel.Result, error) {
	var acc accel.Accelerator
	key := fmt.Sprintf("%s/%d/spec:%s", backend, chips, n.SpecHash())
	switch backend {
	case "timely":
		key = fmt.Sprintf("timely/%d/%d/spec:%s", bits, chips, n.SpecHash())
		acc = accel.NewTimely(bits, chips)
	case "prime":
		acc = accel.NewPrime(chips)
	case "isaac":
		acc = accel.NewIsaac(chips)
	default:
		return nil, fmt.Errorf("experiments: unknown analytic backend %q", backend)
	}
	return evalCache.Do(key, func() (*accel.Result, error) {
		return acc.Evaluate(n)
	})
}

// evalTimely returns the memoized TIMELY evaluation of one benchmark.
func evalTimely(bits, chips int, name string) (*accel.Result, error) {
	key := fmt.Sprintf("timely/%d/%d/%s", bits, chips, name)
	return evalCache.Do(key, func() (*accel.Result, error) {
		n, err := network(name)
		if err != nil {
			return nil, err
		}
		return accel.NewTimely(bits, chips).Evaluate(n)
	})
}

// evalPrime returns the memoized PRIME evaluation of one benchmark.
func evalPrime(chips int, name string) (*accel.Result, error) {
	key := fmt.Sprintf("prime/%d/%s", chips, name)
	return evalCache.Do(key, func() (*accel.Result, error) {
		n, err := network(name)
		if err != nil {
			return nil, err
		}
		return accel.NewPrime(chips).Evaluate(n)
	})
}

// evalIsaac returns the memoized ISAAC evaluation of one benchmark.
func evalIsaac(chips int, name string) (*accel.Result, error) {
	key := fmt.Sprintf("isaac/%d/%s", chips, name)
	return evalCache.Do(key, func() (*accel.Result, error) {
		n, err := network(name)
		if err != nil {
			return nil, err
		}
		return accel.NewIsaac(chips).Evaluate(n)
	})
}

// trainedMLP bundles the §VI-B synthetic classifier: the float model, its
// 8-bit quantization, and the held-out test split.
type trainedMLP struct {
	m    *workload.MLP
	q    *workload.QuantMLP
	test *workload.Dataset
}

// accuracyMLP trains (once per seed) the noise-aware synthetic classifier
// shared by the accuracy study and the noise sweep.
func accuracyMLP(seed uint64) (*trainedMLP, error) {
	key := fmt.Sprintf("mlp/%d", seed)
	return mlpCache.Do(key, func() (*trainedMLP, error) {
		rng := stats.NewRNG(seed)
		ds := workload.SyntheticClusters(rng, 2400, 16, 4, 0.30)
		train, test := ds.Split(0.8)
		m := workload.NewMLP(rng, 16, 48, 4)
		// Noise-aware training (§VI-B: Gaussian noise added during training).
		m.TrainWithNoise(train, rng, 30, 0.05, 0.02)
		q, err := workload.Quantize(m, train, 8)
		if err != nil {
			return nil, err
		}
		return &trainedMLP{m: m, q: q, test: test}, nil
	})
}

// trainedCNN bundles the defect-study CNN and its test split.
type trainedCNN struct {
	cnn  *workload.CNN
	test *workload.ImageDataset
}

// defectCNN trains (once per seed) the synthetic-image CNN the stuck-at
// fault ablation maps onto faulty crossbars.
func defectCNN(seed uint64) (*trainedCNN, error) {
	key := fmt.Sprintf("cnn/%d", seed)
	return cnnCache.Do(key, func() (*trainedCNN, error) {
		rng := stats.NewRNG(seed)
		ds := workload.SyntheticImages(rng, 600, 12, 4, 0.05)
		train, test := ds.Split(0.8)
		cnn := workload.NewCNN(rng, 8, 7)
		if _, err := cnn.Train(rng, train, 32, 25, 0.05); err != nil {
			return nil, err
		}
		return &trainedCNN{cnn: cnn, test: test}, nil
	})
}
