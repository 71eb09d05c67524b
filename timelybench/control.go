package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strings"
	"syscall"
	"time"
)

// The controls are fixed programs built from this directory alone, so no
// change to the tree under test changes them. Each measurement of the
// program runs next to one of its control, and the gated figures are
// ratios of the two: on a shared virtual machine the host's load moved
// the raw CPU time and latency of serve-hit by 20–35% between minutes,
// and the control, run in the same minute, moves with it.

// controlPad is padding in each control response, so its answers are
// about the size of timelyd's.
var controlPad = strings.Repeat("x", 2048)

// serveControl runs the control server, a stdlib HTTP server standing in
// for one timelyd replica on the same request stream. It reads each POST
// body, forwards it once to the peer its hash names (as a two-replica
// ring would), and answers with the body decoded and re-encoded indented.
func serveControl(addr, self string, peers []string) error {
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "ok\n") })
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		raw, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		sum := sha256.Sum256(raw)
		if owner := peers[int(sum[0])%len(peers)]; owner != self && r.Header.Get("X-Hop") == "" {
			req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, "http://"+owner+r.URL.Path, bytes.NewReader(raw))
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			req.Header.Set("X-Hop", "1")
			resp, err := client.Do(req)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadGateway)
				return
			}
			defer resp.Body.Close()
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(resp.StatusCode)
			io.Copy(w, resp.Body)
			return
		}
		var v any
		if err := json.Unmarshal(raw, &v); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		out, err := json.MarshalIndent(map[string]any{"request": v, "sum": sum, "pad": controlPad}, "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(append(out, '\n'))
	})
	return http.ListenAndServe(addr, mux)
}

// controlFlags are the arguments that make a spawned harness binary serve
// as control replica i of the fleet at addrs (spawnServer adds -addr).
func controlFlags(addrs []string, i int) []string {
	return []string{"-control", "http", "-peers", strings.Join(addrs, ","), "-self", addrs[i]}
}

// computeControl is the suite's control: a fixed single-threaded job of
// dense float arithmetic, sorting and map traffic, the kinds of work
// `timely all` does, taking about a second. It prints a checksum so none
// of the work can be skipped.
func computeControl() {
	r := rand.New(rand.NewPCG(1, 2))
	const n = 128
	a, b, c := make([]float64, n*n), make([]float64, n*n), make([]float64, n*n)
	for i := range a {
		a[i], b[i] = r.NormFloat64(), r.NormFloat64()
	}
	sum := 0.0
	for rep := 0; rep < 100; rep++ {
		for i := 0; i < n; i++ {
			for k := 0; k < n; k++ {
				aik := a[i*n+k]
				for j := 0; j < n; j++ {
					c[i*n+j] += aik * b[k*n+j]
				}
			}
		}
		for i := range a {
			a[i] = math.Tanh(c[i] / n)
		}
		sum += a[rep]
	}
	xs := make([]float64, 1<<19)
	m := map[uint64]float64{}
	for rep := 0; rep < 6; rep++ {
		for i := range xs {
			xs[i] = r.Float64()
			m[r.Uint64()%(1<<16)] += xs[i]
		}
		sort.Float64s(xs)
		sum += xs[len(xs)/2]
	}
	fmt.Println(sum, len(m))
}

// controlRun is one run of the compute control as a child process.
type controlRun struct {
	wall, cpu time.Duration
}

// runComputeControl runs the compute control once and times it.
func runComputeControl() (controlRun, error) {
	self, err := os.Executable()
	if err != nil {
		return controlRun{}, fmt.Errorf("locating the harness binary for the control: %w", err)
	}
	cmd := exec.Command(self, "-control", "compute")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if out, err := cmd.CombinedOutput(); err != nil {
		return controlRun{}, fmt.Errorf("compute control: %w: %s", err, clip(out))
	}
	ps := cmd.ProcessState
	return controlRun{wall: time.Since(t0), cpu: ps.UserTime() + ps.SystemTime()}, nil
}
