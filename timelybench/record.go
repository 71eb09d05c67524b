package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// runRecord is what each run records next to its metrics, so a noisy
// neighbour can be told apart from a regression: what was measured, on
// what, and how loaded the host was before and after.
type runRecord struct {
	Workload      string  `json:"workload"`
	Seed          uint64  `json:"seed"`
	Seconds       float64 `json:"seconds"`
	Trace         bool    `json:"trace"`
	Started       string  `json:"started"`
	Commit        string  `json:"commit"`
	SourceSHA256  string  `json:"source_sha256"`
	GoVersion     string  `json:"go_version"`
	NumCPU        int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	LoadavgBefore string  `json:"loadavg_before"`
	LoadavgAfter  string  `json:"loadavg_after"`
	// StealPct is the share of CPU time the hypervisor took from this
	// host's CPUs during the run (/proc/stat steal), the usual noisy
	// neighbour on a virtual machine.
	StealPct float64 `json:"steal_pct"`

	cpu0 []int64
}

func newRecord(root, out, workload string, seed uint64, seconds float64, trace bool) *runRecord {
	r := &runRecord{
		Workload:      workload,
		Seed:          seed,
		Seconds:       seconds,
		Trace:         trace,
		Started:       time.Now().UTC().Format(time.RFC3339),
		Commit:        "none (not a git checkout)",
		SourceSHA256:  sourceDigest(root, out),
		GoVersion:     runtime.Version(),
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		LoadavgBefore: loadavg(),
		cpu0:          cpuTicks(),
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if b, err := cmd.Output(); err == nil {
		r.Commit = strings.TrimSpace(string(b))
	}
	return r
}

func loadavg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unavailable"
	}
	return strings.TrimSpace(string(b))
}

// sourceDigest hashes the paths and contents of the tree's regular files,
// skipping hidden entries and the build directory: it names the code
// under test even where there is no git metadata.
func sourceDigest(root, out string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if path != root && (strings.HasPrefix(d.Name(), ".") || path == out) {
			if d.IsDir() {
				return filepath.SkipDir
			}
			return nil
		}
		if !d.Type().IsRegular() {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		io.WriteString(h, rel+"\x00")
		io.Copy(h, f)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}

// finish records the host's state after the run.
func (r *runRecord) finish() {
	r.LoadavgAfter = loadavg()
	cpu1 := cpuTicks()
	if len(r.cpu0) > 7 && len(cpu1) == len(r.cpu0) {
		var total int64
		for i := range cpu1 {
			total += cpu1[i] - r.cpu0[i]
		}
		r.StealPct = 100 * float64(cpu1[7]-r.cpu0[7]) / float64(max(total, 1))
	}
}

// cpuTicks reads the aggregate CPU line of /proc/stat: user, nice,
// system, idle, iowait, irq, softirq, steal, ...
func cpuTicks() []int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return nil
	}
	var out []int64
	for _, x := range f[1:] {
		v, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}
