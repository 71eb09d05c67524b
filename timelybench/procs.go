package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// build compiles the named commands of the module at root into outDir and
// returns their paths. Build time is not part of any metric.
func build(root, outDir string, cmds ...string) (map[string]string, error) {
	bin := filepath.Join(outDir, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return nil, err
	}
	paths := map[string]string{}
	for _, c := range cmds {
		out := filepath.Join(bin, c)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+c)
		cmd.Dir = root
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("building %s: %w", c, err)
		}
		paths[c] = out
	}
	return paths, nil
}

// server is one running timelyd child process.
type server struct {
	addr string
	cmd  *exec.Cmd
	log  *os.File
	exit chan error
	once sync.Once
}

// spawnServer starts timelyd on addr with the extra environment and
// flags, logging to logPath. The child is killed if the harness dies.
func spawnServer(bin, addr, logPath string, env, flags []string) (*server, error) {
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, flags...)...)
	cmd.Env = append(os.Environ(), env...)
	cmd.Stdout = lf
	cmd.Stderr = lf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, err
	}
	s := &server{addr: addr, cmd: cmd, log: lf, exit: make(chan error, 1)}
	go func() { s.exit <- cmd.Wait() }()
	return s, nil
}

// waitReady polls /healthz until it answers 200.
func (s *server) waitReady() error {
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(s.url() + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case err := <-s.exit:
			s.exit <- err
			return fmt.Errorf("timelyd on %s exited during start-up (%v); see %s", s.addr, err, s.log.Name())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timelyd on %s not healthy after 15s; see %s", s.addr, s.log.Name())
		}
	}
}

// startFleet spawns one timelyd per address with the environment and
// flags(i), then waits until every one is healthy.
func startFleet(bin, logDir string, addrs []string, env []string, flags func(i int) []string) (fleet, error) {
	var f fleet
	for i, a := range addrs {
		s, err := spawnServer(bin, a, filepath.Join(logDir, fmt.Sprintf("timelyd-%d.log", i)), env, flags(i))
		if err != nil {
			f.stop()
			return nil, err
		}
		f = append(f, s)
	}
	for _, s := range f {
		if err := s.waitReady(); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

func (s *server) url() string { return "http://" + s.addr }

// stop terminates the server (SIGTERM, then SIGKILL after 5 s) and waits
// until it has exited. Repeated calls are no-ops.
func (s *server) stop() {
	s.once.Do(func() {
		s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.exit:
		case <-time.After(5 * time.Second):
			s.cmd.Process.Kill()
			<-s.exit
		}
		s.log.Close()
	})
}

// cpuTime reads the CPU time the process's threads have run, summed from
// /proc/<pid>/task/*/schedstat: nanosecond run time, which excludes time
// the hypervisor stole, unlike tick-sampled /proc/<pid>/stat times.
func (s *server) cpuTime() (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", s.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		raw, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited since the listing
		}
		f := strings.Fields(string(raw))
		if len(f) < 1 {
			return 0, errors.New("malformed schedstat line")
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("malformed schedstat line: %w", err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// peakRSS reads the process's resident-set high-water mark (VmHWM) in MB.
func (s *server) peakRSS() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// metricz fetches the server's /metricz counters.
func (s *server) metricz() (map[string]int64, error) {
	resp, err := http.Get(s.url() + "/metricz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("decoding /metricz: %w", err)
	}
	return m, nil
}

// post sends one JSON body and returns the status and response body.
func post(url string, body []byte) (int, []byte, error) {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// fleet is a set of servers measured together.
type fleet []*server

func (f fleet) stop() {
	for _, s := range f {
		s.stop()
	}
}

func (f fleet) urls() []string {
	out := make([]string, len(f))
	for i, s := range f {
		out[i] = s.url()
	}
	return out
}

// cpuTime sums the fleet's CPU time.
func (f fleet) cpuTime() (time.Duration, error) {
	var total time.Duration
	for _, s := range f {
		c, err := s.cpuTime()
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// peakRSS sums the fleet's VmHWM.
func (f fleet) peakRSS() (float64, error) {
	var total float64
	for _, s := range f {
		r, err := s.peakRSS()
		if err != nil {
			return 0, err
		}
		total += r
	}
	return total, nil
}

// metricz sums the fleet's /metricz counters.
func (f fleet) metricz() (map[string]int64, error) {
	total := map[string]int64{}
	for _, s := range f {
		m, err := s.metricz()
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			total[k] += v
		}
	}
	return total, nil
}
