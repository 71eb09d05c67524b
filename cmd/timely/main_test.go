package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// runOut invokes the CLI and returns its stdout.
func runOut(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out, io.Discard); err != nil {
		t.Fatalf("timely %v: %v", args, err)
	}
	return out.String()
}

// cheapIDs are experiments without classifier training, fast enough to run
// unconditionally.
var cheapIDs = []string{"fig1c", "fig4", "fig5", "fig10", "fig11", "table4", "table5"}

func TestParallelOutputIdenticalCheap(t *testing.T) {
	args := append([]string(nil), cheapIDs...)
	serial := runOut(t, append(args, "-par", "1")...)
	parallel := runOut(t, append(args, "-par", "8")...)
	if serial != parallel {
		t.Errorf("-par 8 output differs from -par 1")
	}
	if !strings.Contains(serial, "Table IV") || !strings.Contains(serial, "Fig. 11") {
		t.Errorf("output missing expected sections")
	}
}

func TestAllParallelOutputIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite twice (trains classifiers)")
	}
	serial := runOut(t, "all", "-par", "1")
	// Drop the memoized inputs so the parallel run recomputes everything.
	experiments.ResetCaches()
	parallel := runOut(t, "all", "-par", "8")
	if serial != parallel {
		t.Errorf("timely all -par 8 output is not byte-identical to -par 1")
	}
}

func TestJSONOutDirWritesOneValidFilePerExperiment(t *testing.T) {
	dir := t.TempDir()
	args := append(append([]string(nil), cheapIDs...),
		"-format", "json", "-out", dir)
	if got := runOut(t, args...); got != "" {
		t.Errorf("-out mode still wrote %d bytes to stdout", len(got))
	}
	for _, id := range cheapIDs {
		raw, err := os.ReadFile(filepath.Join(dir, id+".json"))
		if err != nil {
			t.Fatalf("missing artifact: %v", err)
		}
		var doc struct {
			ID     string `json:"id"`
			Tables []struct {
				Headers []string   `json:"headers"`
				Rows    [][]string `json:"rows"`
			} `json:"tables"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Errorf("%s.json is not valid JSON: %v", id, err)
			continue
		}
		if doc.ID != id {
			t.Errorf("%s.json has id %q", id, doc.ID)
		}
		if len(doc.Tables) == 0 || len(doc.Tables[0].Rows) == 0 {
			t.Errorf("%s.json has no table rows", id)
		}
	}
}

func TestCSVFormat(t *testing.T) {
	out := runOut(t, "table5", "-format", "csv")
	if !strings.HasPrefix(out, "# Table V") {
		t.Errorf("CSV output missing title comment:\n%s", out)
	}
	if !strings.Contains(out, "layer,PRIME,TIMELY,saved by") {
		t.Errorf("CSV output missing header row:\n%s", out)
	}
}

func TestListAndUnknown(t *testing.T) {
	out := runOut(t, "list")
	for _, id := range []string{"fig4", "table5", "ablation", "accuracy"} {
		if !strings.Contains(out, id) {
			t.Errorf("list output missing %s", id)
		}
	}
	if !strings.Contains(out, "backends") || !strings.Contains(out, "timing") {
		t.Errorf("list output missing the backend inventory:\n%s", out)
	}
	if err := run([]string{"fig99"}, io.Discard, io.Discard); err == nil {
		t.Errorf("unknown experiment accepted")
	}
	if err := run([]string{"table5", "-format", "yaml"}, io.Discard, io.Discard); err == nil {
		t.Errorf("unknown format accepted")
	}
}

// TestSamplerFlag: the experiment harness has no stream-contract flag.
// Every former spelling, v3 included, fails as an undefined flag, and the
// usage text does not mention one.
func TestSamplerFlag(t *testing.T) {
	for _, v := range []string{"v3", "v1", ""} {
		for _, args := range [][]string{{"all", "-sampler", v}, {"table5", "-sampler=" + v}} {
			if err := run(args, io.Discard, io.Discard); err == nil ||
				!strings.Contains(err.Error(), "flag provided but not defined: -sampler") {
				t.Errorf("%v: err = %v, want the undefined-flag error", args, err)
			}
		}
	}
	if strings.Contains(runOut(t, "-h"), "sampler") {
		t.Error("usage still documents -sampler")
	}
}

func TestVerboseTimingSummary(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"table5", "-v"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errb.String(), "table5") || !strings.Contains(errb.String(), "ok") {
		t.Errorf("timing summary missing: %q", errb.String())
	}
}

func TestFlagsInterleaveWithCommandWords(t *testing.T) {
	want := runOut(t, "table5", "fig10", "-par", "2")
	for _, args := range [][]string{
		{"-par", "2", "table5", "fig10"},
		{"table5", "-par", "2", "fig10"},
		{"-format", "text", "table5", "-par", "2", "fig10"},
	} {
		if got := runOut(t, args...); got != want {
			t.Errorf("args %v changed output", args)
		}
	}
	// Flags on both sides of the command words, with -out.
	dir := t.TempDir()
	if err := run([]string{"-format", "json", "table5", "-out", dir}, io.Discard, io.Discard); err != nil {
		t.Fatalf("flags around command words: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "table5.json")); err != nil {
		t.Errorf("artifact not written: %v", err)
	}
	// "all" keeps its meaning with flags on both sides (full suite: slow).
	if !testing.Short() {
		if err := run([]string{"-format", "json", "all", "-out", t.TempDir()}, io.Discard, io.Discard); err != nil {
			t.Fatalf("flags around 'all': %v", err)
		}
	}
}

func TestHelpGoesToStdout(t *testing.T) {
	for _, arg := range []string{"-h", "--help", "help"} {
		var out, errb bytes.Buffer
		if err := run([]string{arg}, &out, &errb); err != nil {
			t.Errorf("%s: %v", arg, err)
		}
		if !strings.Contains(out.String(), "usage:") || errb.Len() != 0 {
			t.Errorf("%s: usage on wrong stream (stdout %d bytes, stderr %d)",
				arg, out.Len(), errb.Len())
		}
	}
}

func TestProfileFlagsWriteFiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	out := runOut(t, "fig1c", "-cpuprofile", cpu, "-memprofile", mem)
	if !strings.Contains(out, "===") {
		t.Fatalf("profiled run produced no artifact output: %q", out)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s not written: %v", p, err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
	// The profiled run must not perturb the artifact bytes.
	if plain := runOut(t, "fig1c"); plain != out {
		t.Fatal("output differs between profiled and plain runs")
	}
}

func TestListFormatJSON(t *testing.T) {
	out := runOut(t, "list", "-format", "json")
	var idx struct {
		Backends    []string `json:"backends"`
		Experiments []struct {
			ID          string `json:"id"`
			Paper       string `json:"paper"`
			Description string `json:"description"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal([]byte(out), &idx); err != nil {
		t.Fatalf("list -format json is not valid JSON: %v\n%s", err, out)
	}
	ids := map[string]bool{}
	for _, e := range idx.Experiments {
		ids[e.ID] = true
		if e.Paper == "" || e.Description == "" {
			t.Errorf("entry %q missing paper/description", e.ID)
		}
	}
	for _, want := range []string{"fig4", "table5", "accuracy", "ablation"} {
		if !ids[want] {
			t.Errorf("list -format json missing %s", want)
		}
	}
	backends := map[string]bool{}
	for _, b := range idx.Backends {
		backends[b] = true
	}
	for _, want := range []string{"timely", "prime", "isaac", "functional", "timing"} {
		if !backends[want] {
			t.Errorf("list -format json missing backend %s", want)
		}
	}
	// Flag order must not matter, and csv is not a list format.
	if got := runOut(t, "-format", "json", "list"); got != out {
		t.Errorf("flag position changed list output")
	}
	if err := run([]string{"list", "-format", "csv"}, io.Discard, io.Discard); err == nil {
		t.Errorf("list -format csv accepted")
	}
}

func TestParClampedToOne(t *testing.T) {
	want := runOut(t, "table5", "fig10", "-par", "1")
	for _, par := range []string{"0", "-4"} {
		if got := runOut(t, "table5", "fig10", "-par", par); got != want {
			t.Errorf("-par %s output differs from -par 1", par)
		}
	}
}

func TestTimeoutAbortsAndGenerousTimeoutPasses(t *testing.T) {
	// An already-expired deadline must abort before any experiment runs.
	err := run([]string{"fig4", "-timeout", "1ns"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Errorf("expired timeout err = %v, want deadline exceeded", err)
	}
	// A generous timeout must not change the output bytes.
	want := runOut(t, "table5")
	if got := runOut(t, "table5", "-timeout", "1m"); got != want {
		t.Errorf("-timeout 1m changed output")
	}
}
