package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeSpec drops a custom network spec file and returns its path.
func writeSpec(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const cliSpec = `{
	"name": "cli-net",
	"input": {"c": 3, "h": 32, "w": 32},
	"layers": [
		{"name": "conv1", "kind": "conv", "filters": 16, "kernel": 3, "pad": 1},
		{"kind": "maxpool", "kernel": 2, "stride": 2},
		{"name": "fc", "kind": "fc", "units": 10}
	]
}`

func TestEvaluateZooNetworkText(t *testing.T) {
	out := runOut(t, "evaluate", "-network", "CNN-1")
	for _, want := range []string{"backend", "timely", "CNN-1", "energy/image", "throughput", "area", "fits"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "spec hash") {
		t.Errorf("zoo evaluation reports a spec hash:\n%s", out)
	}
}

func TestEvaluateCustomSpecFile(t *testing.T) {
	path := writeSpec(t, cliSpec)
	out := runOut(t, "evaluate", "-network", "@"+path)
	if !strings.Contains(out, "cli-net") || !strings.Contains(out, "spec hash") {
		t.Errorf("custom spec output:\n%s", out)
	}

	// JSON form carries the full typed result.
	raw := runOut(t, "evaluate", "-network", "@"+path, "-format", "json", "-chips", "2")
	var res struct {
		Network  string  `json:"network"`
		Chips    int     `json:"chips"`
		Energy   float64 `json:"energy_mj_per_image"`
		IPS      float64 `json:"images_per_sec"`
		Area     float64 `json:"area_mm2"`
		SpecHash string  `json:"spec_hash"`
	}
	if err := json.Unmarshal([]byte(raw), &res); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, raw)
	}
	if res.Network != "cli-net" || res.Chips != 2 || res.Energy <= 0 || res.IPS <= 0 ||
		res.Area <= 0 || res.SpecHash == "" {
		t.Errorf("result = %+v", res)
	}

	// The same spec runs on a baseline backend.
	out = runOut(t, "evaluate", "-network", "@"+path, "-backend", "prime")
	if !strings.Contains(out, "prime") {
		t.Errorf("prime output:\n%s", out)
	}
}

// runErr invokes the CLI expecting failure and returns the error text.
func runErr(t *testing.T, args ...string) string {
	t.Helper()
	err := run(args, io.Discard, io.Discard)
	if err == nil {
		t.Fatalf("timely %v succeeded, want error", args)
	}
	return err.Error()
}

func TestEvaluateErrors(t *testing.T) {
	if msg := runErr(t, "evaluate"); !strings.Contains(msg, "-network is required") {
		t.Errorf("missing-network error = %q", msg)
	}
	if msg := runErr(t, "evaluate", "-network", "GPT-7"); !strings.Contains(msg, "unknown network") {
		t.Errorf("unknown-network error = %q", msg)
	}
	if msg := runErr(t, "evaluate", "-network", "@/does/not/exist.json"); !strings.Contains(msg, "reading network spec") {
		t.Errorf("missing-file error = %q", msg)
	}

	bad := writeSpec(t, `{"name":"x","input":{"c":1,"h":4,"w":4},"layers":[{"kind":"conv","filters":0,"kernel":3}]}`)
	if msg := runErr(t, "evaluate", "-network", "@"+bad); !strings.Contains(msg, "filters") {
		t.Errorf("invalid-spec error = %q", msg)
	}

	unknownField := writeSpec(t, `{"name":"x","input":{"c":1,"h":4,"w":4},"layers":[{"kind":"fc","units":2,"dropout":0.5}]}`)
	if msg := runErr(t, "evaluate", "-network", "@"+unknownField); !strings.Contains(msg, "dropout") {
		t.Errorf("unknown-field error = %q", msg)
	}

	if msg := runErr(t, "evaluate", "-network", "CNN-1", "-format", "yaml"); !strings.Contains(msg, "yaml") {
		t.Errorf("format error = %q", msg)
	}
	if msg := runErr(t, "evaluate", "-network", "CNN-1", "stray"); !strings.Contains(msg, "stray") {
		t.Errorf("stray-arg error = %q", msg)
	}
}

// TestEvaluateFunctionalBackend routes the Monte-Carlo backend through the
// subcommand, with the explicit-zero noise distinction intact.
func TestEvaluateFunctionalBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the synthetic classifier")
	}
	out := runOut(t, "evaluate", "-network", "mlp", "-backend", "functional", "-trials", "2", "-noise", "0")
	if !strings.Contains(out, "analog acc") || !strings.Contains(out, "trials") {
		t.Errorf("functional output:\n%s", out)
	}
	if !strings.Contains(out, "sampler") || !strings.Contains(out, "v3") {
		t.Errorf("the v3 stream contract is missing from output:\n%s", out)
	}
}

// TestEvaluateSamplerErrors: the evaluate subcommand has no
// stream-contract flag; every former spelling, v3 included, fails as an
// undefined flag on any backend.
func TestEvaluateSamplerErrors(t *testing.T) {
	for _, args := range [][]string{
		{"evaluate", "-network", "mlp", "-backend", "functional", "-sampler", "v3"},
		{"evaluate", "-network", "cnn", "-backend", "functional", "-sampler", "v1"},
		{"evaluate", "-network", "VGG-D", "-backend", "timely", "-sampler", "v3"},
	} {
		if err := run(args, io.Discard, io.Discard); err == nil ||
			!strings.Contains(err.Error(), "flag provided but not defined: -sampler") {
			t.Errorf("%v: err = %v, want the undefined-flag error", args, err)
		}
	}
}

// TestOutDirCreatedForNestedPath pins the -out satellite: a deep path that
// does not exist yet is created rather than assumed.
func TestOutDirCreatedForNestedPath(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "deep", "nested", "artifacts")
	if got := runOut(t, "table5", "-out", dir); got != "" {
		t.Errorf("-out mode wrote %d bytes to stdout", len(got))
	}
	if _, err := os.Stat(filepath.Join(dir, "table5.txt")); err != nil {
		t.Errorf("artifact not written into created directory: %v", err)
	}

	// A path blocked by a regular file surfaces a clear error.
	block := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(block, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run([]string{"table5", "-out", filepath.Join(block, "sub")}, &out, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "creating -out directory") {
		t.Errorf("blocked -out error = %v", err)
	}
}
