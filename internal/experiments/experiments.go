// Package experiments regenerates every table and figure of the paper's
// evaluation (§VI). Each artifact has a typed Run function returning the
// rows/series the paper reports as report.Tables; rendering (text, CSV or
// JSON) is separate, so the cmd/timely harness can execute experiments
// concurrently and still emit deterministic, ID-ordered output. The
// per-experiment index lives in DESIGN.md; paper-vs-measured numbers are
// recorded in EXPERIMENTS.md.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/report"
)

// Experiment is one regenerable paper artifact.
type Experiment struct {
	// ID is the CLI name (fig4, table5, ...).
	ID string
	// Paper names the artifact ("Fig. 4(a-c)").
	Paper string
	// Description summarises what it shows.
	Description string
	// Run computes the experiment and returns its tables, one per panel.
	// It honours ctx: cancellation is checked between work units (benchmark
	// evaluations, Monte-Carlo trials, sweep points), so an in-flight run
	// aborts promptly with ctx.Err().
	Run func(ctx context.Context) ([]*report.Table, error)
}

// Render runs the experiment and writes its tables as aligned text.
func (e Experiment) Render(ctx context.Context, w io.Writer) error {
	tables, err := e.Run(ctx)
	if err != nil {
		return err
	}
	for _, t := range tables {
		if err := t.Render(w); err != nil {
			return err
		}
	}
	return nil
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns the registered experiments sorted by ID.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// IndexEntry is one row of the machine-readable experiment index — the
// shape `timely list -format json` and timelyd's GET /v1/experiments both
// serve.
type IndexEntry struct {
	ID          string `json:"id"`
	Paper       string `json:"paper"`
	Description string `json:"description"`
}

// Index returns the registered experiments' index rows in ID order.
func Index() []IndexEntry {
	all := All()
	out := make([]IndexEntry, len(all))
	for i, e := range all {
		out[i] = IndexEntry{ID: e.ID, Paper: e.Paper, Description: e.Description}
	}
	return out
}

// ByID looks an experiment up by CLI name.
func ByID(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// Result is the captured outcome of one experiment execution.
type Result struct {
	// Experiment identifies what ran.
	Experiment Experiment
	// Tables holds the computed artifact; nil when Err is set.
	Tables []*report.Table
	// Err is the experiment's failure, if any. One failing experiment does
	// not stop the others.
	Err error
	// Elapsed is the experiment's own wall-clock compute time.
	Elapsed time.Duration
}

// Document converts the result to its machine-readable form.
func (r Result) Document() *report.Document {
	return &report.Document{
		ID:          r.Experiment.ID,
		Title:       r.Experiment.Paper,
		Description: r.Experiment.Description,
		Tables:      r.Tables,
	}
}

// Options configures a Run.
type Options struct {
	// Par is the worker-goroutine count; values < 1 run one worker.
	Par int
}

// Run executes the given experiments on opts.Par worker goroutines and
// returns one Result per experiment, in input order regardless of completion
// order. Shared heavy inputs (benchmark networks, baseline evaluations,
// trained classifiers) are computed once and reused across experiments via
// the package caches. Cancelling ctx aborts promptly: experiments not yet
// started, and work units not yet executed inside a started experiment,
// are skipped and their Results carry ctx's error. A ctx that is never
// cancelled does not change a single output byte at any worker count.
func Run(ctx context.Context, exps []Experiment, opts Options) []Result {
	par := opts.Par
	if par < 1 {
		par = 1
	}
	// Heavy inner loops (Monte-Carlo trials, sweep draws) draw from one
	// shared token pool sized by the same parallelism budget, so par=1 is
	// a genuinely serial execution and overlapping heavy experiments
	// cannot multiply the worker count.
	setInnerPar(par)
	if par > len(exps) {
		par = len(exps)
	}
	results := make([]Result, len(exps))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				e := exps[i]
				if err := ctx.Err(); err != nil {
					results[i] = Result{Experiment: e, Err: err}
					continue
				}
				start := time.Now()
				tables, err := e.Run(ctx)
				results[i] = Result{
					Experiment: e,
					Tables:     tables,
					Err:        err,
					Elapsed:    time.Since(start),
				}
			}
		}()
	}
	for i := range exps {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return results
}

// WriteText writes results in order in the harness text format: a section
// header per experiment followed by its aligned tables. The first captured
// experiment error is returned (after writing the preceding sections).
func WriteText(w io.Writer, results []Result) error {
	for _, r := range results {
		e := r.Experiment
		if _, err := fmt.Fprintf(w, "\n=== %s — %s ===\n", e.Paper, e.Description); err != nil {
			return err
		}
		if r.Err != nil {
			return fmt.Errorf("%s: %w", e.ID, r.Err)
		}
		for _, t := range r.Tables {
			if err := t.Render(w); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteCSV writes results in order as CSV, each table preceded by a
// "# title" comment line and followed by a blank line.
func WriteCSV(w io.Writer, results []Result) error {
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("%s: %w", r.Experiment.ID, r.Err)
		}
		for _, t := range r.Tables {
			if t.Title != "" {
				if _, err := fmt.Fprintf(w, "# %s\n", t.Title); err != nil {
					return err
				}
			}
			if err := t.RenderCSV(w); err != nil {
				return err
			}
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteJSON writes results in order as one JSON array of artifact documents.
func WriteJSON(w io.Writer, results []Result) error {
	docs := make([]*report.Document, 0, len(results))
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("%s: %w", r.Experiment.ID, r.Err)
		}
		docs = append(docs, r.Document())
	}
	return report.WriteDocumentsJSON(w, docs)
}

// RunAll renders every registered experiment in ID order on one worker —
// the classic serial harness entry point. cmd/timely uses Run directly to
// control parallelism and cancellation.
func RunAll(w io.Writer) error {
	return WriteText(w, Run(context.Background(), All(), Options{Par: 1}))
}
