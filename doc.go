// Package repro is a from-scratch Go reproduction of "TIMELY: Pushing Data
// Movements and Interfaces in PIM Accelerators Towards Local and in Time
// Domain" (Li et al., ISCA 2020): a functional simulator of the time-domain
// ReRAM processing-in-memory datapath, analytic architecture models of
// TIMELY and its PRIME/ISAAC baselines, the 15-network benchmark zoo, and a
// concurrent harness regenerating every table and figure of the paper's
// evaluation with deterministic text, CSV and JSON output.
//
// The public API is the sim package: one context-aware call,
// sim.Evaluate(ctx, &sim.EvalRequest{...}), over the analytic accelerators
// ("timely", "prime", "isaac"), the functional Monte-Carlo simulator
// ("functional") and the event-driven timing simulator ("timing"). Custom networks are first-class: any conv/fc/
// pool topology spelled as a declarative sim.NetworkSpec (JSON) compiles
// through the same spec pipeline as the built-in zoo and evaluates via
// sim.Evaluate, timely evaluate -network @spec.json, or the service's
// POST /v1/networks + /v1/evaluate. cmd/timelyd serves it all over HTTP.
//
// Run the harness with
//
//	go run ./cmd/timely all
//
// (see cmd/timely for the -format/-out/-par/-timeout flags), or the
// service with
//
//	go run ./cmd/timelyd
//
// See README.md for the tour, DESIGN.md for the system inventory,
// per-experiment index and the public API & service section, and
// EXPERIMENTS.md for paper-vs-measured results. The bench harness lives in
// bench_test.go; run it with
//
//	go test -bench=. -benchmem
package repro
