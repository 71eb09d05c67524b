package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// A server that stalls once must charge the stall to every request queued
// behind it: latency runs from the due time, nothing is dropped, and the
// wait for the connection is part of the latency.
func TestStallIsChargedToQueuedRequests(t *testing.T) {
	const stall = 200 * time.Millisecond
	const every = 10 * time.Millisecond
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/work" && calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.Write([]byte("{}\n"))
	}))
	defer srv.Close()

	var ops []Op
	for i := 0; i < 40; i++ {
		ops = append(ops, Op{Due: time.Duration(i) * every, Path: "/work"})
	}
	samples := Drive(context.Background(), []string{srv.URL}, 1, ops)

	if len(samples) != len(ops) {
		t.Fatalf("got %d samples for %d ops", len(samples), len(ops))
	}
	if got := calls.Load(); got != int32(len(ops)) {
		t.Fatalf("server saw %d requests, want %d: the generator dropped some", got, len(ops))
	}
	for i, s := range samples {
		if s.Status != http.StatusOK {
			t.Fatalf("op %d: status %d (%s)", i, s.Status, s.Err)
		}
		if s.Due != ops[i].Due {
			t.Fatalf("op %d: sample due %v, op due %v", i, s.Due, ops[i].Due)
		}
		if s.Start < s.Due || s.End < s.Start {
			t.Fatalf("op %d: times out of order: due %v start %v end %v", i, s.Due, s.Start, s.End)
		}
	}
	// Every op due during the stall waited for the stalled connection; its
	// latency covers the rest of the stall, counted from its due time.
	queued := 0
	for i, s := range samples {
		if s.Due >= stall {
			continue
		}
		queued++
		if s.Latency() < stall-s.Due {
			t.Errorf("op %d due %v: latency %v, want at least %v (the rest of the stall)",
				i, s.Due, s.Latency(), stall-s.Due)
		}
		if i > 0 && s.Start-s.Due < stall-s.Due-every {
			t.Errorf("op %d due %v: waited %v for the connection, want about %v",
				i, s.Due, s.Start-s.Due, stall-s.Due)
		}
		// The round trip alone would hide the stall: that is the
		// dispatch-time measurement this harness must not make.
		if i > 0 && s.RoundTrip() >= stall/2 {
			t.Errorf("op %d: round trip %v; only op 0 should have stalled", i, s.RoundTrip())
		}
	}
	if queued < 10 {
		t.Fatalf("only %d ops were due during the stall", queued)
	}
}

func TestCutElapsed(t *testing.T) {
	body := []byte("{\n  \"backend\": \"timely\",\n  \"elapsed_ms\": 12.5\n}\n")
	norm, v := cutElapsed(body)
	if v != 12.5 {
		t.Fatalf("elapsed = %v, want 12.5", v)
	}
	if want := "{\n  \"backend\": \"timely\",\n  \"elapsed_ms\": \n}\n"; string(norm) != want {
		t.Fatalf("normalised body %q, want %q", norm, want)
	}
	other := []byte("{\n  \"backend\": \"timely\",\n  \"elapsed_ms\": 0.001\n}\n")
	if n2, _ := cutElapsed(other); string(n2) != string(norm) {
		t.Fatalf("bodies differing only in elapsed_ms normalise differently")
	}
	if _, v := cutElapsed([]byte(`{"status":"ok"}`)); v != -1 {
		t.Fatalf("body without elapsed_ms gave %v, want -1", v)
	}
}

// The generators are pure functions of the seed.
func TestSchedulesAreSeeded(t *testing.T) {
	for _, gen := range []func(uint64, float64) []Op{hitSchedule, sweepSchedule} {
		a, b, c := gen(7, 2), gen(7, 2), gen(8, 2)
		if len(a) != len(b) {
			t.Fatalf("same seed, %d vs %d ops", len(a), len(b))
		}
		same := len(a) == len(c)
		for i := range a {
			if a[i].Due != b[i].Due || string(a[i].Body) != string(b[i].Body) || a[i].Entry != b[i].Entry {
				t.Fatalf("same seed, op %d differs", i)
			}
			if same && string(a[i].Body) != string(c[i].Body) {
				same = false
			}
		}
		if same {
			t.Fatalf("different seeds gave the same schedule")
		}
	}
}
