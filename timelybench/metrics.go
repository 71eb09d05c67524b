package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/stats"
)

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Metrics maps metric names to values.
type Metrics map[string]Metric

func (m Metrics) set(name, unit string, v float64) { m[name] = Metric{Value: v, Unit: unit} }

// merge copies src into m, keeping m's value where both have the name.
func (m Metrics) merge(src Metrics) {
	for k, v := range src {
		if _, ok := m[k]; !ok {
			m[k] = v
		}
	}
}

// print writes the metrics one per line, sorted by name.
func (m Metrics) print(w io.Writer, prefix string) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%s%-32s %14.6g %s\n", prefix, k, m[k].Value, m[k].Unit)
	}
}

// percentile returns the p-th percentile (0..100) of xs, linearly
// interpolated; 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return stats.PercentileSorted(s, p)
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// bracketRatios returns xs[i] ÷ the mean of ctl[i] and ctl[i+1]: each
// measurement against the two control runs made just before and after it.
func bracketRatios(xs, ctl []float64) []float64 {
	out := make([]float64, len(xs))
	for i := range xs {
		out[i] = ratio(xs[i], (ctl[i]+ctl[i+1])/2)
	}
	return out
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
