package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// metric is one reported figure: its value, unit and the number of samples
// it summarizes (1 for a count taken once).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// metricSet keeps metrics in insertion order, which is the order they are
// printed in.
type metricSet struct {
	names []string
	byKey map[string]metric
}

func newMetricSet() *metricSet { return &metricSet{byKey: map[string]metric{}} }

func (m *metricSet) set(name, unit string, value float64, samples int) {
	if _, ok := m.byKey[name]; !ok {
		m.names = append(m.names, name)
	}
	m.byKey[name] = metric{Value: value, Unit: unit, Samples: samples}
}

// print writes one aligned line per metric: name, value, unit, samples.
func (m *metricSet) print(w io.Writer) {
	width := 0
	for _, n := range m.names {
		width = max(width, len(n))
	}
	for _, n := range m.names {
		mt := m.byKey[n]
		fmt.Fprintf(w, "  %-*s %16.6g %-6s n=%d\n", width, n, mt.Value, mt.Unit, mt.Samples)
	}
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs is sorted in place. It is 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean is the geometric mean of positive values (0 for no samples).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// latencies collects per-operation durations in milliseconds.
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, ms(d)) }

// sortedKeys returns the keys of a map in order, for stable output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// shortErr trims an error to its first line for failure reports.
func shortErr(err error) string {
	s := err.Error()
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	return s
}
