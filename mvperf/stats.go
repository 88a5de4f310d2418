package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// fineBuckets is the span of latencies latHist counts at exact
// nanosecond resolution; slower samples are kept individually.
const fineBuckets = 1 << 16

// latHist holds a latency sample exactly without growing with the
// number of fast requests: a count per nanosecond below fineBuckets ns
// (the cache-hit range) and every slower sample verbatim.
type latHist struct {
	fine *[fineBuckets]uint32
	slow []time.Duration
	n    int
}

func newLatHist() *latHist { return &latHist{fine: new([fineBuckets]uint32)} }

func (h *latHist) add(d time.Duration) {
	if d >= 0 && d < fineBuckets {
		h.fine[d]++
	} else {
		h.slow = append(h.slow, d)
	}
	h.n++
}

// merge adds o's samples to h.
func (h *latHist) merge(o *latHist) {
	for i, c := range o.fine {
		h.fine[i] += c
	}
	h.slow = append(h.slow, o.slow...)
	h.n += o.n
}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 1): the
// smallest sample with at least ⌈p·n⌉ samples at or below it. ok is
// false unless at least minBeyond samples lie beyond that rank.
func (h *latHist) percentile(p float64) (d time.Duration, ok bool) {
	rank := nearestRank(p, h.n)
	if rank == 0 {
		return 0, false
	}
	ok = h.n-rank >= minBeyond
	seen := 0
	for i, c := range h.fine {
		seen += int(c)
		if seen >= rank {
			return time.Duration(i), ok
		}
	}
	sort.Slice(h.slow, func(i, j int) bool { return h.slow[i] < h.slow[j] })
	return h.slow[rank-seen-1], ok
}

// supportsP95 reports whether n samples leave minBeyond beyond their
// p95.
func supportsP95(n int) bool { return n-nearestRank(0.95, n) >= minBeyond }

// nearestRank is the 1-based rank ⌈p·n⌉, or 0 for an empty sample.
func nearestRank(p float64, n int) int {
	if n == 0 {
		return 0
	}
	r := int(math.Ceil(p * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// median returns the middle of xs (mean of the middle two for an even
// count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// note is the human-readable context printed beside the value
	// (sample counts, denominators); not part of the JSON result.
	note string
}

// metrics is an ordered set of named figures.
type metrics struct {
	names []string
	byKey map[string]metric
}

func (m *metrics) set(name string, value float64, unit, note string, args ...any) {
	if m.byKey == nil {
		m.byKey = map[string]metric{}
	}
	if _, dup := m.byKey[name]; !dup {
		m.names = append(m.names, name)
	}
	m.byKey[name] = metric{Value: value, Unit: unit, note: fmt.Sprintf(note, args...)}
}

// setPercentile records the nearest-rank p-th percentile of h in
// milliseconds, noting the sample count and how many samples lie
// beyond it. It returns an error when fewer than minBeyond do: the
// figure is then too thinly supported to report.
func (m *metrics) setPercentile(name string, h *latHist, p float64) error {
	d, ok := h.percentile(p)
	beyond := h.n - nearestRank(p, h.n)
	m.set(name, float64(d.Nanoseconds())/1e6, "ms", "(n=%d, %d beyond)", h.n, beyond)
	if !ok {
		return fmt.Errorf("%s: %d samples leave %d beyond the percentile, want at least %d", name, h.n, beyond, minBeyond)
	}
	return nil
}
