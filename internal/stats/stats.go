// Package stats provides the small statistical toolkit SINet's analyses
// use: empirical CDFs, histograms, percentiles and summary statistics.
// Everything operates on float64 slices and is allocation-conscious so the
// benchmark harness can call it in hot loops.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by operations that need at least one sample.
var ErrEmpty = errors.New("stats: empty sample set")

// Mean returns the arithmetic mean, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance, or NaN for an empty slice.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	var sum float64
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the smallest sample, or NaN for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest sample, or NaN for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (p in [0, 100]) using linear
// interpolation between order statistics, the same convention as numpy's
// default. The input need not be sorted.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

// Quantiles evaluates many quantiles (each q in [0, 1]) against one sorted
// copy of xs: the sort is paid once however many quantiles are requested.
// Returns NaNs for an empty sample set. This — via percentileSorted — is
// the package's single quantile implementation: Percentile, Median,
// Summarize, CDF.Quantile and the report layer's latency CDFs all route
// through the same interpolation, so no two outputs can disagree on what
// "p90" means.
func Quantiles(xs []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(xs) == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	for i, q := range qs {
		out[i] = percentileSorted(sorted, q*100)
	}
	return out
}

func percentileSorted(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 50th percentile.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Summary bundles the descriptive statistics the report tables print.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	P25    float64
	Median float64
	P75    float64
	P90    float64
	P95    float64
	Max    float64
}

// Summarize computes a Summary in one pass over a sorted copy.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		Min:    sorted[0],
		P25:    percentileSorted(sorted, 25),
		Median: percentileSorted(sorted, 50),
		P75:    percentileSorted(sorted, 75),
		P90:    percentileSorted(sorted, 90),
		P95:    percentileSorted(sorted, 95),
		Max:    sorted[len(sorted)-1],
	}
}

// String implements fmt.Stringer.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f sd=%.3f min=%.3f p50=%.3f p90=%.3f max=%.3f",
		s.N, s.Mean, s.StdDev, s.Min, s.Median, s.P90, s.Max)
}

// CDF is an empirical cumulative distribution function.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from samples (which it copies and sorts).
func NewCDF(xs []float64) (*CDF, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return &CDF{sorted: sorted}, nil
}

// At returns P(X <= x).
func (c *CDF) At(x float64) float64 {
	// Index of the first element > x.
	idx := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(c.sorted))
}

// Quantile returns the q-quantile (q in [0, 1]).
func (c *CDF) Quantile(q float64) float64 {
	return percentileSorted(c.sorted, q*100)
}

// N returns the sample count.
func (c *CDF) N() int { return len(c.sorted) }

// Points returns n evenly spaced (x, F(x)) pairs spanning the sample range,
// ready for plotting a CDF curve in the figure reports.
func (c *CDF) Points(n int) []Point {
	if n < 2 {
		n = 2
	}
	lo, hi := c.sorted[0], c.sorted[len(c.sorted)-1]
	pts := make([]Point, n)
	for i := 0; i < n; i++ {
		x := lo + (hi-lo)*float64(i)/float64(n-1)
		pts[i] = Point{X: x, Y: c.At(x)}
	}
	return pts
}

// Point is an (x, y) pair in a plotted series.
type Point struct {
	X, Y float64
}

// Histogram is a fixed-bin histogram over [Lo, Hi).
type Histogram struct {
	Lo, Hi   float64
	Counts   []int
	Under    int // samples below Lo
	Over     int // samples at or above Hi
	binWidth float64
}

// NewHistogram creates a histogram with bins equal-width bins over [lo, hi).
func NewHistogram(lo, hi float64, bins int) (*Histogram, error) {
	if bins <= 0 || hi <= lo {
		return nil, fmt.Errorf("stats: invalid histogram [%v, %v) with %d bins", lo, hi, bins)
	}
	return &Histogram{
		Lo:       lo,
		Hi:       hi,
		Counts:   make([]int, bins),
		binWidth: (hi - lo) / float64(bins),
	}, nil
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	switch {
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		idx := int((x - h.Lo) / h.binWidth)
		if idx >= len(h.Counts) { // guard against float rounding at Hi
			idx = len(h.Counts) - 1
		}
		h.Counts[idx]++
	}
}

// Total returns the number of in-range samples.
func (h *Histogram) Total() int {
	n := 0
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// Fraction returns the fraction of in-range samples in bin i.
func (h *Histogram) Fraction(i int) float64 {
	total := h.Total()
	if total == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(total)
}

// Ratio returns a/b guarding against division by zero (returns 0).
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
