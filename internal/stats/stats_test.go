package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestMeanVarianceKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %v, want 5", m)
	}
	if v := Variance(xs); v != 4 {
		t.Errorf("Variance = %v, want 4", v)
	}
	if s := StdDev(xs); s != 2 {
		t.Errorf("StdDev = %v, want 2", s)
	}
}

func TestEmptyInputs(t *testing.T) {
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Variance(nil)) ||
		!math.IsNaN(Min(nil)) || !math.IsNaN(Max(nil)) ||
		!math.IsNaN(Percentile(nil, 50)) {
		t.Error("empty inputs must yield NaN")
	}
	if _, err := NewCDF(nil); err == nil {
		t.Error("NewCDF(nil) must fail")
	}
	s := Summarize(nil)
	if s.N != 0 {
		t.Errorf("Summarize(nil).N = %d", s.N)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5, -9, 2, 6}
	if Min(xs) != -9 || Max(xs) != 6 {
		t.Errorf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
}

func TestPercentileInterpolation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 4}, {50, 2.5}, {25, 1.75}, {75, 3.25},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	// Percentile must not mutate its input.
	in := []float64{5, 1, 3}
	Percentile(in, 50)
	if in[0] != 5 || in[1] != 1 || in[2] != 3 {
		t.Error("Percentile mutated input")
	}
}

func TestPercentileMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = r.NormFloat64() * 10
	}
	prev := math.Inf(-1)
	for p := 0.0; p <= 100; p += 2.5 {
		v := Percentile(xs, p)
		if v < prev {
			t.Fatalf("percentile not monotone at p=%v", p)
		}
		prev = v
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i)
	}
	s := Summarize(xs)
	if s.N != 101 || s.Min != 0 || s.Max != 100 || s.Median != 50 ||
		s.P25 != 25 || s.P75 != 75 || s.P90 != 90 || s.P95 != 95 {
		t.Errorf("Summary = %+v", s)
	}
	if s.Mean != 50 {
		t.Errorf("Mean = %v", s.Mean)
	}
}

func TestCDF(t *testing.T) {
	c, err := NewCDF([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.At(0); got != 0 {
		t.Errorf("At(0) = %v", got)
	}
	if got := c.At(3); got != 0.6 {
		t.Errorf("At(3) = %v, want 0.6", got)
	}
	if got := c.At(5); got != 1 {
		t.Errorf("At(5) = %v, want 1", got)
	}
	if got := c.At(2.5); got != 0.4 {
		t.Errorf("At(2.5) = %v, want 0.4", got)
	}
	if got := c.Quantile(0.5); got != 3 {
		t.Errorf("Quantile(0.5) = %v, want 3", got)
	}
	if c.N() != 5 {
		t.Errorf("N = %d", c.N())
	}
}

func TestCDFProperties(t *testing.T) {
	prop := func(raw []float64) bool {
		xs := raw[:0]
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		c, err := NewCDF(xs)
		if err != nil {
			return false
		}
		// CDF is monotone and bounded in [0,1].
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		prev := 0.0
		for _, x := range sorted {
			f := c.At(x)
			if f < prev-1e-12 || f < 0 || f > 1 {
				return false
			}
			prev = f
		}
		return c.At(sorted[len(sorted)-1]) == 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCDFPoints(t *testing.T) {
	c, err := NewCDF([]float64{0, 10})
	if err != nil {
		t.Fatal(err)
	}
	pts := c.Points(11)
	if len(pts) != 11 {
		t.Fatalf("len = %d", len(pts))
	}
	if pts[0].X != 0 || pts[10].X != 10 {
		t.Errorf("endpoint X = %v, %v", pts[0].X, pts[10].X)
	}
	if pts[10].Y != 1 {
		t.Errorf("final Y = %v", pts[10].Y)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Y < pts[i-1].Y {
			t.Error("CDF points not monotone")
		}
	}
}

func TestHistogram(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{-1, 0, 1.9, 2, 5, 9.99, 10, 42} {
		h.Add(x)
	}
	if h.Under != 1 || h.Over != 2 {
		t.Errorf("Under/Over = %d/%d", h.Under, h.Over)
	}
	if h.Total() != 5 {
		t.Errorf("Total = %d", h.Total())
	}
	if h.Counts[0] != 2 { // 0 and 1.9
		t.Errorf("bin0 = %d", h.Counts[0])
	}
	if h.Counts[1] != 1 || h.Counts[2] != 1 || h.Counts[4] != 1 {
		t.Errorf("Counts = %v", h.Counts)
	}
	if f := h.Fraction(0); f != 0.4 {
		t.Errorf("Fraction(0) = %v", f)
	}
}

func TestHistogramInvalid(t *testing.T) {
	if _, err := NewHistogram(0, 10, 0); err == nil {
		t.Error("0 bins accepted")
	}
	if _, err := NewHistogram(5, 5, 3); err == nil {
		t.Error("hi==lo accepted")
	}
	if _, err := NewHistogram(10, 0, 3); err == nil {
		t.Error("hi<lo accepted")
	}
}

func TestHistogramBoundaryRounding(t *testing.T) {
	h, err := NewHistogram(0, 0.3, 3)
	if err != nil {
		t.Fatal(err)
	}
	// 0.3 - epsilon must land in the last bin despite float division noise.
	h.Add(math.Nextafter(0.3, 0))
	if h.Counts[2] != 1 || h.Over != 0 {
		t.Errorf("boundary sample landed wrong: %v over=%d", h.Counts, h.Over)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(10, 4) != 2.5 {
		t.Error("Ratio(10,4)")
	}
	if Ratio(1, 0) != 0 {
		t.Error("Ratio by zero must be 0")
	}
}

func TestQuantilesMatchPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	xs := make([]float64, 257)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 40
	}
	qs := []float64{0.10, 0.50, 0.90, 0.99}
	got := Quantiles(xs, qs...)
	for i, q := range qs {
		if want := Percentile(xs, q*100); got[i] != want {
			t.Errorf("Quantiles[%v] = %v, Percentile = %v", q, got[i], want)
		}
	}
	// The batch helper must not disturb its input.
	if !sort.Float64sAreSorted(xs) {
		// xs was random; the real check is against a copy.
		cp := append([]float64(nil), xs...)
		Quantiles(xs, 0.5)
		for i := range xs {
			if xs[i] != cp[i] {
				t.Fatal("Quantiles mutated its input")
			}
		}
	}
}

func TestQuantilesEmpty(t *testing.T) {
	got := Quantiles(nil, 0.1, 0.5, 0.9)
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	for i, v := range got {
		if !math.IsNaN(v) {
			t.Errorf("empty quantile %d = %v, want NaN", i, v)
		}
	}
	if len(Quantiles(nil)) != 0 {
		t.Error("no quantiles requested must return empty slice")
	}
}

func TestQuantilesKnownValues(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	if got := Quantiles(xs, 0, 1)[0]; got != 15 {
		t.Errorf("q0 = %v, want 15", got)
	}
	if got := Quantiles(xs, 0, 1)[1]; got != 50 {
		t.Errorf("q1 = %v, want 50", got)
	}
	if got := Quantiles(xs, 0.5)[0]; got != 35 {
		t.Errorf("median = %v, want 35", got)
	}
}
