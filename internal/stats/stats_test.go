package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMs(t *testing.T) {
	if Ms(1500*time.Microsecond) != 1.5 {
		t.Fatalf("Ms = %v", Ms(1500*time.Microsecond))
	}
	if Ms(-2*time.Millisecond) != -2 {
		t.Fatalf("Ms negative = %v", Ms(-2*time.Millisecond))
	}
}

func TestDurationsToMs(t *testing.T) {
	got := DurationsToMs([]time.Duration{time.Millisecond, 250 * time.Microsecond})
	if len(got) != 2 || got[0] != 1 || got[1] != 0.25 {
		t.Fatalf("got %v", got)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {0.75, 3.25},
	}
	for _, c := range cases {
		if got := Quantile(s, c.q); !almost(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileSingleton(t *testing.T) {
	if Quantile([]float64{7}, 0.99) != 7 {
		t.Fatal("singleton quantile")
	}
}

func TestQuantilePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty":    func() { Quantile(nil, 0.5) },
		"q<0":      func() { Quantile([]float64{1}, -0.1) },
		"q>1":      func() { Quantile([]float64{1}, 1.1) },
		"mean nil": func() { Mean(nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestMedianOddEven(t *testing.T) {
	if Median([]float64{3, 1, 2}) != 2 {
		t.Fatal("odd median")
	}
	if Median([]float64{4, 1, 2, 3}) != 2.5 {
		t.Fatal("even median")
	}
}

func TestMeanStdDev(t *testing.T) {
	s := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(s) != 5 {
		t.Fatalf("mean = %v", Mean(s))
	}
	want := math.Sqrt(32.0 / 7.0)
	if !almost(StdDev(s), want, 1e-12) {
		t.Fatalf("stddev = %v, want %v", StdDev(s), want)
	}
	if StdDev([]float64{1}) != 0 {
		t.Fatal("stddev of singleton should be 0")
	}
}

func TestBoxBasic(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	b := NewBox(s)
	if b.N != 10 || b.Min != 1 || b.Max != 10 {
		t.Fatalf("box = %+v", b)
	}
	if b.Median != 5.5 {
		t.Fatalf("median = %v", b.Median)
	}
	if len(b.Outliers) != 0 {
		t.Fatalf("outliers = %v", b.Outliers)
	}
	if b.WhiskerLo != 1 || b.WhiskerHi != 10 {
		t.Fatalf("whiskers = %v %v", b.WhiskerLo, b.WhiskerHi)
	}
}

func TestBoxOutliers(t *testing.T) {
	s := []float64{10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 100}
	b := NewBox(s)
	if len(b.Outliers) != 1 || b.Outliers[0] != 100 {
		t.Fatalf("outliers = %v", b.Outliers)
	}
	if b.WhiskerHi != 19 {
		t.Fatalf("upper whisker = %v, want 19 (excludes outlier)", b.WhiskerHi)
	}
	if b.Max != 100 {
		t.Fatalf("max = %v, want 100", b.Max)
	}
}

func TestBoxConstantSamples(t *testing.T) {
	b := NewBox([]float64{5, 5, 5, 5})
	if b.IQR() != 0 || b.Median != 5 || len(b.Outliers) != 0 {
		t.Fatalf("box = %+v", b)
	}
	if b.String() == "" {
		t.Fatal("empty String")
	}
}

func TestCDFAt(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {3, 1}, {99, 1},
	}
	for _, cse := range cases {
		if got := c.At(cse.x); !almost(got, cse.want, 1e-12) {
			t.Errorf("At(%v) = %v, want %v", cse.x, got, cse.want)
		}
	}
}

func TestCDFQuantileInverse(t *testing.T) {
	c := NewCDF([]float64{10, 20, 30, 40, 50})
	if c.Quantile(0.5) != 30 {
		t.Fatalf("Quantile(0.5) = %v", c.Quantile(0.5))
	}
}

func TestMeanCI95KnownCase(t *testing.T) {
	// n=5, sd=1, mean=10: half = 2.776 * 1/sqrt(5)
	s := []float64{9, 9.5, 10, 10.5, 11}
	mean, half := MeanCI95(s)
	if mean != 10 {
		t.Fatalf("mean = %v", mean)
	}
	sd := StdDev(s)
	want := 2.776 * sd / math.Sqrt(5)
	if !almost(half, want, 1e-9) {
		t.Fatalf("half = %v, want %v", half, want)
	}
}

func TestMeanCI95Singleton(t *testing.T) {
	mean, half := MeanCI95([]float64{3})
	if mean != 3 || half != 0 {
		t.Fatalf("singleton CI = %v ± %v", mean, half)
	}
}

func TestTCriticalFallbacks(t *testing.T) {
	// Untabulated df falls back to the nearest smaller row (conservative).
	if tCritical95(49) != tCritical95(40) {
		t.Fatalf("t(49) = %v, want fallback to t(40)=%v", tCritical95(49), tCritical95(40))
	}
	if tCritical95(1000) != 1.96 {
		t.Fatalf("t(1000) = %v", tCritical95(1000))
	}
	if !math.IsNaN(tCritical95(0)) {
		t.Fatal("t(0) should be NaN")
	}
}

func TestLevelsTwoClusters(t *testing.T) {
	s := []float64{0.1, 0.2, 0.15, 15.6, 15.7, 15.65, 0.12}
	centers, counts := NewSamples(s).Levels(1.0)
	if len(centers) != 2 {
		t.Fatalf("centers = %v", centers)
	}
	if counts[0] != 4 || counts[1] != 3 {
		t.Fatalf("counts = %v", counts)
	}
	if !almost(centers[1]-centers[0], 15.5, 0.3) {
		t.Fatalf("gap = %v", centers[1]-centers[0])
	}
}

func TestLevelsEmpty(t *testing.T) {
	c, n := NewSamples(nil).Levels(1)
	if c != nil || n != nil {
		t.Fatal("expected nil for empty input")
	}
}

func TestBimodal(t *testing.T) {
	bimodal := []float64{0, 0.1, 0.2, 0.1, 16, 15.9, 16.1, 15.8}
	if !NewSamples(bimodal).Bimodal(1, 10, 0.2) {
		t.Fatal("clear bimodal set not detected")
	}
	unimodal := []float64{5, 5.1, 5.2, 4.9, 5.05}
	if NewSamples(unimodal).Bimodal(1, 10, 0.2) {
		t.Fatal("unimodal set misdetected")
	}
	// Two levels but one is a tiny minority: not bimodal at minFrac=0.3.
	skewed := []float64{0, 0, 0, 0, 0, 0, 0, 0, 0, 16}
	if NewSamples(skewed).Bimodal(1, 10, 0.3) {
		t.Fatal("skewed set misdetected")
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		s := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				s = append(s, v)
			}
		}
		if len(s) == 0 {
			return true
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := Quantile(s, q)
			if v < prev {
				return false
			}
			prev = v
		}
		lo, hi := Quantile(s, 0), Quantile(s, 1)
		sorted := sortedCopy(s)
		return lo == sorted[0] && hi == sorted[len(sorted)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: box invariants Min<=WhiskerLo<=Q1<=Median<=Q3<=WhiskerHi<=Max
// and N = inliers + outliers.
func TestQuickBoxInvariants(t *testing.T) {
	f := func(raw []float64) bool {
		s := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				s = append(s, v)
			}
		}
		if len(s) == 0 {
			return true
		}
		b := NewBox(s)
		// Note: whiskers are the extreme *inlying data points*; with
		// interpolated quartiles and extreme outliers they can land inside
		// [Q1, Q3], so only order them against Min/Max and each other.
		ok := b.Min <= b.Q1 && b.Q1 <= b.Median && b.Median <= b.Q3 && b.Q3 <= b.Max &&
			b.Min <= b.WhiskerLo && b.WhiskerLo <= b.WhiskerHi && b.WhiskerHi <= b.Max
		inliers := b.N - len(b.Outliers)
		return ok && b.N == len(s) && inliers >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the CDF is monotone and ends at 1.
func TestQuickCDFMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		s := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				s = append(s, v)
			}
		}
		if len(s) == 0 {
			return true
		}
		sort.Float64s(s)
		c := NewCDF(s)
		prev := 0.0
		for _, x := range s {
			p := c.At(x)
			if p < prev || p > 1 {
				return false
			}
			prev = p
		}
		return prev == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestKSStatisticIdentical(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	if d := KSStatistic(s, s); d != 0 {
		t.Fatalf("KS of identical samples = %v, want 0", d)
	}
}

func TestKSStatisticDisjoint(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{10, 11, 12}
	if d := KSStatistic(a, b); d != 1 {
		t.Fatalf("KS of disjoint samples = %v, want 1", d)
	}
}

func TestKSDifferentDetectsShift(t *testing.T) {
	var a, b, c []float64
	for i := 0; i < 200; i++ {
		a = append(a, float64(i%37))
		b = append(b, float64(i%37)+20)   // shifted
		c = append(c, float64((i+13)%37)) // same distribution, reordered
	}
	if !KSDifferent(a, b) {
		t.Fatal("clear shift not detected")
	}
	if KSDifferent(a, c) {
		t.Fatal("identical distributions flagged as different")
	}
}

func TestKSPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	KSStatistic(nil, []float64{1})
}

// Property: KS is symmetric and bounded in [0, 1].
func TestQuickKSSymmetricBounded(t *testing.T) {
	f := func(ra, rb []float64) bool {
		a := filterFinite(ra)
		b := filterFinite(rb)
		if len(a) == 0 || len(b) == 0 {
			return true
		}
		d1 := KSStatistic(a, b)
		d2 := KSStatistic(b, a)
		return d1 == d2 && d1 >= 0 && d1 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func filterFinite(raw []float64) []float64 {
	var out []float64
	for _, v := range raw {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			out = append(out, v)
		}
	}
	return out
}
