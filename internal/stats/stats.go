// Package stats implements the descriptive statistics the paper reports:
// box-and-whisker summaries with 1.5·IQR whiskers and outliers (Figure 3),
// empirical CDFs (Figure 4), means with Student-t 95% confidence intervals
// (Table 4), and discrete-level detection for bimodal overhead
// distributions caused by coarse timestamp granularity.
package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Ms converts a duration to floating-point milliseconds, the unit every
// figure in the paper uses.
func Ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// DurationsToMs converts a sample set.
func DurationsToMs(ds []time.Duration) []float64 {
	return DurationsToMsInto(make([]float64, 0, len(ds)), ds)
}

// DurationsToMsInto appends the converted samples to dst and returns the
// extended slice, letting per-repetition export paths reuse one buffer.
func DurationsToMsInto(dst []float64, ds []time.Duration) []float64 {
	for _, d := range ds {
		dst = append(dst, Ms(d))
	}
	return dst
}

// checkQuantile validates the inputs shared by the quantile entry points.
func checkQuantile(n int, q float64) {
	if n == 0 {
		panic("stats: Quantile of empty sample set")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v out of [0,1]", q))
	}
}

// quantileSorted computes the R type-7 quantile of an already-sorted set.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Quantile returns the q-quantile (0 <= q <= 1) of the samples using
// linear interpolation between order statistics (R type-7, the matplotlib
// default used for the paper's box plots). It panics on empty input.
// Callers computing several statistics over one set should build a
// Samples once instead: this function sorts a fresh copy per call.
func Quantile(samples []float64, q float64) float64 {
	checkQuantile(len(samples), q)
	return quantileSorted(sortedCopy(samples), q)
}

// Median is Quantile(0.5).
func Median(samples []float64) float64 { return Quantile(samples, 0.5) }

// Mean returns the arithmetic mean. It panics on empty input.
func Mean(samples []float64) float64 {
	if len(samples) == 0 {
		panic("stats: Mean of empty sample set")
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// StdDev returns the sample (n-1) standard deviation; 0 for n < 2.
func StdDev(samples []float64) float64 {
	n := len(samples)
	if n < 2 {
		return 0
	}
	m := Mean(samples)
	var ss float64
	for _, v := range samples {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// Box is a five-number summary with 1.5·IQR whiskers, matching the paper's
// box-and-whisker convention: whiskers are the extreme samples within
// [Q1 − 1.5·IQR, Q3 + 1.5·IQR]; everything outside is an outlier.
type Box struct {
	N                    int
	Min, Max             float64
	Q1, Median, Q3       float64
	WhiskerLo, WhiskerHi float64
	Outliers             []float64
}

// NewBox computes the box summary. It panics on empty input.
func NewBox(samples []float64) Box {
	return boxSorted(sortedCopy(samples))
}

// boxSorted computes the summary over an already-sorted sample set.
func boxSorted(s []float64) Box {
	b := Box{
		N:      len(s),
		Min:    s[0],
		Max:    s[len(s)-1],
		Q1:     quantileSorted(s, 0.25),
		Median: quantileSorted(s, 0.5),
		Q3:     quantileSorted(s, 0.75),
	}
	iqr := b.Q3 - b.Q1
	loFence := b.Q1 - 1.5*iqr
	hiFence := b.Q3 + 1.5*iqr
	b.WhiskerLo, b.WhiskerHi = b.Q3, b.Q1 // will be replaced below
	first := true
	for _, v := range s {
		if v < loFence || v > hiFence {
			b.Outliers = append(b.Outliers, v)
			continue
		}
		if first {
			b.WhiskerLo = v
			first = false
		}
		b.WhiskerHi = v
	}
	if first { // degenerate: everything is an outlier (cannot happen, but be safe)
		b.WhiskerLo, b.WhiskerHi = b.Min, b.Max
	}
	return b
}

// IQR returns the interquartile range.
func (b Box) IQR() float64 { return b.Q3 - b.Q1 }

// String renders the summary on one line (values in the sample unit).
func (b Box) String() string {
	return fmt.Sprintf("n=%d min=%.2f [%.2f|%.2f|%.2f] max=%.2f whiskers=[%.2f,%.2f] outliers=%d",
		b.N, b.Min, b.Q1, b.Median, b.Q3, b.Max, b.WhiskerLo, b.WhiskerHi, len(b.Outliers))
}

// CDF is an empirical cumulative distribution function.
type CDF struct {
	sorted []float64
}

// NewCDF builds the ECDF of the samples. It panics on empty input.
func NewCDF(samples []float64) *CDF {
	if len(samples) == 0 {
		panic("stats: CDF of empty sample set")
	}
	return &CDF{sorted: sortedCopy(samples)}
}

// At returns P(X <= x).
func (c *CDF) At(x float64) float64 {
	// First index with sorted[i] > x.
	i := sort.SearchFloat64s(c.sorted, x)
	for i < len(c.sorted) && c.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the p-quantile of the ECDF (inverse of At).
func (c *CDF) Quantile(p float64) float64 {
	checkQuantile(len(c.sorted), p)
	return quantileSorted(c.sorted, p)
}

// tTable holds two-sided 95% Student-t critical values by degrees of
// freedom. Entries beyond 30 fall back to coarser rows; >200 uses the
// normal approximation 1.96.
var tTable = map[int]float64{
	1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
	6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
	11: 2.201, 12: 2.179, 13: 2.160, 14: 2.145, 15: 2.131,
	16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093, 20: 2.086,
	21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064, 25: 2.060,
	26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042,
	40: 2.021, 50: 2.009, 60: 2.000, 80: 1.990, 100: 1.984, 200: 1.972,
}

// tCritical95 returns the two-sided 95% t critical value for df degrees of
// freedom.
func tCritical95(df int) float64 {
	if df <= 0 {
		return math.NaN()
	}
	if v, ok := tTable[df]; ok {
		return v
	}
	if df > 200 {
		return 1.96
	}
	// Walk down to the nearest smaller tabulated df (conservative).
	for d := df; d >= 1; d-- {
		if v, ok := tTable[d]; ok {
			return v
		}
	}
	return 1.96
}

// MeanCI95 returns the sample mean and the half-width of its two-sided
// 95% confidence interval (Student t), as Table 4 reports
// ("mean ± 95% confidence interval"). Half-width is 0 for n < 2.
func MeanCI95(samples []float64) (mean, half float64) {
	mean = Mean(samples)
	n := len(samples)
	if n < 2 {
		return mean, 0
	}
	half = tCritical95(n-1) * StdDev(samples) / math.Sqrt(float64(n))
	return mean, half
}

// levelsSorted clusters an already-sorted sample set.
func levelsSorted(s []float64, tol float64) (centers []float64, counts []int) {
	if len(s) == 0 {
		return nil, nil
	}
	start := 0
	var sum float64
	flush := func(end int) {
		n := end - start
		centers = append(centers, sum/float64(n))
		counts = append(counts, n)
		start, sum = end, 0
	}
	for i, v := range s {
		if i > start && v-sum/float64(i-start) > tol {
			flush(i)
		}
		sum += v
	}
	flush(len(s))
	return centers, counts
}

// bimodalLevels runs the Bimodal test over an already-sorted sample set.
func bimodalLevels(s []float64, tol, gap, minFrac float64) bool {
	centers, counts := levelsSorted(s, tol)
	n := len(s)
	for i := 0; i < len(centers); i++ {
		for j := i + 1; j < len(centers); j++ {
			if centers[j]-centers[i] >= gap &&
				float64(counts[i]) >= minFrac*float64(n) &&
				float64(counts[j]) >= minFrac*float64(n) {
				return true
			}
		}
	}
	return false
}

// KSStatistic computes the two-sample Kolmogorov–Smirnov statistic
// D = sup |F1(x) − F2(x)|: the largest vertical gap between the two
// empirical CDFs. It panics on empty inputs.
func KSStatistic(a, b []float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		panic("stats: KSStatistic of empty sample set")
	}
	return ksSorted(sortedCopy(a), sortedCopy(b))
}

// ksSorted computes the KS statistic over two already-sorted sample sets.
func ksSorted(sa, sb []float64) float64 {
	var i, j int
	var d float64
	for i < len(sa) && j < len(sb) {
		// Advance both CDFs past the next value, consuming ties together
		// so equal points never create a spurious gap.
		x := sa[i]
		if sb[j] < x {
			x = sb[j]
		}
		for i < len(sa) && sa[i] == x {
			i++
		}
		for j < len(sb) && sb[j] == x {
			j++
		}
		fa := float64(i) / float64(len(sa))
		fb := float64(j) / float64(len(sb))
		if gap := math.Abs(fa - fb); gap > d {
			d = gap
		}
	}
	return d
}

// KSDifferent reports whether two samples differ at the alpha=0.05 level
// under the two-sample KS test (large-sample critical value
// c(α)·sqrt((n+m)/(n·m)) with c(0.05) = 1.358).
func KSDifferent(a, b []float64) bool {
	n, m := float64(len(a)), float64(len(b))
	crit := 1.358 * math.Sqrt((n+m)/(n*m))
	return KSStatistic(a, b) > crit
}

func sortedCopy(samples []float64) []float64 {
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	return s
}
