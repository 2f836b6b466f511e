package stats

// Samples is a sample set sorted once at construction and sealed: every
// derived statistic (quantiles, box summary, ECDF, level clustering)
// reuses the same sorted buffer instead of re-sorting a fresh copy per
// call, which is what makes per-cell study statistics allocation-flat.
type Samples struct {
	sorted []float64
}

// NewSamples copies and sorts the input. The caller keeps ownership of
// the argument slice.
func NewSamples(samples []float64) *Samples {
	return &Samples{sorted: sortedCopy(samples)}
}

// N returns the sample count.
func (s *Samples) N() int { return len(s.sorted) }

// Quantile returns the q-quantile (R type-7). It panics on an empty set
// or q outside [0,1].
func (s *Samples) Quantile(q float64) float64 {
	checkQuantile(len(s.sorted), q)
	return quantileSorted(s.sorted, q)
}

// Median is Quantile(0.5).
func (s *Samples) Median() float64 { return s.Quantile(0.5) }

// Box computes the five-number summary without re-sorting.
func (s *Samples) Box() Box { return boxSorted(s.sorted) }

// CDF returns the ECDF sharing this Samples' sorted buffer.
func (s *Samples) CDF() *CDF {
	if len(s.sorted) == 0 {
		panic("stats: CDF of empty sample set")
	}
	return &CDF{sorted: s.sorted}
}

// Levels clusters the samples into discrete levels: values within tol of
// a level's running mean join it. It returns the level centers sorted
// ascending with their member counts. The paper uses this structure to
// show the two discrete Δd levels (~16 ms apart) the quantized Java clock
// produces.
func (s *Samples) Levels(tol float64) (centers []float64, counts []int) {
	return levelsSorted(s.sorted, tol)
}

// Bimodal reports whether the samples split into two dominant levels at
// least gap apart, each holding at least minFrac of the mass.
func (s *Samples) Bimodal(tol, gap, minFrac float64) bool {
	return bimodalLevels(s.sorted, tol, gap, minFrac)
}
