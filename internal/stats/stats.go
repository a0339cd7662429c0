// Package stats provides the small statistics toolkit the benchmark
// harness uses to reproduce the paper's figures: fixed-width histograms
// with normalized frequencies (Figures 4 and 5), per-sample series
// (Figure 6), and summary statistics.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary holds the usual scalar statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Stddev float64
	Min    float64
	Max    float64
	P50    float64
	P90    float64
	P99    float64
}

// Summarize computes summary statistics. An empty sample yields a zero
// Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	if len(xs) > 1 {
		s.Stddev = math.Sqrt(ss / float64(len(xs)-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.P50 = percentile(sorted, 0.50)
	s.P90 = percentile(sorted, 0.90)
	s.P99 = percentile(sorted, 0.99)
	return s
}

// Quantile interpolates the q-quantile (0..1) of an unsorted sample
// without modifying it. An empty sample yields 0.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return percentile(sorted, q)
}

// percentile interpolates the p-quantile of a sorted sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.2f sd=%.2f min=%.2f p50=%.2f p90=%.2f p99=%.2f max=%.2f",
		s.N, s.Mean, s.Stddev, s.Min, s.P50, s.P90, s.P99, s.Max)
}

// Histogram bins samples into fixed-width buckets centered the way the
// paper's figures label them: a histogram with Width 10 and Origin 0 has
// buckets [0,10), [10,20), … labeled by their centers 5, 15, ….
type Histogram struct {
	Origin float64 // left edge of the first bucket
	Width  float64 // bucket width, > 0
	counts map[int]int
	n      int
}

// NewHistogram creates a histogram with the given origin and bucket
// width.
func NewHistogram(origin, width float64) *Histogram {
	if width <= 0 {
		panic("stats: histogram width must be positive")
	}
	return &Histogram{Origin: origin, Width: width, counts: make(map[int]int)}
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	idx := int(math.Floor((x - h.Origin) / h.Width))
	h.counts[idx]++
	h.n++
}

// AddAll records every sample in xs.
func (h *Histogram) AddAll(xs []float64) {
	for _, x := range xs {
		h.Add(x)
	}
}

// N reports the total number of samples.
func (h *Histogram) N() int { return h.n }

// Bucket is one histogram bin.
type Bucket struct {
	Center    float64 // bucket center, as the paper's x-axis labels them
	Count     int
	Frequency float64 // normalized: Count / N
}

// Buckets returns the non-empty bins in ascending order, plus any empty
// bins between them so a plotted series has no holes.
func (h *Histogram) Buckets() []Bucket {
	if h.n == 0 {
		return nil
	}
	idxs := make([]int, 0, len(h.counts))
	for i := range h.counts {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	lo, hi := idxs[0], idxs[len(idxs)-1]
	out := make([]Bucket, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		c := h.counts[i]
		out = append(out, Bucket{
			Center:    h.Origin + (float64(i)+0.5)*h.Width,
			Count:     c,
			Frequency: float64(c) / float64(h.n),
		})
	}
	return out
}

// Series is an ordered sequence of (x, y) points, used for Figure 6
// style per-sequence-number plots.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Append adds one point.
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len reports the number of points.
func (s *Series) Len() int { return len(s.X) }

// Downsample returns every k-th point (k >= 1), always including the
// last point, to keep printed series readable.
func (s *Series) Downsample(k int) *Series {
	if k < 1 {
		k = 1
	}
	out := &Series{Name: s.Name}
	for i := 0; i < len(s.X); i += k {
		out.Append(s.X[i], s.Y[i])
	}
	if n := len(s.X); n > 0 && (n-1)%k != 0 {
		out.Append(s.X[n-1], s.Y[n-1])
	}
	return out
}

// TrendSlope fits y = a + b·x by least squares and returns b. It is how
// the Figure 6 test asserts "cloning time grows with sequence number"
// without pinning exact values.
func (s *Series) TrendSlope() float64 {
	n := float64(len(s.X))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i := range s.X {
		sx += s.X[i]
		sy += s.Y[i]
		sxx += s.X[i] * s.X[i]
		sxy += s.X[i] * s.Y[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

// MultiSeriesTable renders several series that share an x-axis into a
// single aligned table. Series of different lengths are padded with
// blanks.
func MultiSeriesTable(xlabel string, series ...*Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s", xlabel)
	maxLen := 0
	for _, s := range series {
		fmt.Fprintf(&b, " %12s", s.Name)
		if s.Len() > maxLen {
			maxLen = s.Len()
		}
	}
	b.WriteByte('\n')
	for i := 0; i < maxLen; i++ {
		var x float64
		hasX := false
		for _, s := range series {
			if i < s.Len() {
				x = s.X[i]
				hasX = true
				break
			}
		}
		if !hasX {
			break
		}
		fmt.Fprintf(&b, "%-12.0f", x)
		for _, s := range series {
			if i < s.Len() {
				fmt.Fprintf(&b, " %12.2f", s.Y[i])
			} else {
				fmt.Fprintf(&b, " %12s", "")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// MultiHistogramTable renders several histograms that share bucketing
// into one table with a frequency column per histogram (the layout of
// Figures 4 and 5, one column per golden-machine size).
func MultiHistogramTable(xlabel string, hists map[string]*Histogram, order []string) string {
	centers := map[float64]bool{}
	for _, h := range hists {
		for _, bk := range h.Buckets() {
			centers[bk.Center] = true
		}
	}
	xs := make([]float64, 0, len(centers))
	for c := range centers {
		xs = append(xs, c)
	}
	sort.Float64s(xs)

	freq := func(h *Histogram, center float64) float64 {
		for _, bk := range h.Buckets() {
			if bk.Center == center {
				return bk.Frequency
			}
		}
		return 0
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%-22s", xlabel)
	for _, name := range order {
		fmt.Fprintf(&b, " %10s", name)
	}
	b.WriteByte('\n')
	for _, x := range xs {
		fmt.Fprintf(&b, "%-22.0f", x)
		for _, name := range order {
			fmt.Fprintf(&b, " %10.3f", freq(hists[name], x))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
