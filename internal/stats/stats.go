// Package stats provides the measurement machinery of the simulator:
// streaming mean/variance accumulators, latency histograms, per-node
// fairness summaries and the per-run metrics collector whose outputs map
// one-to-one onto the quantities the paper reports (average message latency,
// standard deviation of latency, accepted traffic in flits/node/cycle,
// percentage of detected deadlocks, and per-node sent-message deviations).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Welford is a streaming mean/variance accumulator using Welford's
// algorithm, numerically stable for long runs. The zero value is ready to
// use.
type Welford struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add incorporates a sample.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Count returns the number of samples.
func (w *Welford) Count() int64 { return w.n }

// Mean returns the sample mean (0 with no samples).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the population variance (0 with fewer than 2 samples).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// StdDev returns the population standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Min returns the smallest sample (0 with no samples).
func (w *Welford) Min() float64 {
	if w.n == 0 {
		return 0
	}
	return w.min
}

// Max returns the largest sample (0 with no samples).
func (w *Welford) Max() float64 {
	if w.n == 0 {
		return 0
	}
	return w.max
}

// Merge folds other into w (parallel-reduction support).
func (w *Welford) Merge(other *Welford) {
	if other.n == 0 {
		return
	}
	if w.n == 0 {
		*w = *other
		return
	}
	n := w.n + other.n
	d := other.mean - w.mean
	w.m2 += other.m2 + d*d*float64(w.n)*float64(other.n)/float64(n)
	w.mean += d * float64(other.n) / float64(n)
	w.n = n
	if other.min < w.min {
		w.min = other.min
	}
	if other.max > w.max {
		w.max = other.max
	}
}

// Histogram counts samples in fixed-width buckets with an overflow bucket.
type Histogram struct {
	width   float64
	buckets []int64
	over    int64
	total   int64
}

// NewHistogram returns a histogram of n buckets of the given width; samples
// at or beyond n*width land in the overflow bucket.
func NewHistogram(width float64, n int) *Histogram {
	if width <= 0 || n < 1 {
		panic(fmt.Sprintf("stats: bad histogram geometry width=%v n=%d", width, n))
	}
	return &Histogram{width: width, buckets: make([]int64, n)}
}

// Add incorporates a sample. Negative samples count into bucket 0.
func (h *Histogram) Add(x float64) {
	h.total++
	if x < 0 {
		h.buckets[0]++
		return
	}
	i := int(x / h.width)
	if i >= len(h.buckets) {
		h.over++
		return
	}
	h.buckets[i]++
}

// Total returns the number of samples.
func (h *Histogram) Total() int64 { return h.total }

// Bucket returns the count of bucket i.
func (h *Histogram) Bucket(i int) int64 { return h.buckets[i] }

// Overflow returns the overflow count.
func (h *Histogram) Overflow() int64 { return h.over }

// Merge folds other into h. Both histograms must have identical geometry
// (bucket width and count); Merge panics otherwise.
func (h *Histogram) Merge(other *Histogram) {
	if h.width != other.width || len(h.buckets) != len(other.buckets) {
		panic(fmt.Sprintf("stats: merging histograms of different geometry (%vx%d vs %vx%d)",
			h.width, len(h.buckets), other.width, len(other.buckets)))
	}
	for i, c := range other.buckets {
		h.buckets[i] += c
	}
	h.over += other.over
	h.total += other.total
}

// Quantile returns an upper bound for the q-quantile (0<=q<=1) based on
// bucket boundaries, and 0 with no samples. A quantile in the overflow bucket
// has no bucket boundary above it: it is reported as largest, the largest
// sample, which the caller tracks (the collector's Welford accumulator does),
// so the result is always finite.
func (h *Histogram) Quantile(q, largest float64) float64 {
	if h.total == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(h.total)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range h.buckets {
		cum += c
		if cum >= target {
			return float64(i+1) * h.width
		}
	}
	return largest
}

// Fairness summarises per-node sent-message counts the way the paper's
// Figure 4 does: each node's deviation, in percent, from the all-node mean.
type Fairness struct {
	counts []int64
}

// NewFairness returns a fairness tracker for n nodes.
func NewFairness(n int) *Fairness {
	return &Fairness{counts: make([]int64, n)}
}

// Inc counts one sent message for node i.
func (f *Fairness) Inc(i int) { f.counts[i]++ }

// Count returns node i's sent-message count.
func (f *Fairness) Count(i int) int64 { return f.counts[i] }

// Merge folds other's per-node counts into f. Both trackers must cover the
// same number of nodes; Merge panics otherwise.
func (f *Fairness) Merge(other *Fairness) {
	if len(f.counts) != len(other.counts) {
		panic(fmt.Sprintf("stats: merging fairness trackers of %d and %d nodes",
			len(f.counts), len(other.counts)))
	}
	for i, c := range other.counts {
		f.counts[i] += c
	}
}

// Mean returns the mean sent-message count over all nodes.
func (f *Fairness) Mean() float64 {
	var sum int64
	for _, c := range f.counts {
		sum += c
	}
	return float64(sum) / float64(len(f.counts))
}

// Deviations returns each node's percentage deviation from the mean
// ((count-mean)/mean*100). With a zero mean all deviations are 0.
func (f *Fairness) Deviations() []float64 {
	mean := f.Mean()
	out := make([]float64, len(f.counts))
	if mean == 0 {
		return out
	}
	for i, c := range f.counts {
		out[i] = (float64(c) - mean) / mean * 100
	}
	return out
}

// Spread returns the most negative and most positive node deviations in
// percent — the paper's "differences in sent messages per node" headline
// numbers.
func (f *Fairness) Spread() (worst, best float64) {
	devs := f.Deviations()
	if len(devs) == 0 {
		return 0, 0
	}
	worst, best = devs[0], devs[0]
	for _, d := range devs[1:] {
		if d < worst {
			worst = d
		}
		if d > best {
			best = d
		}
	}
	return worst, best
}

// SortedDeviations returns the deviations in ascending order (useful for
// plotting Figure-4-style curves).
func (f *Fairness) SortedDeviations() []float64 {
	devs := f.Deviations()
	sort.Float64s(devs)
	return devs
}
