package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile of xs exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), so a spread
// computed here matches the one the acceptance procedure computes. Fewer
// than two values have no spread: both quartiles are the single value.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// iqrShare is the interquartile range of xs as a share of its median.
func iqrShare(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / med)
}

// percentile returns the value below which share p of xs lies
// (nearest-rank on the sorted values).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// timeMedian runs f n times and returns the median duration in seconds.
func timeMedian(n int, f func()) float64 {
	ds := make([]float64, n)
	for i := range ds {
		t := time.Now()
		f()
		ds[i] = time.Since(t).Seconds()
	}
	return median(ds)
}

// calibSink keeps hostCalib's result observable so the loop is not removed.
var calibSink uint64

// calibTable is hostCalib's working set: 64 KiB, L1/L2 resident.
var calibTable [8192]uint64

// hostCalib times a fixed integer/array kernel (dependent xorshift updates
// walking a 64 KiB table) and returns milliseconds. It does the same work on
// every commit and allocates nothing, so its reading tracks the host, not
// the simulator; it is recorded beside the headline numbers and never used
// to rescale them.
func hostCalib() float64 {
	t := time.Now()
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < 1<<20; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & 8191
		calibTable[j] += x
		x += calibTable[(j+1)&8191]
	}
	calibSink += x
	return float64(time.Since(t).Nanoseconds()) / 1e6
}
