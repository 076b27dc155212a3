package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile for
// it to be supported by the data.
const minBeyond = 10

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted; NaN for an
// empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	return quantileSorted(s, q)
}

func quantileSorted(s []float64, q float64) float64 {
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// supported reports whether a sample of n values has at least minBeyond
// values above its p-th percentile (p in percent).
func supported(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= minBeyond-1e-9 // tolerate rounding of p
}

// steadyQuantile is the q-quantile of a time-ordered sample taken as the
// median, over consecutive chunks, of each chunk's q-quantile; a chunk holds
// enough samples to have minBeyond beyond its quantile. Contention on a
// shared host comes in bursts that inflate every sample they overlap; as
// long as a burst overlaps fewer than half the chunks, the median chunk
// does not see it. A sample too small for two chunks gives the plain
// quantile.
func steadyQuantile(xs []float64, q float64) float64 {
	size := int(math.Ceil(minBeyond/(1-q) - 1e-9)) // tolerate rounding of 1-q
	k := max(1, len(xs)/size)
	qs := make([]float64, k)
	for i := range qs {
		qs[i] = quantile(xs[i*len(xs)/k:(i+1)*len(xs)/k], q)
	}
	return median(qs)
}

// tail is a percentile reported with the sample it was drawn from.
type tail struct {
	P     float64 // percentile, in percent
	Value float64
	N     int // sample count
}

// tailLadder lists the percentiles highestTail may choose from.
var tailLadder = []float64{99.99, 99.9, 99, 90, 50}

// highestTail returns the highest percentile of tailLadder that has at
// least minBeyond samples beyond it, with the sample count. A sample too
// small for even the median reports P = 0.
func highestTail(xs []float64) tail {
	s := sortedCopy(xs)
	for _, p := range tailLadder {
		if supported(len(s), p) {
			return tail{P: p, Value: quantileSorted(s, p/100), N: len(s)}
		}
	}
	return tail{N: len(s)}
}

// gridMedian is the median of values that lie on a grid of step h (such as
// stream times, which are whole key frames): the median class is spread
// evenly over its width, as for grouped data, so the estimate moves with
// the whole distribution instead of jumping between grid points.
func gridMedian(xs []float64, h float64) float64 {
	s := sortedCopy(xs)
	half := float64(len(s)) / 2
	for i := 0; i < len(s); {
		class := math.Round(s[i] / h)
		j := i
		for j < len(s) && math.Round(s[j]/h) == class {
			j++
		}
		if float64(j) >= half {
			return (class-0.5)*h + (half-float64(i))/float64(j-i)*h
		}
		i = j
	}
	return math.NaN()
}
