package main

import (
	"hash/fnv"
	"math"
	"sort"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks; 0 for no samples. xs is not
// modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is percentile(xs, 0.5).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// quartiles returns the first and third quartile of xs exactly as Python's
// statistics.quantiles(xs, n=4) does (its default "exclusive" method),
// which is how run-to-run spread is judged. Needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld, n := len(s), 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return q(1), q(3)
}

// sample is one latency with the time it completed, in seconds since the
// timed window opened.
type sample struct{ at, ms float64 }

// sliceSeconds is the length of the slices the timed window is cut into
// for the end-to-end figures. Each figure is taken from the best slice:
// interference from other tenants of the machine only ever adds time, so
// the least disturbed slice is the steadiest estimate of the server's own
// cost.
const sliceSeconds = 5

// slicing cuts a window of dur seconds into slices of about sliceSeconds,
// at least one.
func slicing(dur float64) int { return max(1, int(dur/sliceSeconds+0.5)) }

// bySlice groups sample values by the slice of a dur-second window they
// completed in; samples past the end fall in the last slice.
func bySlice(xs []sample, dur float64) [][]float64 {
	n := slicing(dur)
	out := make([][]float64, n)
	for _, x := range xs {
		k := min(n-1, max(0, int(x.at/dur*float64(n))))
		out[k] = append(out[k], x.ms)
	}
	return out
}

// slicedPercentile is the lowest q-quantile of any non-empty slice of the
// window; 0 for no samples.
func slicedPercentile(xs []sample, dur, q float64) float64 {
	best := 0.0
	for _, s := range bySlice(xs, dur) {
		if p := percentile(s, q); len(s) > 0 && (best == 0 || p < best) {
			best = p
		}
	}
	return best
}

// slicedRate is the highest number of samples completed per second in any
// slice of the window.
func slicedRate(xs []sample, dur float64) float64 {
	slices := bySlice(xs, dur)
	best := 0.0
	for _, s := range slices {
		best = max(best, float64(len(s))/(dur/float64(len(slices))))
	}
	return best
}

// ratio is num/den, or 0 when den is 0 (the counted event never happened).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// digest is a short fingerprint of an operation's canonical output, used to
// check that the replay leg reproduces the HTTP leg's answers.
func digest(b []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(b)
	return h.Sum64()
}
