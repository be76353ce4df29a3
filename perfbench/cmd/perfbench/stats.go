package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank returns the q-quantile of the ascending slice s by the
// nearest-rank rule: the smallest value with at least q of the samples
// at or below it.
func nearestRank(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// tailQuantile is the highest quantile that n samples support: the one
// with at least ten samples above it. Below 20 samples no quantile
// above the median has that many, so it is the median.
func tailQuantile(n int) float64 {
	return math.Max(0.5, 1-10/float64(n))
}

// trialSpread is (max − min) ÷ min over one run's per-trial virtual
// times: how far the first, cold-network trial sits from the rest.
func trialSpread(vt []float64) float64 {
	if len(vt) == 0 {
		return 0
	}
	lo, hi := vt[0], vt[0]
	for _, v := range vt {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if lo <= 0 {
		return 0
	}
	return (hi - lo) / lo
}

// planStats summarises one cell's served plan requests.
type planStats struct {
	// perS is served requests per second of the phase that issued
	// them; p50 and p99 are latencies in seconds.
	perS, p50, p99 float64
}

// newPlanStats summarises the latencies lat (sorted in place) of
// requests served during wall seconds.
func newPlanStats(lat []float64, wall float64) planStats {
	if len(lat) == 0 || wall <= 0 {
		return planStats{}
	}
	sort.Float64s(lat)
	return planStats{
		perS: float64(len(lat)) / wall,
		p50:  nearestRank(lat, 0.50),
		p99:  nearestRank(lat, 0.99),
	}
}
