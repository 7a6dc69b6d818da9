package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 <= p <= 1) of sorted by the
// nearest-rank rule: the smallest value with at least p of the samples at or
// below it. It returns 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	rank = max(1, min(rank, len(sorted)))
	return sorted[rank-1]
}

// median returns the middle value of vs, or the mean of the two middle values
// when there is an even number of them. It does not modify vs.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}
