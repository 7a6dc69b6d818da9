package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// The histogram is log-linear ("HDR-lite"): values are nanosecond durations
// bucketed by their power-of-two octave, with subBuckets linear sub-buckets
// per octave. Relative quantile error is therefore bounded by
// 1/subBuckets (6.25%), while Observe stays a handful of atomic adds — no
// lock, no allocation — so it can sit on the server's per-message paths.
const (
	subBits    = 4
	subBuckets = 1 << subBits // linear sub-buckets per power-of-two octave

	// NumBuckets spans the full non-negative int64 nanosecond range:
	// sub-bucket-exact values below subBuckets ns, then one octave per
	// leading-bit position up to 2^63 ns (~292 years).
	NumBuckets = (64-subBits)*subBuckets + subBuckets
)

// bucketIndex maps a non-negative nanosecond value to its bucket.
func bucketIndex(v uint64) int {
	if v < subBuckets {
		return int(v)
	}
	exp := bits.Len64(v) - 1
	return (exp-subBits+1)*subBuckets + int((v>>(uint(exp)-subBits))&(subBuckets-1))
}

// bucketBounds returns the inclusive [lo, hi] nanosecond range of a bucket.
func bucketBounds(idx int) (lo, hi uint64) {
	if idx < subBuckets {
		return uint64(idx), uint64(idx)
	}
	oct := idx / subBuckets
	sub := uint64(idx % subBuckets)
	exp := uint(oct + subBits - 1)
	width := uint64(1) << (exp - subBits)
	lo = uint64(1)<<exp + sub*width
	return lo, lo + width - 1
}

// Histogram is a lock-free latency histogram. The zero value is ready to
// use; Observe may be called from any number of goroutines concurrently.
type Histogram struct {
	count  atomic.Uint64
	sum    atomic.Int64
	counts [NumBuckets]atomic.Uint64
}

// Observe records one duration. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketIndex(uint64(d))].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
}

// Snapshot copies the current state. Concurrent Observes may or may not be
// included; the copy itself is not a consistent cut (a racing Observe can be
// present in one counter and absent from another by at most one sample),
// which is harmless for monitoring and absent entirely in quiesced readers
// like the benchmark harness.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.Count = h.count.Load()
	s.Sum = time.Duration(h.sum.Load())
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// HistogramSnapshot is an immutable view of a Histogram, mergeable with
// other snapshots (shard-per-goroutine recorders combine into one
// distribution) and queryable for quantiles.
type HistogramSnapshot struct {
	Counts [NumBuckets]uint64
	Count  uint64
	Sum    time.Duration
}

// Merge adds another snapshot's samples into s.
func (s *HistogramSnapshot) Merge(o *HistogramSnapshot) {
	s.Count += o.Count
	s.Sum += o.Sum
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
}

// Quantile returns the q-quantile (0 < q <= 1) as the midpoint of the bucket
// holding the sample of that rank — within 1/subBuckets of the exact order
// statistic. Zero samples yield zero.
func (s *HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if cum >= rank {
			lo, hi := bucketBounds(i)
			return time.Duration(lo + (hi-lo)/2)
		}
	}
	return 0 // unreachable: cum reaches Count
}

// Pow2Bucket is one cumulative export bucket: Count samples fell strictly
// below Le nanoseconds.
type Pow2Bucket struct {
	// Le is the bucket's upper bound in nanoseconds, always a power of two.
	Le uint64
	// Count is the cumulative number of samples below Le.
	Count uint64
}

// Pow2Buckets returns cumulative counts at the power-of-two bounds
// 2^loExp .. 2^hiExp nanoseconds (inclusive range of exponents, each
// clamped to [0, 63]). Because every power of two is an octave boundary of
// the underlying log-linear histogram, the counts are exact, not
// interpolated — and since the bound set is fixed by (loExp, hiExp) alone,
// exports from different instances carry identical `le` grids and can be
// summed bucket-by-bucket by an external aggregator.
//
// Samples are integer nanoseconds, so "strictly below 2^k ns" equals
// "at most 2^k - 1 ns"; the distinction only matters for a sample landing
// exactly on a bound.
func (s *HistogramSnapshot) Pow2Buckets(loExp, hiExp int) []Pow2Bucket {
	if loExp < 0 {
		loExp = 0
	}
	if hiExp > 63 {
		hiExp = 63
	}
	if hiExp < loExp {
		return nil
	}
	out := make([]Pow2Bucket, 0, hiExp-loExp+1)
	var cum uint64
	next := 0 // first bucket index not yet accumulated
	for k := loExp; k <= hiExp; k++ {
		bound := uint64(1) << uint(k)
		// bucketIndex(bound) is the first bucket holding values >= bound:
		// octave boundaries begin their own bucket.
		edge := bucketIndex(bound)
		for ; next < edge; next++ {
			cum += s.Counts[next]
		}
		out = append(out, Pow2Bucket{Le: bound, Count: cum})
	}
	return out
}

// Mean returns the exact mean of the recorded samples (the sum is tracked
// exactly, not bucketed).
func (s *HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Min returns the lower bound of the first occupied bucket (0 when empty).
func (s *HistogramSnapshot) Min() time.Duration {
	for i, c := range s.Counts {
		if c > 0 {
			lo, _ := bucketBounds(i)
			return time.Duration(lo)
		}
	}
	return 0
}

// Max returns the upper bound of the last occupied bucket (0 when empty).
func (s *HistogramSnapshot) Max() time.Duration {
	for i := NumBuckets - 1; i >= 0; i-- {
		if s.Counts[i] > 0 {
			_, hi := bucketBounds(i)
			return time.Duration(hi)
		}
	}
	return 0
}

// String renders the count and the classic percentile trio.
func (s *HistogramSnapshot) String() string {
	return fmt.Sprintf("n=%d p50=%v p90=%v p99=%v",
		s.Count, s.Quantile(0.50), s.Quantile(0.90), s.Quantile(0.99))
}
