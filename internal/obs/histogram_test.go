package obs

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestBucketIndexMonotonicAndInBounds(t *testing.T) {
	prev := -1
	for _, v := range []uint64{0, 1, 2, 15, 16, 17, 31, 32, 63, 64, 1 << 20, 1<<20 + 1, 1 << 40, 1<<62 + 12345} {
		idx := bucketIndex(v)
		if idx < 0 || idx >= NumBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of [0,%d)", v, idx, NumBuckets)
		}
		if idx < prev {
			t.Fatalf("bucketIndex not monotone at %d: %d < %d", v, idx, prev)
		}
		prev = idx
	}
}

func TestBucketBoundsContainValue(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 100_000; i++ {
		v := uint64(rng.Int63())
		idx := bucketIndex(v)
		lo, hi := bucketBounds(idx)
		if v < lo || v > hi {
			t.Fatalf("value %d landed in bucket %d = [%d,%d]", v, idx, lo, hi)
		}
	}
}

func TestBucketBoundsPartition(t *testing.T) {
	// Consecutive buckets must tile the value space with no gaps/overlaps.
	for idx := 0; idx < NumBuckets-1; idx++ {
		_, hi := bucketBounds(idx)
		lo, _ := bucketBounds(idx + 1)
		if lo != hi+1 {
			t.Fatalf("gap between bucket %d (hi=%d) and %d (lo=%d)", idx, hi, idx+1, lo)
		}
	}
}

// TestQuantileRelativeError: histogram quantiles stay within the bucketing
// resolution (1/subBuckets plus half a bucket) of the exact order statistic.
func TestQuantileRelativeError(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h Histogram
	samples := make([]time.Duration, 0, 20_000)
	for i := 0; i < cap(samples); i++ {
		// Log-uniform over 1µs .. ~10s, the range real cycles live in.
		d := time.Duration(float64(time.Microsecond) * float64(uint64(1)<<uint(rng.Intn(24))) * (1 + rng.Float64()))
		samples = append(samples, d)
		h.Observe(d)
	}
	sort.Slice(samples, func(a, b int) bool { return samples[a] < samples[b] })
	snap := h.Snapshot()
	for _, q := range []float64{0.01, 0.10, 0.50, 0.90, 0.99, 1.0} {
		rank := int(q*float64(len(samples))+0.5) - 1
		if rank < 0 {
			rank = 0
		}
		exact := float64(samples[rank])
		got := float64(snap.Quantile(q))
		if got < exact/(1+2.0/subBuckets) || got > exact*(1+2.0/subBuckets) {
			t.Errorf("q=%.2f: histogram %v vs exact %v exceeds resolution", q, time.Duration(got), time.Duration(exact))
		}
	}
}

// TestMergeEquivalence: merging snapshots of two histograms must be
// indistinguishable from one histogram having observed both sample sets.
func TestMergeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var a, b, both Histogram
	for i := 0; i < 5000; i++ {
		d := time.Duration(rng.Int63n(int64(10 * time.Second)))
		if i%3 == 0 {
			a.Observe(d)
		} else {
			b.Observe(d)
		}
		both.Observe(d)
	}
	sa, sb, sboth := a.Snapshot(), b.Snapshot(), both.Snapshot()
	sa.Merge(&sb)
	if sa.Count != sboth.Count || sa.Sum != sboth.Sum {
		t.Fatalf("merge count/sum mismatch: %d/%v vs %d/%v", sa.Count, sa.Sum, sboth.Count, sboth.Sum)
	}
	if sa.Counts != sboth.Counts {
		t.Fatal("merged bucket counts differ from combined histogram")
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if sa.Quantile(q) != sboth.Quantile(q) {
			t.Fatalf("q=%v: merged %v vs combined %v", q, sa.Quantile(q), sboth.Quantile(q))
		}
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	var h Histogram
	snap := h.Snapshot()
	if got := snap.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}
	if snap.Mean() != 0 || snap.Min() != 0 || snap.Max() != 0 {
		t.Fatal("empty histogram mean/min/max not zero")
	}
	h.Observe(42 * time.Millisecond)
	snap = h.Snapshot()
	for _, q := range []float64{0.0001, 0.5, 1.0} {
		got := snap.Quantile(q)
		lo, hi := bucketBounds(bucketIndex(uint64(42 * time.Millisecond)))
		if got < time.Duration(lo) || got > time.Duration(hi) {
			t.Fatalf("single-sample quantile(%v) = %v outside its bucket [%d,%d]", q, got, lo, hi)
		}
	}
	h.Observe(-time.Second) // clamps to zero
	if snap := h.Snapshot(); snap.Min() != 0 {
		t.Fatalf("negative observation should clamp to 0, min = %v", snap.Min())
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	const workers, per = 8, 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(w*1000+i) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	snap := h.Snapshot()
	if snap.Count != workers*per {
		t.Fatalf("count = %d, want %d", snap.Count, workers*per)
	}
	var fromBuckets uint64
	for _, c := range snap.Counts {
		fromBuckets += c
	}
	if fromBuckets != snap.Count {
		t.Fatalf("bucket sum %d != count %d", fromBuckets, snap.Count)
	}
}

func TestMean(t *testing.T) {
	var h Histogram
	h.Observe(10 * time.Millisecond)
	h.Observe(30 * time.Millisecond)
	if snap := h.Snapshot(); snap.Mean() != 20*time.Millisecond {
		t.Fatalf("mean = %v, want 20ms", snap.Mean())
	}
}

func TestPow2BucketsExactAgainstBruteForce(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(41))
	var samples []uint64
	for i := 0; i < 5000; i++ {
		// Spread across many octaves, including exact powers of two —
		// the boundary cases the export convention must get right.
		v := uint64(rng.Int63n(1 << uint(10+rng.Intn(30))))
		if i%97 == 0 {
			v = 1 << uint(rng.Intn(40))
		}
		samples = append(samples, v)
		h.Observe(time.Duration(v))
	}
	snap := h.Snapshot()
	buckets := snap.Pow2Buckets(12, 43)
	if len(buckets) != 32 {
		t.Fatalf("len = %d, want 32", len(buckets))
	}
	for i, b := range buckets {
		if want := uint64(1) << uint(12+i); b.Le != want {
			t.Fatalf("bucket %d: Le = %d, want %d", i, b.Le, want)
		}
		var brute uint64
		for _, v := range samples {
			if v < b.Le {
				brute++
			}
		}
		if b.Count != brute {
			t.Fatalf("le=%d: count = %d, brute force = %d", b.Le, b.Count, brute)
		}
	}
	// Cumulative counts are monotone and bounded by the total.
	for i := 1; i < len(buckets); i++ {
		if buckets[i].Count < buckets[i-1].Count {
			t.Fatalf("not monotone at %d", i)
		}
	}
	if last := buckets[len(buckets)-1].Count; last > snap.Count {
		t.Fatalf("last bucket %d exceeds count %d", last, snap.Count)
	}
}

func TestPow2BucketsEdges(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(1)
	snap := h.Snapshot()
	if got := snap.Pow2Buckets(5, 4); got != nil {
		t.Fatalf("inverted range = %v, want nil", got)
	}
	full := snap.Pow2Buckets(-10, 99) // clamps to [0, 63]
	if len(full) != 64 {
		t.Fatalf("clamped len = %d, want 64", len(full))
	}
	if full[0].Le != 1 || full[0].Count != 1 {
		t.Fatalf("le=1 bucket = %+v, want count 1 (only the 0 sample)", full[0])
	}
	if full[1].Le != 2 || full[1].Count != 2 {
		t.Fatalf("le=2 bucket = %+v, want count 2", full[1])
	}
	if full[63].Count != 2 {
		t.Fatalf("top bucket count = %d, want 2", full[63].Count)
	}
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
