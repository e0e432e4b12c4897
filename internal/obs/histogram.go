package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram is a lock-free, constant-memory histogram over non-negative
// integer values (latency nanoseconds, batch occupancies, byte counts).
// The zero value is ready to use, and a Histogram embeds cleanly by value
// into hot structs.
//
// Bucket scheme — log-linear, 72 buckets: values 0..3 get singleton buckets
// (exact); from 4 up, every power-of-two octave [2^e, 2^(e+1)) is split into
// two linear sub-buckets, [2^e, 1.5·2^e) and [1.5·2^e, 2^(e+1)). Bucket
// index is therefore 2e+sub, the last in-range value is 2^36-1 (≈ 68.7 s in
// nanoseconds), and anything larger clamps into the top bucket. Relative
// quantile error is bounded by the sub-bucket width: at most 1/2 of the
// estimate in the worst (even) sub-bucket, 1/3 in the odd — constant across
// five decades of dynamic range for 576 bytes of memory.
//
// Recording is wait-free: one bits.Len64, two atomic adds, no allocation.
// Snapshots are taken bucket-by-bucket without stopping writers; a snapshot
// is internally consistent enough for quantiles (Count is derived from the
// bucket sums it actually read).
type Histogram struct {
	buckets [NumBuckets]atomic.Uint64
	sum     atomic.Uint64
}

// NumBuckets is the fixed bucket count of every Histogram.
const NumBuckets = 72

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	if v < 4 {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // floor(log2 v), ≥ 2
	idx := 2*e + int((v>>(e-1))&1)
	if idx >= NumBuckets {
		return NumBuckets - 1
	}
	return idx
}

// BucketLower returns bucket i's inclusive lower edge in recorded units.
func BucketLower(i int) float64 {
	if i < 4 {
		return float64(i)
	}
	e := uint(i / 2)
	if i%2 == 0 {
		return float64(uint64(1) << e)
	}
	return 1.5 * float64(uint64(1)<<e)
}

// BucketUpper returns bucket i's exclusive upper edge in recorded units.
func BucketUpper(i int) float64 {
	if i < 4 {
		return float64(i + 1)
	}
	if i%2 == 0 {
		return 1.5 * float64(uint64(1)<<uint(i/2))
	}
	return float64(uint64(1) << uint(i/2+1))
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.sum.Add(uint64(v))
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Nanoseconds()) }

// ObserveSince records the nanoseconds elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0).Nanoseconds()) }

// Snapshot is a point-in-time copy of a Histogram, safe to read and query
// while the source keeps recording.
type Snapshot struct {
	Buckets [NumBuckets]uint64
	Count   uint64 // Σ Buckets at snapshot time
	Sum     uint64 // Σ observed values, in recorded units
}

// Snapshot copies the histogram state. Count is derived from the bucket
// counts actually read, so quantiles are always internally consistent; Sum
// is read separately and may lag by in-flight observations.
func (h *Histogram) Snapshot() Snapshot {
	var s Snapshot
	for i := range h.buckets {
		c := h.buckets[i].Load()
		s.Buckets[i] = c
		s.Count += c
	}
	s.Sum = h.sum.Load()
	return s
}

// Mean returns the arithmetic mean of the recorded values (0 if empty).
// Unlike quantiles it is exact: Sum and Count are true totals, not bucket
// reconstructions.
func (s Snapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns an estimate of the p-quantile (p in [0,1]) in recorded
// units. The estimate is exact for values 0..3 (singleton buckets) and
// linearly interpolated within the containing bucket otherwise, so its
// relative error is bounded by that bucket's width. Returns 0 for an empty
// snapshot; p outside [0,1] clamps.
func (s Snapshot) Quantile(p float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	// Rank of the target observation, 1-based, nearest-rank convention.
	rank := uint64(p*float64(s.Count) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum uint64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			if i < 4 {
				return float64(i) // singleton bucket: exact
			}
			lo, hi := BucketLower(i), BucketUpper(i)
			frac := (float64(rank-cum) - 0.5) / float64(c)
			return lo + frac*(hi-lo)
		}
		cum += c
	}
	return BucketUpper(NumBuckets - 1) // unreachable: rank ≤ Count
}
