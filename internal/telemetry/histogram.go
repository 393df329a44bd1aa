package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucketing: values are binned by magnitude into major buckets
// (one per power of two) that are each split into subBuckets linear
// sub-ranges, HdrHistogram-style. With 8 sub-buckets per octave the
// relative quantile error is bounded by 1/8 = 12.5%, the whole structure
// is a fixed 4KB of atomics, and recording is two atomic adds plus a
// handful of bit operations — cheap enough for per-candidate hot paths
// and entirely lock-free.
const (
	subBucketBits = 3
	subBuckets    = 1 << subBucketBits // 8
	// One segment for values below subBuckets plus one per exponent in
	// [subBucketBits, 63]: every int64 magnitude has a bucket.
	majorBuckets = 64 - subBucketBits + 1 // 62
	numBuckets   = majorBuckets * subBuckets
)

// Histogram is a lock-free log-bucketed histogram of non-negative int64
// observations (typically latencies in nanoseconds). It records exact
// count/sum/max and approximate quantiles with bounded relative error.
// The nil *Histogram discards all updates and reports zeros, matching
// the package's nil-receiver convention.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	exem    atomic.Pointer[exemplar]
	buckets [numBuckets]atomic.Int64
}

// exemplarEpoch is the observation-count window over which a max
// exemplar competes. Scoping the exemplar to an epoch (rather than the
// process lifetime) means a p99 spike NOW replaces the exemplar even if
// some earlier observation was larger, so the retained trace ID links
// to a flight-recorder entry that is still likely to be held.
const exemplarEpoch = 1024

// exemplar pairs an observation with the trace that produced it.
type exemplar struct {
	value int64
	epoch int64
	trace string
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	u := uint64(v)
	if u < subBuckets {
		// Values 0..7 land in the first major bucket, one per sub-bucket.
		return int(u)
	}
	// The top set bit selects the major bucket; the next subBucketBits
	// bits select the sub-bucket within it.
	exp := bits.Len64(u) - 1 // >= subBucketBits
	sub := (u >> (uint(exp) - subBucketBits)) & (subBuckets - 1)
	return (exp-subBucketBits+1)*subBuckets + int(sub)
}

// bucketUpper returns the largest value a bucket can hold (inclusive);
// quantiles report this bound, so estimates err on the conservative side.
func bucketUpper(i int) int64 {
	if i < subBuckets {
		return int64(i)
	}
	exp := i/subBuckets + subBucketBits - 1
	sub := uint64(i % subBuckets)
	lower := (uint64(1) << uint(exp)) | (sub << (uint(exp) - subBucketBits))
	width := uint64(1) << (uint(exp) - subBucketBits)
	if upper := lower + width - 1; upper <= math.MaxInt64 {
		return int64(upper)
	}
	// The top octave's bounds exceed int64; no observation can either.
	return math.MaxInt64
}

// Observe records one value. Negative values are clamped to zero.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.buckets[bucketIndex(v)].Add(1)
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// ObserveTraced records one value and, when traceID is non-empty,
// offers it as the max exemplar of the current epoch: the exemplar is
// replaced when the epoch has rolled over or the value is at least the
// held one. Cost over Observe is one extra load on the non-max path.
func (h *Histogram) ObserveTraced(v int64, traceID string) {
	h.Observe(v)
	if h == nil || traceID == "" {
		return
	}
	if v < 0 {
		v = 0
	}
	ep := h.count.Load() / exemplarEpoch
	for {
		cur := h.exem.Load()
		if cur != nil && cur.epoch == ep && v < cur.value {
			return
		}
		if h.exem.CompareAndSwap(cur, &exemplar{value: v, epoch: ep, trace: traceID}) {
			return
		}
	}
}

// MaxExemplar returns the current epoch-max observation and the trace
// ID that produced it ("" when no traced observation has been made).
func (h *Histogram) MaxExemplar() (int64, string) {
	if h == nil {
		return 0, ""
	}
	e := h.exem.Load()
	if e == nil {
		return 0, ""
	}
	return e.value, e.trace
}

// Count returns the number of observations (0 for the nil histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total of all observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Max returns the largest observation.
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max.Load()
}

// Mean returns the average observation (0 with no observations).
func (h *Histogram) Mean() int64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / n
}

// Quantile returns an estimate of the q-quantile (q in [0,1]) as the
// upper bound of the bucket in which it falls: at most 12.5% above the
// true value. Quantile(0.5) is the median. Returns 0 with no
// observations; q outside [0,1] is clamped.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the target observation, 1-based; ceil(q*total) with a
	// floor of 1 so Quantile(0) is the smallest recorded bucket.
	rank := int64(q * float64(total))
	if float64(rank) < q*float64(total) || rank == 0 {
		rank++
	}
	var seen int64
	for i := 0; i < numBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen >= rank {
			u := bucketUpper(i)
			if m := h.max.Load(); u > m {
				return m // never report beyond the observed max
			}
			return u
		}
	}
	return h.max.Load()
}
