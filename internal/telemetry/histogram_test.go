package telemetry

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketIndexUpperConsistent(t *testing.T) {
	// Every value must land in a bucket whose upper bound is >= the value
	// and within 12.5% of it (the sub-bucket resolution guarantee).
	values := []int64{0, 1, 2, 7, 8, 9, 15, 16, 17, 100, 1000, 4095, 4096,
		1 << 20, (1 << 20) + 12345, 1 << 40, math.MaxInt64}
	for _, v := range values {
		i := bucketIndex(v)
		if i < 0 || i >= numBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range [0,%d)", v, i, numBuckets)
		}
		u := bucketUpper(i)
		if u < v {
			t.Fatalf("bucketUpper(bucketIndex(%d)) = %d < value", v, u)
		}
		if v >= subBuckets && float64(u) > float64(v)*1.125 {
			t.Fatalf("bucket upper %d overshoots value %d by more than 12.5%%", u, v)
		}
	}
	// Bucket upper bounds must be monotonically non-decreasing.
	prev := int64(-1)
	for i := 0; i < numBuckets; i++ {
		u := bucketUpper(i)
		if u < prev {
			t.Fatalf("bucketUpper(%d) = %d < bucketUpper(%d) = %d", i, u, i-1, prev)
		}
		prev = u
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 500500 {
		t.Fatalf("sum = %d", h.Sum())
	}
	if h.Max() != 1000 {
		t.Fatalf("max = %d", h.Max())
	}
	if h.Mean() != 500 {
		t.Fatalf("mean = %d", h.Mean())
	}
	// Quantile estimates are upper bucket bounds: true value <= estimate
	// <= true value * 1.125.
	for _, tc := range []struct {
		q    float64
		want int64
	}{{0.50, 500}, {0.90, 900}, {0.99, 990}, {1.0, 1000}} {
		got := h.Quantile(tc.q)
		if got < tc.want || float64(got) > float64(tc.want)*1.125 {
			t.Fatalf("Quantile(%v) = %d, want within [%d, %d]",
				tc.q, got, tc.want, int64(float64(tc.want)*1.125))
		}
	}
	if got := h.Quantile(0); got <= 0 || got > 8 {
		t.Fatalf("Quantile(0) = %d, want the smallest bucket's bound", got)
	}
	// Out-of-range q is clamped, not a panic.
	if h.Quantile(-1) != h.Quantile(0) || h.Quantile(2) != h.Quantile(1) {
		t.Fatal("q clamping broken")
	}
}

func TestHistogramSingleObservation(t *testing.T) {
	h := NewHistogram()
	h.ObserveDuration(42 * time.Microsecond)
	v := int64(42 * time.Microsecond)
	if h.Count() != 1 || h.Sum() != v || h.Max() != v {
		t.Fatalf("count/sum/max = %d/%d/%d", h.Count(), h.Sum(), h.Max())
	}
	// With one observation every quantile is that observation (capped at
	// the exact max, not the bucket bound).
	if p50, p90, p99 := h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99); p50 != v || p90 != v || p99 != v {
		t.Fatalf("quantiles of a single observation: %d %d %d", p50, p90, p99)
	}
}

func TestHistogramEmptyAndNegative(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.Observe(-5) // clamped to 0, not a panic or a wild bucket
	if h.Count() != 1 || h.Sum() != 0 || h.Quantile(1) != 0 {
		t.Fatalf("negative observation: count/sum/p100 = %d/%d/%d", h.Count(), h.Sum(), h.Quantile(1))
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatal("nil histogram reported non-zero")
	}
	if h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram quantile")
	}
}

// TestHistogramConcurrentRecording exercises the lock-free recording
// path from many goroutines; run under -race it also proves the
// structure is data-race-free.
func TestHistogramConcurrentRecording(t *testing.T) {
	h := NewHistogram()
	const workers = 8
	const perWorker = 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(int64(w*perWorker + i))
				if i%1000 == 0 {
					h.Quantile(0.99) // concurrent reads must be safe too
					h.Mean()
				}
			}
		}(w)
	}
	wg.Wait()
	const total = workers * perWorker
	if h.Count() != total {
		t.Fatalf("lost observations: count = %d, want %d", h.Count(), total)
	}
	var sum int64
	for v := int64(0); v < total; v++ {
		sum += v
	}
	if h.Sum() != sum {
		t.Fatalf("sum = %d, want %d", h.Sum(), sum)
	}
	if h.Max() != total-1 {
		t.Fatalf("max = %d, want %d", h.Max(), total-1)
	}
	if p99 := h.Quantile(0.99); p99 < total*99/100 || float64(p99) > float64(total)*1.125 {
		t.Fatalf("p99 = %d out of plausible range", p99)
	}
}

func TestHistogramExemplar(t *testing.T) {
	h := NewHistogram()
	if v, id := h.MaxExemplar(); v != 0 || id != "" {
		t.Fatalf("fresh histogram exemplar = %d %q", v, id)
	}

	h.ObserveTraced(100, "aaa")
	h.ObserveTraced(50, "bbb") // smaller within the same epoch: keep aaa
	if v, id := h.MaxExemplar(); v != 100 || id != "aaa" {
		t.Fatalf("exemplar = %d %q, want 100 aaa", v, id)
	}
	h.ObserveTraced(300, "ccc") // larger: replace
	if v, id := h.MaxExemplar(); v != 300 || id != "ccc" {
		t.Fatalf("exemplar = %d %q, want 300 ccc", v, id)
	}
	h.Observe(10_000)           // untraced never competes
	h.ObserveTraced(10_000, "") // empty trace ID never competes
	if _, id := h.MaxExemplar(); id != "ccc" {
		t.Fatalf("exemplar trace = %q, want ccc", id)
	}

	// Epoch rollover: after exemplarEpoch more observations, a smaller
	// observation still replaces a stale larger one.
	for i := 0; i < exemplarEpoch; i++ {
		h.Observe(1)
	}
	h.ObserveTraced(5, "ddd")
	if v, id := h.MaxExemplar(); v != 5 || id != "ddd" {
		t.Fatalf("post-epoch exemplar = %d %q, want 5 ddd", v, id)
	}

	var nilH *Histogram
	nilH.ObserveTraced(1, "x")
	if v, id := nilH.MaxExemplar(); v != 0 || id != "" {
		t.Fatal("nil histogram exemplar must be empty")
	}
}

func TestTimerExemplarInSnapshot(t *testing.T) {
	m := New()
	m.Timer("serve.detect").ObserveTraced(40*time.Millisecond, "deadbeef")
	m.Timer("serve.detect").Observe(1 * time.Millisecond)
	ts := m.Snapshot().Timers["serve.detect"]
	if ts.MaxTraceID != "deadbeef" {
		t.Fatalf("timer snapshot MaxTraceID = %q, want deadbeef", ts.MaxTraceID)
	}
}
