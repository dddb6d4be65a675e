package main

import (
	"testing"
	"time"

	"siphoc/internal/obs"
)

// The AODV pass reads discovery delays over the pass only: the samples of
// the later snapshot less those of the earlier one, bucket by bucket.
func TestHistDelta(t *testing.T) {
	ms := time.Millisecond
	a := obs.HistogramSnapshot{Count: 3, Sum: 30 * ms, Buckets: []obs.BucketCount{{LE: 10 * ms, Count: 3}, {LE: 100 * ms}, {LE: -1}}}
	b := obs.HistogramSnapshot{Count: 7, Sum: 270 * ms, Buckets: []obs.BucketCount{{LE: 10 * ms, Count: 3}, {LE: 100 * ms, Count: 4}, {LE: -1}}}
	d := histDelta(a, b)
	if d.Count != 4 || d.Sum != 240*ms {
		t.Fatalf("delta count %d sum %v, want 4 and 240ms", d.Count, d.Sum)
	}
	if q := d.Quantile(0.5); q <= 10*ms || q > 100*ms {
		t.Fatalf("median of the new samples %v, want it in the (10ms, 100ms] bucket", q)
	}
	if z := histDelta(b, b); z.Count != 0 || z.Quantile(0.5) != 0 {
		t.Fatalf("delta of a snapshot with itself: %+v", z)
	}
}
