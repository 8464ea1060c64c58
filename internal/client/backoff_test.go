package client

import "testing"

// TestRetryDelayHighAttempt pins Retry.delay at attempt counts where
// Base<<attempt would overflow: the delay clamps to Max and never goes
// non-positive.
func TestRetryDelayHighAttempt(t *testing.T) {
	r := Retry{}.normalized()
	full := func() float64 { return 1 } // jitter draw at the top of the range

	if d := r.delay(0, full); d != r.Base {
		t.Fatalf("attempt 0: %v, want %v", d, r.Base)
	}
	for _, attempt := range []int{10, 40, 70} {
		if d := r.delay(attempt, full); d != r.Max {
			t.Fatalf("attempt %d: %v, want clamped %v", attempt, d, r.Max)
		}
	}
	for attempt := 0; attempt < 100; attempt++ {
		if d := r.delay(attempt, full); d <= 0 || d > r.Max {
			t.Fatalf("attempt %d: delay %v outside (0, %v]", attempt, d, r.Max)
		}
	}
}
