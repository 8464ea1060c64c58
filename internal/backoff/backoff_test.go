package backoff

import (
	"testing"
	"time"
)

// TestCooldownOverflow pins the exponential cooldown: it doubles from
// base, saturates at max, and stays at max for historic failure counts
// far past the shift width instead of relying on a signed shift
// overflowing into the clamp.
func TestCooldownOverflow(t *testing.T) {
	base, max := time.Second, 30*time.Second
	now := time.Unix(1000, 0)

	var c Cooldown
	want := []time.Duration{
		1 * time.Second, 2 * time.Second, 4 * time.Second, 8 * time.Second,
		16 * time.Second, 30 * time.Second, 30 * time.Second,
	}
	for i, w := range want {
		c.Fail(now, base, max)
		if got := c.Until.Sub(now); got != w {
			t.Fatalf("failure %d: cooldown %v, want %v", i+1, got, w)
		}
		if c.Ready(now) || !c.Ready(c.Until) {
			t.Fatalf("failure %d: not benched exactly until %v", i+1, c.Until)
		}
	}
	c.Reset()
	if c != (Cooldown{}) || !c.Ready(now) {
		t.Fatalf("Reset left %+v", c)
	}

	// Endpoints carrying failure counts past the shift width (a daemon
	// down for weeks) must land exactly on max, never a negative or
	// wrapped duration.
	for _, fails := range []int{40, 70} {
		c := Cooldown{Fails: fails}
		c.Fail(now, base, max)
		if got := c.Until.Sub(now); got != max {
			t.Fatalf("fails=%d: cooldown %v, want %v", fails, got, max)
		}
		if c.Fails != fails {
			t.Fatalf("fails=%d grew to %d at saturation", fails, c.Fails)
		}
	}

	// The counter itself stays bounded under endless failures.
	var c2 Cooldown
	for i := 0; i < 1000; i++ {
		c2.Fail(now, base, max)
	}
	if c2.Fails > maxShift+1 {
		t.Fatalf("fails grew unboundedly: %d", c2.Fails)
	}
	if got := c2.Until.Sub(now); got != max {
		t.Fatalf("saturated cooldown %v, want %v", got, max)
	}
}
