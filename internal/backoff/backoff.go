// Package backoff is the fleet's one exponential backoff policy: the
// capped doubling behind the client's retry delays, and the cooldown
// that benches a failing endpoint in the scheduler and a failing peer
// in the cache mesh. Time is always an argument, never read here, so
// the scheduler's virtual-clock harness drives the same code
// deterministically.
package backoff

import "time"

// maxShift bounds the doubling exponent. Doubling saturates any
// practical max long before this; the cap keeps the shift well-defined
// (a shift of 63 or more on a Duration overflows, and an overflowed
// value landing in a clamp is not behaviour to rely on).
const maxShift = 16

// Exp returns base doubled n times, capped at max. An n outside
// [0, 16) yields max, so a caller counting failures for weeks never
// shifts into overflow.
func Exp(base, max time.Duration, n int) time.Duration {
	if n >= 0 && n < maxShift && base <= max>>n {
		return base << n
	}
	return max
}

// Cooldown is one endpoint's bench record. The zero value is ready.
// It holds no lock: callers guard it with their own.
type Cooldown struct {
	// Fails counts consecutive failures. It stops growing once the
	// cooldown saturates, so it stays bounded however long the
	// endpoint is down.
	Fails int
	// Until is when the endpoint may be tried again.
	Until time.Time
}

// Fail records a failure at now and benches the endpoint for base,
// doubling per consecutive failure up to max.
func (c *Cooldown) Fail(now time.Time, base, max time.Duration) {
	if c.Fails <= maxShift {
		c.Fails++
	}
	c.Until = now.Add(Exp(base, max, c.Fails-1))
}

// Reset clears the record after a success.
func (c *Cooldown) Reset() { *c = Cooldown{} }

// Ready reports whether the cooldown has expired at now.
func (c *Cooldown) Ready(now time.Time) bool { return !now.Before(c.Until) }
