// Package client is the typed Go client for the arcsimd job API: submit
// (single or batch), poll, SSE wait with Last-Event-ID resume, result
// fetch, and cancel against one daemon. Spreading runs across several
// daemons, with benching and failover, is internal/sched/fleet's job
// (DESIGN.md "Distributed sweep execution" documents the policy).
//
// Every unary call retries transient failures (network errors, 5xx,
// 429) with exponential backoff and full jitter; 4xx client errors
// surface immediately. The SSE follower reconnects a dropped stream
// with the last event id it saw, so a watcher survives connection
// resets and proxy hiccups without replaying or losing events.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"arcsim/internal/backoff"
	"arcsim/internal/mesh"
	"arcsim/internal/server"
	"arcsim/internal/sim"
)

// Wire types are the server's own: the client never redefines the API
// surface, so the two cannot drift.
type (
	JobSpec   = server.JobSpec
	JobView   = server.JobView
	BatchItem = server.BatchItem
)

// ErrJobLost reports that a followed job disappeared server-side — the
// daemon restarted and its in-memory job table is gone. The spec can
// simply be resubmitted: a restarted daemon serves proven results from
// its persistent store without re-simulating.
var ErrJobLost = errors.New("client: job lost (daemon restarted?)")

// Retry tunes the transient-failure policy shared by unary calls and
// SSE reconnects.
type Retry struct {
	// Attempts is the total number of tries per call (default 4).
	Attempts int
	// Base is the first backoff delay (default 100ms); each further
	// attempt doubles it up to Max (default 5s).
	Base time.Duration
	Max  time.Duration
}

func (r Retry) normalized() Retry {
	if r.Attempts <= 0 {
		r.Attempts = 4
	}
	if r.Base <= 0 {
		r.Base = 100 * time.Millisecond
	}
	if r.Max <= 0 {
		r.Max = 5 * time.Second
	}
	return r
}

// delay returns the full-jitter backoff for attempt (0-based): a uniform
// draw from (0, Base*2^attempt] capped at Max, so a fleet of clients
// spreads its retries instead of thundering back in lockstep. An SSE
// follow that reconnects for hours reaches attempt counts where
// Base<<attempt would overflow; backoff.Exp saturates at Max instead.
func (r Retry) delay(attempt int, rnd func() float64) time.Duration {
	d := backoff.Exp(r.Base, r.Max, attempt)
	return time.Duration((rnd()*0.999 + 0.001) * float64(d))
}

// Options tunes a Client.
type Options struct {
	Retry Retry
	// RequestTimeout bounds one unary HTTP exchange (default 60s).
	// Streaming follows are bounded by their context instead.
	RequestTimeout time.Duration
	// Rand replaces the jitter source (tests). Defaults to math/rand.
	Rand func() float64
}

func (o Options) normalized() Options {
	o.Retry = o.Retry.normalized()
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 60 * time.Second
	}
	if o.Rand == nil {
		var mu sync.Mutex
		o.Rand = func() float64 {
			mu.Lock()
			defer mu.Unlock()
			return rand.Float64()
		}
	}
	return o
}

// APIError is a non-2xx response from the daemon.
type APIError struct {
	Status     int
	Msg        string
	RetryAfter time.Duration // from the 429/503 Retry-After header
}

func (e *APIError) Error() string {
	return fmt.Sprintf("daemon: %d %s", e.Status, e.Msg)
}

// retryable reports whether err is worth retrying against the same
// endpoint: transport errors and server-side conditions (5xx, 429) are;
// client errors (4xx) are not. ctx is the caller's context, which is
// the only reliable arbiter of whose deadline fired: http.Client's
// per-attempt Timeout surfaces as context.DeadlineExceeded too, so
// matching the error alone would misread a single hung exchange as the
// caller giving up and skip the retry that timeout exists to enable.
func retryable(ctx context.Context, err error) bool {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Status >= 500 || ae.Status == http.StatusTooManyRequests
	}
	// Anything that never produced an HTTP status is a transport
	// failure: connection refused/reset, per-attempt timeout, torn body.
	// Retry while the caller still wants the answer.
	return ctx.Err() == nil
}

// IsNotFound reports a 404 (unknown job id).
func IsNotFound(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Status == http.StatusNotFound
}

// Client talks to one arcsimd daemon.
type Client struct {
	base   string
	opts   Options
	unary  *http.Client // per-request timeout
	stream *http.Client // no timeout: SSE lives as long as its context
}

// New builds a client for the daemon at base (e.g. "http://host:8080").
func New(base string, opts Options) *Client {
	opts = opts.normalized()
	transport := http.DefaultTransport
	return &Client{
		base:   strings.TrimRight(base, "/"),
		opts:   opts,
		unary:  &http.Client{Transport: transport, Timeout: opts.RequestTimeout},
		stream: &http.Client{Transport: transport},
	}
}

// Base returns the endpoint URL the client was built with.
func (c *Client) Base() string { return c.base }

// call performs one unary exchange with retries: marshal in (when
// non-nil) as the JSON body, decode the response into out (when
// non-nil), surface non-2xx as *APIError.
func (c *Client) call(ctx context.Context, method, path string, in, out any) error {
	var lastErr error
	for attempt := 0; attempt < c.opts.Retry.Attempts; attempt++ {
		if attempt > 0 {
			wait := c.opts.Retry.delay(attempt-1, c.opts.Rand)
			var ae *APIError
			if errors.As(lastErr, &ae) && ae.RetryAfter > wait {
				wait = ae.RetryAfter
			}
			select {
			case <-ctx.Done():
				return lastErr
			case <-time.After(wait):
			}
		}
		lastErr = c.once(ctx, method, path, in, out)
		if lastErr == nil || !retryable(ctx, lastErr) {
			return lastErr
		}
	}
	return lastErr
}

func (c *Client) once(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.unary.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 && resp.StatusCode != http.StatusMultiStatus {
		return apiError(resp, data)
	}
	if out == nil {
		return nil
	}
	if raw, ok := out.(*[]byte); ok {
		*raw = data
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("client: bad response body: %w", err)
	}
	return nil
}

func apiError(resp *http.Response, data []byte) error {
	var e struct {
		Error string `json:"error"`
	}
	msg := strings.TrimSpace(string(data))
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		msg = e.Error
	}
	ae := &APIError{Status: resp.StatusCode, Msg: msg}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
		ae.RetryAfter = time.Duration(ra) * time.Second
	}
	return ae
}

// Submit enqueues one job.
func (c *Client) Submit(ctx context.Context, spec JobSpec) (JobView, error) {
	var view JobView
	err := c.call(ctx, http.MethodPost, "/v1/jobs", spec, &view)
	return view, err
}

// SubmitBatch enqueues many jobs in one request. The returned items are
// in input order; entries the daemon rejected carry their own status and
// error while the rest proceed.
func (c *Client) SubmitBatch(ctx context.Context, specs []JobSpec) ([]BatchItem, error) {
	var payload struct {
		Jobs []BatchItem `json:"jobs"`
	}
	err := c.call(ctx, http.MethodPost, "/v1/jobs/batch", map[string]any{"jobs": specs}, &payload)
	return payload.Jobs, err
}

// Job fetches one job's current state.
func (c *Client) Job(ctx context.Context, id string) (JobView, error) {
	var view JobView
	err := c.call(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &view)
	return view, err
}

// List fetches every job the daemon knows, in creation order.
func (c *Client) List(ctx context.Context) ([]JobView, error) {
	var payload struct {
		Jobs []JobView `json:"jobs"`
	}
	err := c.call(ctx, http.MethodGet, "/v1/jobs", nil, &payload)
	return payload.Jobs, err
}

// Cancel cancels a queued or running job.
func (c *Client) Cancel(ctx context.Context, id string) error {
	return c.call(ctx, http.MethodPost, "/v1/jobs/"+id+"/cancel", nil, nil)
}

// CancelReason cancels a job with an explicit reason. The daemon folds a
// recognized reason (e.g. "preempt") into the job's final Error, so the
// follower that owns the job can tell a scheduler preemption — requeue
// elsewhere — from an operator cancel, which is final.
func (c *Client) CancelReason(ctx context.Context, id, reason string) error {
	return c.call(ctx, http.MethodPost, "/v1/jobs/"+id+"/cancel?reason="+url.QueryEscape(reason), nil, nil)
}

// ResultBytes fetches a done job's result in the store's canonical
// encoding — byte-identical across cache hits, daemons, and restarts.
func (c *Client) ResultBytes(ctx context.Context, id string) ([]byte, error) {
	var raw []byte
	err := c.call(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil, &raw)
	return raw, err
}

// Result fetches and decodes a done job's result.
func (c *Client) Result(ctx context.Context, id string) (*sim.Result, error) {
	raw, err := c.ResultBytes(ctx, id)
	if err != nil {
		return nil, err
	}
	var res sim.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, fmt.Errorf("client: bad result body: %w", err)
	}
	return &res, nil
}

// Health fetches /healthz (any 2xx means the daemon is up).
func (c *Client) Health(ctx context.Context) ([]byte, error) {
	var raw []byte
	// Health is the probe other machinery keys off: one shot, no retry.
	err := c.once(ctx, http.MethodGet, "/healthz", nil, &raw)
	return raw, err
}

// Metrics fetches the raw /metrics text. Like Health it is a probe —
// one shot, no retry — because its consumers (the scheduler's load
// probe) would rather see the failure and degrade than act on a sample
// delayed by a retry loop.
func (c *Client) Metrics(ctx context.Context) ([]byte, error) {
	var raw []byte
	err := c.once(ctx, http.MethodGet, "/metrics", nil, &raw)
	return raw, err
}

// MeshStatus fetches the daemon's /v1/mesh view (node id, per-peer
// health, fetch counters) raw. One shot, no retry, like the other
// probes: its consumer is a status table, not a control loop.
func (c *Client) MeshStatus(ctx context.Context) ([]byte, error) {
	var raw []byte
	err := c.once(ctx, http.MethodGet, "/v1/mesh", nil, &raw)
	return raw, err
}

// StoreHead reports whether the daemon's store holds the canonical
// cache key (bench.Config.CacheKey), via the mesh blob API's HEAD.
// Like Health it is a probe — one shot, no retry — because its
// consumer (the scheduler pricing a job near zero when any fleet
// member already holds its result) would rather miss the discount
// than stall a planning pass on a retry loop. Every failure mode
// reads as "not cached".
func (c *Client) StoreHead(ctx context.Context, key string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodHead, c.base+mesh.PathPrefix+mesh.EscapeKey(key), nil)
	if err != nil {
		return false
	}
	resp, err := c.unary.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// Follow streams a job's SSE lifecycle until it reaches a terminal
// state, invoking onEvent (when non-nil) for every event exactly once.
// A dropped connection reconnects with backoff and resumes from the
// last event id seen; the retry budget applies to consecutive failed
// reconnects and is refreshed by any received event. Returns the
// terminal JobView from the job's "done" event, or ErrJobLost if the
// daemon restarted and forgot the job mid-follow.
func (c *Client) Follow(ctx context.Context, id string, onEvent func(name, data string)) (JobView, error) {
	lastID := -1
	fails := 0
	for {
		before := lastID
		final, done, err := c.followOnce(ctx, id, &lastID, onEvent)
		switch {
		case done:
			return final, err
		case err != nil && IsNotFound(err):
			if lastID >= 0 {
				// We were mid-stream and the job vanished: the daemon
				// restarted. Callers that know the spec can resubmit.
				return final, fmt.Errorf("%w: %s", ErrJobLost, id)
			}
			return final, err
		case err != nil && !retryable(ctx, err):
			return final, err
		}
		// Stream ended early (drain) or tore (reset, proxy timeout):
		// reconnect and resume from lastID. Any delivered event counts
		// as progress and refreshes the budget.
		if lastID > before {
			fails = 0
		} else {
			fails++
		}
		if fails >= c.opts.Retry.Attempts {
			if err == nil {
				err = errors.New("stream ended without a done event")
			}
			return final, fmt.Errorf("client: job %s: stream failed %d times: %w", id, fails, err)
		}
		select {
		case <-ctx.Done():
			return final, ctx.Err()
		case <-time.After(c.opts.Retry.delay(fails, c.opts.Rand)):
		}
	}
}

// followOnce consumes one SSE connection. done reports that a terminal
// "done" event arrived; otherwise the caller decides whether to resume.
func (c *Client) followOnce(ctx context.Context, id string, lastID *int, onEvent func(name, data string)) (final JobView, done bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return final, false, err
	}
	if *lastID >= 0 {
		req.Header.Set("Last-Event-ID", strconv.Itoa(*lastID))
	}
	resp, err := c.stream.Do(req)
	if err != nil {
		return final, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return final, false, apiError(resp, data)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	event, eid := "", -1
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			if n, err := strconv.Atoi(strings.TrimPrefix(line, "id: ")); err == nil {
				eid = n
			}
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			if eid >= 0 {
				*lastID = eid
			}
			if onEvent != nil {
				onEvent(event, data)
			}
			if event == "done" {
				if err := json.Unmarshal([]byte(data), &final); err != nil {
					return final, true, fmt.Errorf("client: bad done event %q: %w", data, err)
				}
				return final, true, nil
			}
		}
	}
	// The stream ended without a done event: a drain-time close (clean
	// EOF, err == nil) or a torn connection. Either way the caller
	// resumes from lastID.
	return final, false, sc.Err()
}
