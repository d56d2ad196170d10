package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"dvsslack/internal/obs"
	"dvsslack/internal/prng"
	"dvsslack/internal/resilience"
)

// RetryPolicy tunes the client's self-healing behaviour: exponential
// backoff with full jitter between attempts, a token budget bounding
// total retry amplification, and a consecutive-failure circuit
// breaker that fails fast while the daemon is down.
//
// Only idempotent calls are ever retried: every GET and DELETE, plus
// Simulate — POST /v1/simulate is a pure function of its body (same
// request, same result, memoized server-side), so replaying it is
// safe. CreateJob is NOT retried: replaying it would enqueue the
// batch twice.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per call (first
	// attempt included); <= 0 selects 4.
	MaxAttempts int
	// Backoff shapes the delay between attempts; the zero value
	// selects resilience defaults (50ms base, 5s cap, factor 2).
	Backoff resilience.Backoff
	// Budget is the retry token budget: each retry spends one token,
	// each successful call refunds half a token (up to Budget), so a
	// persistently failing daemon is not hammered with MaxAttempts×
	// traffic forever. <= 0 selects 50.
	Budget int
	// BreakerThreshold consecutive failed calls open the circuit
	// breaker for BreakerCooldown: calls fail fast with
	// resilience.ErrBreakerOpen instead of timing out one by one.
	// <= 0 select 5 and 2s.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Seed drives the jitter stream, making retry schedules
	// deterministic in tests. Production callers should vary it per
	// client (e.g. PID) so fleets do not thunder in lockstep.
	Seed uint64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.Budget <= 0 {
		p.Budget = 50
	}
	if p.BreakerThreshold <= 0 {
		p.BreakerThreshold = 5
	}
	if p.BreakerCooldown <= 0 {
		p.BreakerCooldown = 2 * time.Second
	}
	return p
}

// RetryStats is a snapshot of the client's retry accounting.
type RetryStats struct {
	// Attempts counts every HTTP attempt, first tries included.
	Attempts uint64
	// Retries counts re-attempts after a retryable failure.
	Retries uint64
	// BreakerRejects counts calls failed fast by the open breaker.
	BreakerRejects uint64
	// BudgetExhausted counts retries suppressed by an empty budget.
	BudgetExhausted uint64
}

// retrier holds the mutable retry state shared by all calls of one
// Client.
type retrier struct {
	policy  RetryPolicy
	breaker *resilience.Breaker

	mu     sync.Mutex
	rng    *prng.Source
	budget float64
	stats  RetryStats

	// sleep is swapped by tests to make retry schedules instant.
	sleep func(ctx context.Context, d time.Duration) error
}

func newRetrier(p RetryPolicy) *retrier {
	p = p.withDefaults()
	return &retrier{
		policy:  p,
		breaker: resilience.NewBreaker(p.BreakerThreshold, p.BreakerCooldown),
		rng:     prng.New(p.Seed),
		budget:  float64(p.Budget),
		sleep:   sleepCtx,
	}
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// attempt/refund/spend maintain the token budget and counters.
func (rt *retrier) attempt() {
	rt.mu.Lock()
	rt.stats.Attempts++
	rt.mu.Unlock()
}

func (rt *retrier) refund() {
	rt.mu.Lock()
	if rt.budget += 0.5; rt.budget > float64(rt.policy.Budget) {
		rt.budget = float64(rt.policy.Budget)
	}
	rt.mu.Unlock()
}

func (rt *retrier) spend() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.budget < 1 {
		rt.stats.BudgetExhausted++
		return false
	}
	rt.budget--
	rt.stats.Retries++
	return true
}

func (rt *retrier) rejectedByBreaker() {
	rt.mu.Lock()
	rt.stats.BreakerRejects++
	rt.mu.Unlock()
}

// delay computes the pause before re-attempting: full-jitter
// exponential backoff, raised to the server's Retry-After hint when
// one was given (never above the backoff cap — a hinting server does
// not get to park the client indefinitely).
func (rt *retrier) delay(attempt int, hint time.Duration) time.Duration {
	rt.mu.Lock()
	u := rt.rng.Float64()
	rt.mu.Unlock()
	d := rt.policy.Backoff.Delay(attempt, u)
	if hint > 0 {
		if max := rt.policy.Backoff.Cap(1 << 10); hint > max {
			hint = max
		}
		if d < hint {
			d = hint
		}
	}
	return d
}

// retryable classifies an error: transport-level failures (connection
// refused/reset, EOF, truncated or garbled bodies) and throttling or
// server-fault statuses are worth re-attempting; application errors
// (validation, unknown job, infeasible scenario), a well-formed body
// of the wrong shape (a coordinator's FleetSnapshot read as a
// MetricsSnapshot reads the same every time) and the caller's own
// context expiring are not.
func retryable(err error) bool {
	var api *APIError
	if errors.As(err, &api) {
		switch api.StatusCode {
		case http.StatusRequestTimeout, http.StatusTooManyRequests,
			http.StatusInternalServerError, http.StatusBadGateway,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return true
		}
		return false
	}
	var shape *json.UnmarshalTypeError
	if errors.As(err, &shape) {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return true
}

// retryAfterHint extracts a server-provided Retry-After duration.
func retryAfterHint(err error) time.Duration {
	var api *APIError
	if errors.As(err, &api) {
		return api.RetryAfter
	}
	return 0
}

// roundTrip wraps the retrying transport in a client span when a
// tracer is configured (WithTracer). The span covers every attempt of
// the call and parents the daemon's handler span via the Traceparent
// header doOnce injects from the span's context.
func (c *Client) roundTrip(ctx context.Context, method, path string, body []byte, idem bool, receive func(*http.Response) error) error {
	if c.tracer == nil {
		return c.roundTripAttempts(ctx, method, path, body, idem, receive)
	}
	parent, _ := obs.SpanContextFromContext(ctx)
	span := c.tracer.StartSpan(parent, "client."+path)
	span.SetAttr("method", method)
	ctx = obs.ContextWithSpanContext(ctx, span.Context())
	err := c.roundTripAttempts(ctx, method, path, body, idem, receive)
	if err != nil {
		span.SetAttr("error", err.Error())
	}
	span.End()
	return err
}

// roundTripAttempts is the retrying transport shared by every client
// call. receive consumes a 2xx response body; it runs once per
// attempt, so it must be safe to call again after a truncated read.
func (c *Client) roundTripAttempts(ctx context.Context, method, path string, body []byte, idem bool, receive func(*http.Response) error) error {
	rt := c.retry
	attempts := 1
	if rt != nil && idem {
		attempts = rt.policy.MaxAttempts
	}
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		if rt != nil {
			if berr := rt.breaker.Allow(); berr != nil {
				rt.rejectedByBreaker()
				return fmt.Errorf("client: %s %s: %w", method, path, berr)
			}
		}
		err = c.doOnce(ctx, method, path, body, receive)
		if rt != nil {
			rt.attempt()
			// The breaker tracks service health: a non-retryable
			// application error (400/404/422, a wrong-shape body) is
			// a healthy answer.
			rt.breaker.Record(err == nil || !retryable(err))
		}
		if err == nil {
			if rt != nil {
				rt.refund()
			}
			return nil
		}
		if rt == nil || !idem || !retryable(err) || attempt+1 >= attempts {
			return err
		}
		if !rt.spend() {
			return fmt.Errorf("client: retry budget exhausted: %w", err)
		}
		if serr := rt.sleep(ctx, rt.delay(attempt, retryAfterHint(err))); serr != nil {
			return serr
		}
	}
	return err
}

// RetryStats returns a snapshot of the retry accounting; zero value
// when retries are not configured.
func (c *Client) RetryStats() RetryStats {
	if c.retry == nil {
		return RetryStats{}
	}
	c.retry.mu.Lock()
	defer c.retry.mu.Unlock()
	return c.retry.stats
}

// BreakerState returns the circuit breaker state ("closed", "open",
// "half-open"), or "disabled" without a retry policy. Diagnostics
// only.
func (c *Client) BreakerState() string {
	if c.retry == nil {
		return "disabled"
	}
	return c.retry.breaker.State()
}
