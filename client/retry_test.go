package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dvsslack/internal/resilience"
	"dvsslack/internal/server"
)

// instantRetry returns a client for url whose retry sleeps are
// recorded instead of slept, keeping the tests fast and letting them
// assert on the chosen delays.
func instantRetry(url string, p RetryPolicy) (*Client, *[]time.Duration) {
	c := New(url).WithRetry(p)
	var delays []time.Duration
	c.retry.sleep = func(ctx context.Context, d time.Duration) error {
		delays = append(delays, d)
		return ctx.Err()
	}
	return c, &delays
}

// TestRetryRecoversFromTransientFailures: a daemon that 503s twice
// and then answers is healed transparently.
func TestRetryRecoversFromTransientFailures(t *testing.T) {
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"warming up"}`, http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{}`))
	}))
	defer hs.Close()

	c, delays := instantRetry(hs.URL, RetryPolicy{Seed: 1})
	if err := c.Healthy(context.Background()); err != nil {
		t.Fatalf("Healthy after retries: %v", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("attempts = %d, want 3", calls.Load())
	}
	st := c.RetryStats()
	if st.Attempts != 3 || st.Retries != 2 {
		t.Fatalf("stats = %+v, want 3 attempts / 2 retries", st)
	}
	// Retry-After: 1 dominates the early jittered backoff delays.
	for i, d := range *delays {
		if d < time.Second {
			t.Fatalf("delay %d = %v, want >= 1s (Retry-After honored)", i, d)
		}
	}
}

// TestRetryGivesUpAfterMaxAttempts: a hard-down daemon costs exactly
// MaxAttempts tries, and the final error carries the status.
func TestRetryGivesUpAfterMaxAttempts(t *testing.T) {
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"down"}`, http.StatusInternalServerError)
	}))
	defer hs.Close()

	c, _ := instantRetry(hs.URL, RetryPolicy{MaxAttempts: 3, Seed: 1})
	err := c.Healthy(context.Background())
	var api *APIError
	if !errors.As(err, &api) || api.StatusCode != http.StatusInternalServerError {
		t.Fatalf("error = %v, want APIError 500", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("attempts = %d, want 3", calls.Load())
	}
}

// TestNoRetryOnApplicationErrors: 4xx application answers are final.
func TestNoRetryOnApplicationErrors(t *testing.T) {
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"bad scenario"}`, http.StatusUnprocessableEntity)
	}))
	defer hs.Close()

	c, _ := instantRetry(hs.URL, RetryPolicy{Seed: 1})
	err := c.Healthy(context.Background())
	var api *APIError
	if !errors.As(err, &api) || api.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("error = %v, want APIError 422", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("attempts = %d, want 1 (422 is not retryable)", calls.Load())
	}
}

// TestNoRetryOnWrongShapeBody: a well-formed body of the wrong shape
// (client.Metrics against a coordinator, whose /metrics is a
// FleetSnapshot) is final. It is one attempt and a healthy answer for
// the breaker, so the next valid call still goes through.
func TestNoRetryOnWrongShapeBody(t *testing.T) {
	var metricsCalls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/metrics":
			metricsCalls.Add(1)
			w.Write([]byte(`{"uptime_sec": 1, "workers": [{"addr": "127.0.0.1:1", "state": "healthy"}]}`))
		case "/v1/simulate":
			w.Write([]byte(`{"policy": "lpSHE", "energy": 1}`))
		}
	}))
	defer hs.Close()

	c, _ := instantRetry(hs.URL, RetryPolicy{BreakerThreshold: 4, Seed: 1})
	_, err := c.Metrics(context.Background())
	var shape *json.UnmarshalTypeError
	if !errors.As(err, &shape) {
		t.Fatalf("Metrics error = %v, want a json.UnmarshalTypeError", err)
	}
	if n := metricsCalls.Load(); n != 1 {
		t.Fatalf("Metrics attempts = %d, want 1 (a wrong-shape body reads the same every time)", n)
	}
	if got := c.BreakerState(); got != "closed" {
		t.Fatalf("breaker state = %s, want closed", got)
	}
	if _, err := c.Simulate(context.Background(), server.SimRequest{}); err != nil {
		t.Fatalf("Simulate after a wrong-shape answer: %v", err)
	}
}

// TestNoRetryOnCreateJob: submitting a batch twice would run it
// twice, so CreateJob gets exactly one attempt even under retries.
func TestNoRetryOnCreateJob(t *testing.T) {
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"hiccup"}`, http.StatusServiceUnavailable)
	}))
	defer hs.Close()

	c, _ := instantRetry(hs.URL, RetryPolicy{Seed: 1})
	if _, err := c.CreateJob(context.Background(), server.BatchRequest{}); err == nil {
		t.Fatal("CreateJob succeeded against a 503 server")
	}
	if calls.Load() != 1 {
		t.Fatalf("attempts = %d, want 1 (POST /v1/jobs is not idempotent)", calls.Load())
	}
}

// TestBreakerFailsFast: enough consecutive failures open the breaker;
// the next call is rejected without touching the network, and the
// breaker recovers through a half-open probe after the cooldown.
func TestBreakerFailsFast(t *testing.T) {
	var calls atomic.Int64
	var healthy atomic.Bool
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if healthy.Load() {
			w.Write([]byte(`{}`))
			return
		}
		http.Error(w, `{"error":"down"}`, http.StatusBadGateway)
	}))
	defer hs.Close()

	c, _ := instantRetry(hs.URL, RetryPolicy{
		MaxAttempts: 2, BreakerThreshold: 4, BreakerCooldown: 30 * time.Millisecond, Seed: 1,
	})
	// Two calls x two attempts = four consecutive failures.
	for i := 0; i < 2; i++ {
		if err := c.Healthy(context.Background()); err == nil {
			t.Fatal("Healthy succeeded against a down server")
		}
	}
	if got := c.BreakerState(); got != "open" {
		t.Fatalf("breaker state = %s, want open", got)
	}

	before := calls.Load()
	err := c.Healthy(context.Background())
	if !errors.Is(err, resilience.ErrBreakerOpen) {
		t.Fatalf("error = %v, want ErrBreakerOpen", err)
	}
	if calls.Load() != before {
		t.Fatal("open breaker still hit the network")
	}
	if c.RetryStats().BreakerRejects == 0 {
		t.Fatal("breaker rejection not counted")
	}

	// After the cooldown the half-open probe finds a healed daemon.
	healthy.Store(true)
	time.Sleep(50 * time.Millisecond)
	if err := c.Healthy(context.Background()); err != nil {
		t.Fatalf("Healthy after recovery: %v", err)
	}
	if got := c.BreakerState(); got != "closed" {
		t.Fatalf("breaker state after recovery = %s, want closed", got)
	}
}

// TestRetryBudgetBoundsAmplification: with a one-token budget, a
// down daemon gets one retry, then the budget stops the bleeding.
func TestRetryBudgetBoundsAmplification(t *testing.T) {
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"down"}`, http.StatusServiceUnavailable)
	}))
	defer hs.Close()

	c, _ := instantRetry(hs.URL, RetryPolicy{MaxAttempts: 4, Budget: 1, BreakerThreshold: 100, Seed: 1})
	err := c.Healthy(context.Background())
	if err == nil || !strings.Contains(err.Error(), "retry budget exhausted") {
		t.Fatalf("error = %v, want budget exhaustion", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("attempts = %d, want 2 (1 try + 1 budgeted retry)", calls.Load())
	}
	if st := c.RetryStats(); st.BudgetExhausted != 1 {
		t.Fatalf("stats = %+v, want BudgetExhausted 1", st)
	}
}

// TestRetryDeterministicJitter: two clients with the same seed choose
// identical backoff delays; a different seed diverges.
func TestRetryDeterministicJitter(t *testing.T) {
	schedule := func(seed uint64) []time.Duration {
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, `{"error":"down"}`, http.StatusInternalServerError)
		}))
		defer hs.Close()
		c, delays := instantRetry(hs.URL, RetryPolicy{MaxAttempts: 6, Seed: seed})
		if err := c.Healthy(context.Background()); err == nil {
			t.Fatal("Healthy succeeded against a down server")
		}
		return *delays
	}
	a, b, other := schedule(7), schedule(7), schedule(8)
	if len(a) != 5 || len(b) != 5 {
		t.Fatalf("schedule lengths = %d, %d, want 5", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, delay %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	same := true
	for i := range a {
		if a[i] != other[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced the identical jitter schedule")
	}
}

// TestDeadlineHeaderPropagation: a context deadline reaches the
// daemon as X-Request-Deadline; deadline-free calls send nothing.
func TestDeadlineHeaderPropagation(t *testing.T) {
	headers := make(chan string, 2)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		headers <- r.Header.Get("X-Request-Deadline")
		w.Write([]byte(`{}`))
	}))
	defer hs.Close()

	c := New(hs.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := c.Healthy(ctx); err != nil {
		t.Fatalf("Healthy: %v", err)
	}
	h := <-headers
	d, err := time.ParseDuration(h)
	if err != nil {
		t.Fatalf("X-Request-Deadline %q is not a duration: %v", h, err)
	}
	if d <= 0 || d > 2*time.Second {
		t.Fatalf("X-Request-Deadline = %v, want within (0, 2s]", d)
	}

	if err := c.Healthy(context.Background()); err != nil {
		t.Fatalf("Healthy: %v", err)
	}
	if h := <-headers; h != "" {
		t.Fatalf("deadline-free call sent X-Request-Deadline %q", h)
	}
}

// TestMetricsDefaultTimeout: a Metrics call with context.Background()
// against a wedged daemon fails within the call timeout instead of
// hanging forever.
func TestMetricsDefaultTimeout(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done() // wedged: never answers
	}))
	defer hs.Close()

	c := New(hs.URL).WithCallTimeout(50 * time.Millisecond)
	start := time.Now()
	if _, err := c.Metrics(context.Background()); err == nil {
		t.Fatal("Metrics against a wedged daemon returned nil error")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("Metrics took %v, want the 50ms call timeout to bound it", d)
	}
	start = time.Now()
	if _, err := c.MetricsProm(context.Background()); err == nil {
		t.Fatal("MetricsProm against a wedged daemon returned nil error")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("MetricsProm took %v, want the 50ms call timeout to bound it", d)
	}
}

// TestStreamEventsReconnects: a stream severed before its terminal
// event is re-established under a retry policy and runs to "end"; the
// caller's own error still stops it for good.
func TestStreamEventsReconnects(t *testing.T) {
	var conns atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := conns.Add(1)
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, "event: progress\ndata: {\"type\":\"progress\",\"state\":\"running\",\"total\":2,\"done\":1}\n\n")
		w.(http.Flusher).Flush()
		if n == 1 {
			panic(http.ErrAbortHandler) // sever the first connection mid-stream
		}
		fmt.Fprint(w, "event: end\ndata: {\"type\":\"end\",\"state\":\"done\",\"total\":2,\"done\":2}\n\n")
	}))
	defer hs.Close()

	c, _ := instantRetry(hs.URL, RetryPolicy{Seed: 3})
	var events []server.JobEvent
	err := c.StreamEvents(context.Background(), "j1", func(ev server.JobEvent) error {
		events = append(events, ev)
		return nil
	})
	if err != nil {
		t.Fatalf("StreamEvents: %v", err)
	}
	if conns.Load() != 2 {
		t.Fatalf("connections = %d, want 2 (one reconnect)", conns.Load())
	}
	if len(events) == 0 || events[len(events)-1].Type != "end" {
		t.Fatalf("events = %+v, want a terminal end event", events)
	}

	// fn's own error is final: no reconnect, error surfaced verbatim.
	conns.Store(0)
	stop := errors.New("seen enough")
	err = c.StreamEvents(context.Background(), "j1", func(server.JobEvent) error { return stop })
	if !errors.Is(err, stop) {
		t.Fatalf("StreamEvents = %v, want the caller's own error", err)
	}
	if conns.Load() != 1 {
		t.Fatalf("connections after fn error = %d, want 1", conns.Load())
	}
}

// TestStreamEventsLegacyTruncation: without a retry policy a stream
// that closes before "end" keeps returning nil (historical contract).
func TestStreamEventsLegacyTruncation(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, "event: progress\ndata: {\"type\":\"progress\",\"state\":\"running\"}\n\n")
	}))
	defer hs.Close()

	saw := 0
	err := New(hs.URL).StreamEvents(context.Background(), "j1", func(server.JobEvent) error {
		saw++
		return nil
	})
	if err != nil || saw != 1 {
		t.Fatalf("legacy truncated stream: err=%v saw=%d, want nil/1", err, saw)
	}
}
