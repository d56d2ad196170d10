package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"dvsslack/internal/resilience"
)

// readBody drains and closes a response body.
func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return string(b)
}

// TestOverloadShedsWith429 is the overload acceptance check: with the
// admission budget exhausted, fresh synchronous simulations are shed
// immediately with 429 + Retry-After (no goroutine pile-up behind the
// queue), cached results keep flowing, and the shed shows up in both
// metric surfaces.
func TestOverloadShedsWith429(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 1, AdmitLimit: 2})

	// Warm the cache so the cached-bypass path can be asserted below.
	warm := quickstartRequest("static")
	decodeResp[SimResult](t, postJSON(t, hs.URL+"/v1/simulate", warm), http.StatusOK)

	// Exhaust the admission budget directly (deterministic, no timing
	// games with slow simulations).
	for i := 0; i < 2; i++ {
		if err := s.admit.TryAcquire(); err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
	}
	defer func() {
		s.admit.Release()
		s.admit.Release()
	}()

	// A fresh simulation must be shed immediately.
	fresh := quickstartRequest("cc")
	fresh.Workload.Seed = 99
	start := time.Now()
	resp := postJSON(t, hs.URL+"/v1/simulate", fresh)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded status = %d (%s), want 429", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("shed 429 is missing the Retry-After header")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("shed took %v, want an immediate rejection", d)
	}

	// The memoized request still gets served while shedding.
	res := decodeResp[SimResult](t, postJSON(t, hs.URL+"/v1/simulate", warm), http.StatusOK)
	if !res.Cached {
		t.Fatal("cached result not served during overload")
	}

	// Both metric surfaces record the shed; the panic counter is
	// exported even at zero so dashboards never miss the series.
	if snap := s.met.snapshot(s.workers, s.cache); snap.Shed != 1 {
		t.Fatalf("snapshot shed = %d, want 1", snap.Shed)
	}
	resp, err := http.Get(hs.URL + "/metrics.prom")
	if err != nil {
		t.Fatalf("GET /metrics.prom: %v", err)
	}
	prom := readBody(t, resp)
	for _, want := range []string{"dvsd_shed_total 1", "dvsd_panics_total 0"} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics.prom missing %q", want)
		}
	}

	// Releasing capacity re-admits fresh work.
	s.admit.Release()
	decodeResp[SimResult](t, postJSON(t, hs.URL+"/v1/simulate", fresh), http.StatusOK)
	if err := s.admit.TryAcquire(); err != nil { // restore for the deferred releases
		t.Fatalf("re-acquire: %v", err)
	}
}

// TestRequestDeadline covers per-request deadline enforcement: an
// impossible client deadline turns into a retryable 503, a malformed
// one into a 400, and the timeout counter records the expiry.
func TestRequestDeadline(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 1})

	post := func(deadline string, seed uint64) *http.Response {
		sr := quickstartRequest("static")
		sr.Workload.Seed = seed // distinct seeds dodge the result cache
		b, err := json.Marshal(sr)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		req, err := http.NewRequest(http.MethodPost, hs.URL+"/v1/simulate", bytes.NewReader(b))
		if err != nil {
			t.Fatalf("new request: %v", err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Request-Deadline", deadline)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		return resp
	}

	resp := post("1ns", 1)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("expired deadline status = %d (%s), want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("deadline 503 is missing the Retry-After header")
	}
	if n := s.met.snapshot(s.workers, s.cache).RequestTimeouts; n != 1 {
		t.Fatalf("request_timeouts = %d, want 1", n)
	}

	resp = post("not-a-duration", 2)
	readBody(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid deadline status = %d, want 400", resp.StatusCode)
	}

	// A generous deadline changes nothing.
	resp = post("30s", 3)
	readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("generous deadline status = %d, want 200", resp.StatusCode)
	}
}

// TestReadyz checks the readiness states: ready, saturated (admission
// near capacity), and draining.
func TestReadyz(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 1, AdmitLimit: 2})

	get := func() (*http.Response, string) {
		resp, err := http.Get(hs.URL + "/readyz")
		if err != nil {
			t.Fatalf("GET /readyz: %v", err)
		}
		return resp, readBody(t, resp)
	}

	if resp, body := get(); resp.StatusCode != http.StatusOK || !strings.Contains(body, "ready") {
		t.Fatalf("idle readyz = %d %q, want 200 ready", resp.StatusCode, body)
	}

	for i := 0; i < 2; i++ {
		if err := s.admit.TryAcquire(); err != nil {
			t.Fatalf("acquire: %v", err)
		}
	}
	resp, body := get()
	s.admit.Release()
	s.admit.Release()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, "saturated") {
		t.Fatalf("saturated readyz = %d %q, want 503 saturated", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("saturated readyz is missing the Retry-After header")
	}

	s.front.draining.Store(true)
	defer s.front.draining.Store(false)
	if resp, body := get(); resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("draining readyz = %d %q, want 503 draining", resp.StatusCode, body)
	}
}

// TestChaosServerDeterministic runs the same request sequence against
// two servers configured with the same chaos seed and demands the
// identical injected-fault sequence; a third server with a different
// seed must diverge. Probes stay exempt.
func TestChaosServerDeterministic(t *testing.T) {
	faultTrace := func(seed uint64) []resilience.Fault {
		var mu sync.Mutex
		var tr []resilience.Fault
		cfg := resilience.DefaultChaos(seed)
		cfg.MaxDelay = time.Millisecond
		cfg.OnInject = func(f resilience.Fault) {
			mu.Lock()
			tr = append(tr, f)
			mu.Unlock()
		}
		_, hs := newTestServer(t, Config{Workers: 1, Chaos: &cfg})
		for i := 0; i < 40; i++ {
			resp, err := http.Get(hs.URL + "/v1/policies")
			if err != nil {
				continue // injected drop: connection died, that's the point
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		// Exempt endpoint: never faulted, regardless of seed.
		for i := 0; i < 5; i++ {
			resp, err := http.Get(hs.URL + "/healthz")
			if err != nil {
				t.Fatalf("healthz under chaos: %v", err)
			}
			readBody(t, resp)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("healthz under chaos = %d, want 200", resp.StatusCode)
			}
		}
		mu.Lock()
		defer mu.Unlock()
		return append([]resilience.Fault(nil), tr...)
	}

	a, b, c := faultTrace(42), faultTrace(42), faultTrace(1042)
	if len(a) == 0 {
		t.Fatal("seed 42 injected no faults over 40 requests")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different fault counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, fault %d differs: %s vs %s", i, a[i], b[i])
		}
	}
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced the identical fault sequence")
	}
}

// --- SSE slow-consumer handling ---

// fakeSink is a test sseSink: it records writes and can be armed to
// fail after a given number of sends, emulating a consumer whose
// write deadline expires.
type fakeSink struct {
	mu        sync.Mutex
	writes    []string
	deadlines int
	failAfter int // fail writes once this many succeeded; <0 never
}

func (f *fakeSink) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failAfter >= 0 && len(f.writes) >= f.failAfter {
		return 0, os.ErrDeadlineExceeded
	}
	f.writes = append(f.writes, string(p))
	return len(p), nil
}

func (f *fakeSink) SetWriteDeadline(time.Time) error {
	f.mu.Lock()
	f.deadlines++
	f.mu.Unlock()
	return nil
}

func (f *fakeSink) Flush() error { return nil }

func (f *fakeSink) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.writes)
}

func newStreamJob(lost *int) *job {
	j := &job{
		id:       "jtest",
		state:    JobRunning,
		runs:     make([]SimRequest, 3),
		subs:     map[chan JobEvent]struct{}{},
		finished: make(chan struct{}),
	}
	if lost != nil {
		j.onLost = func() { *lost++ }
	}
	return j
}

// TestStreamJobDeliversTerminalEvent: a healthy consumer gets the
// snapshot, the progress events, and the terminal "end" even when the
// job finishes while events are still buffered.
func TestStreamJobDeliversTerminalEvent(t *testing.T) {
	j := newStreamJob(nil)
	ch, snapshot, unsub := j.subscribe()
	defer unsub()

	j.mu.Lock()
	j.publish(JobEvent{Type: "progress", State: JobRunning, Total: 3, Done: 1})
	j.mu.Unlock()
	j.finish(JobDone)

	sink := &fakeSink{failAfter: -1}
	if err := streamJob(context.Background(), sink, j, snapshot, ch, time.Second); err != nil {
		t.Fatalf("streamJob: %v", err)
	}
	if sink.count() != 3 { // snapshot + progress + end
		t.Fatalf("writes = %d (%q), want 3", sink.count(), sink.writes)
	}
	last := sink.writes[len(sink.writes)-1]
	if !strings.Contains(last, `"type":"end"`) || !strings.Contains(last, JobDone) {
		t.Fatalf("terminal event = %q, want an end/done event", last)
	}
	if sink.deadlines != 3 {
		t.Fatalf("deadline arms = %d, want one per write", sink.deadlines)
	}
}

// TestStreamJobDropsSlowConsumer: when a write fails (deadline
// expired, dead connection), streamJob returns the error promptly
// instead of parking forever, and the broadcaster never notices.
func TestStreamJobDropsSlowConsumer(t *testing.T) {
	j := newStreamJob(nil)
	ch, snapshot, unsub := j.subscribe()
	defer unsub()

	j.mu.Lock()
	j.publish(JobEvent{Type: "progress", State: JobRunning, Total: 3, Done: 1})
	j.mu.Unlock()

	sink := &fakeSink{failAfter: 1} // snapshot succeeds, next write dies
	done := make(chan error, 1)
	go func() { done <- streamJob(context.Background(), sink, j, snapshot, ch, 10*time.Millisecond) }()
	select {
	case err := <-done:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("streamJob error = %v, want deadline-exceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("streamJob did not drop the dead consumer")
	}

	// The broadcaster side stays non-blocking regardless: publishing
	// far more events than the subscriber buffer holds returns
	// immediately, counting the overflow.
	lost := 0
	j2 := newStreamJob(&lost)
	_, _, unsub2 := j2.subscribe()
	defer unsub2()
	j2.mu.Lock()
	start := time.Now()
	for i := 0; i < 200; i++ {
		j2.publish(JobEvent{Type: "progress", State: JobRunning, Done: i})
	}
	j2.mu.Unlock()
	if d := time.Since(start); d > time.Second {
		t.Fatalf("publishing with a stuck subscriber took %v", d)
	}
	if lost != 200-64 { // buffer holds 64, the rest are dropped and counted
		t.Fatalf("lost events = %d, want %d", lost, 200-64)
	}
}

// TestShutdownUnderLoad drains a daemon that has an in-flight
// synchronous request and an active batch job while chaos injects
// delays, and demands a clean drain: the sync caller gets its result,
// the job completes, and nothing is cancelled.
func TestShutdownUnderLoad(t *testing.T) {
	cfg := resilience.ChaosConfig{Seed: 7, DelayP: 0.5, MaxDelay: 5 * time.Millisecond}
	s := New(Config{Workers: 2, Chaos: &cfg})
	hs := newHTTPServer(t, s)

	var batch BatchRequest
	for i := 0; i < 8; i++ {
		r := quickstartRequest("dra")
		r.Workload.Seed = uint64(100 + i)
		batch.Runs = append(batch.Runs, r)
	}
	info := decodeResp[JobInfo](t, postJSON(t, hs+"/v1/jobs", batch), http.StatusAccepted)

	syncDone := make(chan int, 1)
	go func() {
		r := quickstartRequest("la")
		r.Workload.Seed = 4242
		b, _ := json.Marshal(r)
		resp, err := http.Post(hs+"/v1/simulate", "application/json", bytes.NewReader(b))
		if err != nil {
			syncDone <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		syncDone <- resp.StatusCode
	}()

	// Wait until the sync request is admitted (or already finished)
	// before starting the drain, so it is genuinely in flight; the
	// extra pause lets it get from admission into the pool queue,
	// which is where the drain protocol picks it up.
	for deadline := time.Now().Add(10 * time.Second); s.admit.InUse() == 0 && len(syncDone) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("sync request never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown under load: %v", err)
	}

	if code := <-syncDone; code != http.StatusOK {
		t.Fatalf("in-flight sync request finished with %d, want 200", code)
	}
	j, ok := s.front.jobs.Get(info.ID)
	if !ok {
		t.Fatal("job vanished during drain")
	}
	if got := j.info(false); got.State != JobDone || got.Done != 8 {
		t.Fatalf("after drain: state=%s done=%d, want done/8", got.State, got.Done)
	}
}

// TestShutdownHardCancelsStragglers exercises the other half of the
// drain contract: when the drain deadline expires with a job still
// running, Shutdown returns the deadline error and the straggler is
// cancelled rather than leaked.
func TestShutdownHardCancelsStragglers(t *testing.T) {
	s := New(Config{Workers: 1})
	hs := newHTTPServer(t, s)

	// A job whose runs are numerous enough to outlive an immediate
	// drain deadline on one worker.
	var batch BatchRequest
	for i := 0; i < 64; i++ {
		r := quickstartRequest("lpshe")
		r.Workload.Seed = uint64(500 + i)
		batch.Runs = append(batch.Runs, r)
	}
	info := decodeResp[JobInfo](t, postJSON(t, hs+"/v1/jobs", batch), http.StatusAccepted)

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already-expired drain context: straight to hard cancel
	if err := s.Shutdown(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("shutdown error = %v, want context.Canceled", err)
	}

	j, ok := s.front.jobs.Get(info.ID)
	if !ok {
		t.Fatal("job vanished")
	}
	select {
	case <-j.finished:
	case <-time.After(10 * time.Second):
		t.Fatal("straggler job was not cancelled by the hard-cancel path")
	}
	if got := j.info(false); got.State == JobRunning || got.State == JobQueued {
		t.Fatalf("straggler state = %s, want a terminal state", got.State)
	}
}

// newHTTPServer wires a Server into an httptest listener without the
// automatic drained shutdown of newTestServer (these tests drive
// Shutdown themselves).
func newHTTPServer(t *testing.T, s *Server) string {
	t.Helper()
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return hs.URL
}
