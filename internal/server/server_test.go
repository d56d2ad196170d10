package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dvsslack/internal/rtm"
	"dvsslack/internal/sim"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, hs
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func decodeResp[T any](t *testing.T, resp *http.Response, wantCode int) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if resp.StatusCode != wantCode {
		var eb ErrorBody
		json.NewDecoder(resp.Body).Decode(&eb)
		t.Fatalf("status = %d, want %d (error: %s)", resp.StatusCode, wantCode, eb.Error)
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return v
}

func quickstartRequest(policy string) SimRequest {
	return SimRequest{
		TaskSet:  rtm.Quickstart(),
		Policy:   policy,
		Workload: WorkloadSpec{Kind: "uniform", Lo: 0.5, Hi: 1, Seed: 7},
	}
}

// TestSimulateMatchesLibrary is the core correctness contract: the
// daemon's answer for a run must equal the sequential library run of
// the identical configuration.
func TestSimulateMatchesLibrary(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 4})

	for _, policy := range []string{"nondvs", "static", "cc", "la", "dra", "lpshe"} {
		req := quickstartRequest(policy)
		got := decodeResp[SimResult](t, postJSON(t, hs.URL+"/v1/simulate", req), http.StatusOK)

		cfg, err := req.Config()
		if err != nil {
			t.Fatalf("%s: local config: %v", policy, err)
		}
		want, err := sim.Run(cfg)
		if err != nil {
			t.Fatalf("%s: local run: %v", policy, err)
		}
		if got.Energy != want.Energy || got.DeadlineMisses != want.DeadlineMisses ||
			got.JobsCompleted != want.JobsCompleted || got.SpeedSwitches != want.SpeedSwitches {
			t.Errorf("%s: daemon result %+v != library result %+v", policy, got, want)
		}
		if got.DeadlineMisses != 0 {
			t.Errorf("%s: %d deadline misses on a feasible set", policy, got.DeadlineMisses)
		}
	}
}

// TestCacheHit verifies the repeated identical request is served from
// cache and that /metrics shows it.
func TestCacheHit(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2})

	req := quickstartRequest("lpshe")
	first := decodeResp[SimResult](t, postJSON(t, hs.URL+"/v1/simulate", req), http.StatusOK)
	if first.Cached {
		t.Fatal("first request reported cached")
	}
	second := decodeResp[SimResult](t, postJSON(t, hs.URL+"/v1/simulate", req), http.StatusOK)
	if !second.Cached {
		t.Fatal("second identical request not served from cache")
	}
	if first.Energy != second.Energy {
		t.Fatalf("cached energy %v != fresh energy %v", second.Energy, first.Energy)
	}

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	m := decodeResp[MetricsSnapshot](t, resp, http.StatusOK)
	if m.CacheHits < 1 {
		t.Errorf("metrics cache_hits = %d, want >= 1", m.CacheHits)
	}
	if m.CacheEntries < 1 || m.CacheHitRate <= 0 {
		t.Errorf("metrics cache entries/rate = %d/%v, want positive", m.CacheEntries, m.CacheHitRate)
	}
	if m.SimsRun != 1 {
		t.Errorf("metrics sims_run = %d, want 1 (second request must not re-simulate)", m.SimsRun)
	}
	if _, ok := m.PolicyLatency["lpSHE"]; !ok {
		t.Errorf("metrics missing lpSHE latency histogram: %+v", m.PolicyLatency)
	}
}

// TestCacheCountsOneLookupPerRequest: a fresh request is one cache
// miss and its repeat one hit, so cache_misses and cache_hit_rate
// describe requests, not internal lookups.
func TestCacheCountsOneLookupPerRequest(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 1})
	req := quickstartRequest("lpshe")
	decodeResp[SimResult](t, postJSON(t, hs.URL+"/v1/simulate", req), http.StatusOK)
	if hits, misses := s.cache.Stats(); hits != 0 || misses != 1 {
		t.Fatalf("after one fresh request: hits=%d misses=%d, want 0 and 1", hits, misses)
	}
	decodeResp[SimResult](t, postJSON(t, hs.URL+"/v1/simulate", req), http.StatusOK)
	if hits, misses := s.cache.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("after its repeat: hits=%d misses=%d, want 1 and 1", hits, misses)
	}
}

// TestCacheKeyCanonical: equivalent requests spelled differently
// (policy alias) share a key; different seeds do not.
func TestCacheKeyCanonical(t *testing.T) {
	a := quickstartRequest("lpshe-greedy")
	b := quickstartRequest("greedy")
	c := quickstartRequest("lpshe")
	ka, err := a.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	kb, _ := b.CacheKey()
	kc, _ := c.CacheKey()
	if ka != kb {
		t.Errorf("aliased policy specs produced different keys")
	}
	if ka == kc {
		t.Errorf("different policies produced the same key")
	}
	d := a
	d.Workload.Seed = 8
	kd, _ := d.CacheKey()
	if kd == ka {
		t.Errorf("different workload seeds produced the same key")
	}
}

// TestValidationErrors: the daemon must refuse garbage with 400s, not
// simulate it.
func TestValidationErrors(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1})

	cases := []struct {
		name string
		body string
	}{
		{"empty body", `{}`},
		{"no tasks", `{"task_set":{"tasks":[]},"policy":"lpshe"}`},
		{"negative wcet", `{"task_set":{"tasks":[{"wcet":-1,"period":10}]},"policy":"lpshe"}`},
		{"wcet over deadline", `{"task_set":{"tasks":[{"wcet":5,"period":10,"deadline":3}]},"policy":"lpshe"}`},
		{"unknown policy", `{"task_set":{"tasks":[{"wcet":1,"period":10}]},"policy":"nope"}`},
		{"unknown field", `{"task_set":{"tasks":[{"wcet":1,"period":10}]},"policy":"lpshe","bogus":1}`},
		{"bad workload", `{"task_set":{"tasks":[{"wcet":1,"period":10}]},"policy":"lpshe","workload":{"kind":"zipf"}}`},
		{"bad preset", `{"task_set":{"tasks":[{"wcet":1,"period":10}]},"policy":"lpshe","processor":{"preset":"pentium"}}`},
		{"negative horizon", `{"task_set":{"tasks":[{"wcet":1,"period":10}]},"policy":"lpshe","horizon":-5}`},
		{"nan wcet", `{"task_set":{"tasks":[{"wcet":NaN,"period":10}]},"policy":"lpshe"}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(hs.URL+"/v1/simulate", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, resp.StatusCode)
		}
	}
}

// TestNestedUnknownFieldsRejected: strict decoding reaches inside the
// task set, on single runs and on every run of a job.
func TestNestedUnknownFieldsRejected(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1})
	for _, set := range []string{
		`{"tasks":[{"wcet":1,"period":4,"bogus":3}]}`,
		`{"tasks":[{"wcet":1,"period":4}],"extra":1}`,
	} {
		for path, body := range map[string]string{
			"/v1/simulate": `{"task_set":` + set + `,"policy":"lpshe"}`,
			"/v1/jobs":     `{"runs":[{"task_set":` + set + `,"policy":"lpshe"}]}`,
		} {
			resp, err := http.Post(hs.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var eb ErrorBody
			json.NewDecoder(resp.Body).Decode(&eb)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(eb.Error, "unknown field") {
				t.Errorf("%s %s: status %d, error %q; want 400 naming the unknown field", path, body, resp.StatusCode, eb.Error)
			}
		}
	}
}

// TestStrictMissIs422: a valid request whose scenario fails (strict
// deadline miss on an infeasible set) is the requester's fault, not a
// validation error.
func TestStrictMissIs422(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1})
	req := SimRequest{
		// U = 1.5 > 1: infeasible under EDF at full speed.
		TaskSet: rtm.NewTaskSet("overload",
			rtm.NewTask("a", 8, 10), rtm.NewTask("b", 7, 10)),
		Policy: "nondvs",
		Strict: true,
	}
	resp := postJSON(t, hs.URL+"/v1/simulate", req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422", resp.StatusCode)
	}
}

// TestBatchJobLifecycle drives a mixed-policy batch through the async
// API: create, poll to completion, fetch per-run results, and check
// them against sequential library runs.
func TestBatchJobLifecycle(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 4, CacheSize: -1})

	var batch BatchRequest
	batch.Name = "lifecycle"
	policies := []string{"nondvs", "static", "cc", "la", "dra", "lpshe", "lpps", "feedback"}
	for _, p := range policies {
		batch.Runs = append(batch.Runs, quickstartRequest(p))
	}
	info := decodeResp[JobInfo](t, postJSON(t, hs.URL+"/v1/jobs", batch), http.StatusAccepted)
	if info.ID == "" || info.Total != len(policies) {
		t.Fatalf("bad job info: %+v", info)
	}

	final := waitJob(t, hs.URL, info.ID)
	if final.State != JobDone {
		t.Fatalf("job state = %s (error %q), want done", final.State, final.Error)
	}
	if len(final.Results) != len(policies) {
		t.Fatalf("got %d results, want %d", len(final.Results), len(policies))
	}
	for i, ro := range final.Results {
		if ro.Index != i {
			t.Fatalf("results out of submission order: %v at %d", ro.Index, i)
		}
		if ro.Error != "" || ro.Result == nil {
			t.Fatalf("run %d failed: %s", i, ro.Error)
		}
		cfg, _ := batch.Runs[i].Config()
		want, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ro.Result.Energy != want.Energy {
			t.Errorf("run %d (%s): energy %v != sequential %v", i, ro.Result.Policy, ro.Result.Energy, want.Energy)
		}
	}
}

func waitJob(t *testing.T, base, id string) JobInfo {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id + "?results=1")
		if err != nil {
			t.Fatal(err)
		}
		info := decodeResp[JobInfo](t, resp, http.StatusOK)
		switch info.State {
		case JobDone, JobFailed, JobCancelled:
			return info
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("job did not finish in time")
	return JobInfo{}
}

// TestSweepBatch1000 is the scale acceptance test: >= 1000
// mixed-policy runs through the HTTP API on >= 4 workers, each
// result equal to the sequential library run for the same seed.
func TestSweepBatch1000(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-run batch in -short mode")
	}
	_, hs := newTestServer(t, Config{Workers: 4, CacheSize: 2048})

	batch := BatchRequest{
		Name: "sweep",
		Sweep: &SweepSpec{
			N:        5,
			U:        []float64{0.4, 0.6, 0.8, 0.9},
			Policies: []string{"nondvs", "static", "cc", "la", "lpshe"},
			Seeds:    50,
			// A small period pool keeps the hyperperiod (= default
			// horizon) at 400, so runs are fast without truncating
			// the job stream mid-hyperperiod (which would cost
			// look-ahead policies like laEDF real deadlines).
			Periods:  []float64{10, 20, 25, 50, 100, 200, 400},
			Workload: WorkloadSpec{Kind: "uniform", Lo: 0.3, Hi: 1},
		},
	}
	total := 4 * 5 * 50 // 1000 runs
	info := decodeResp[JobInfo](t, postJSON(t, hs.URL+"/v1/jobs", batch), http.StatusAccepted)
	if info.Total != total {
		t.Fatalf("sweep expanded to %d runs, want %d", info.Total, total)
	}
	final := waitJob(t, hs.URL, info.ID)
	if final.State != JobDone || final.Failed != 0 {
		t.Fatalf("job state=%s failed=%d error=%q", final.State, final.Failed, final.Error)
	}

	// Spot-check a deterministic sample of runs against sequential
	// execution, and require zero deadline misses everywhere.
	sweepRuns, err := batch.Sweep.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for i, ro := range final.Results {
		if ro.Result == nil {
			t.Fatalf("run %d missing result", i)
		}
		if ro.Result.DeadlineMisses != 0 {
			t.Errorf("run %d (%s): %d deadline misses", i, ro.Result.Policy, ro.Result.DeadlineMisses)
		}
		if i%97 == 0 {
			cfg, err := sweepRuns[i].Config()
			if err != nil {
				t.Fatal(err)
			}
			want, err := sim.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if ro.Result.Energy != want.Energy {
				t.Errorf("run %d (%s): energy %v != sequential %v", i, ro.Result.Policy, ro.Result.Energy, want.Energy)
			}
		}
	}

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	m := decodeResp[MetricsSnapshot](t, resp, http.StatusOK)
	if m.SimsRun < uint64(total)/2 {
		t.Errorf("metrics sims_run = %d, suspiciously low for %d runs", m.SimsRun, total)
	}
	if m.SimSpeedup <= 0 {
		t.Errorf("metrics sim_speedup = %v, want positive", m.SimSpeedup)
	}
}

// TestJobEventsSSE exercises the progress stream end to end.
func TestJobEventsSSE(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2})

	var batch BatchRequest
	for i := 0; i < 6; i++ {
		r := quickstartRequest("lpshe")
		r.Workload.Seed = uint64(100 + i) // distinct runs, no cache aliasing
		batch.Runs = append(batch.Runs, r)
	}
	info := decodeResp[JobInfo](t, postJSON(t, hs.URL+"/v1/jobs", batch), http.StatusAccepted)

	resp, err := http.Get(hs.URL + "/v1/jobs/" + info.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	var sawProgress, sawEnd bool
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		line := scanner.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev JobEvent
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		switch ev.Type {
		case "progress":
			sawProgress = true
		case "end":
			sawEnd = true
			if ev.State != JobDone || ev.Done != len(batch.Runs) {
				t.Errorf("end event %+v, want done with %d runs", ev, len(batch.Runs))
			}
		}
		if sawEnd {
			break
		}
	}
	if !sawProgress || !sawEnd {
		t.Fatalf("SSE stream: progress=%v end=%v, want both", sawProgress, sawEnd)
	}
}

// TestJobCancel aborts a long job and expects a cancelled terminal
// state.
func TestJobCancel(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1, CacheSize: -1})

	batch := BatchRequest{Sweep: &SweepSpec{
		N: 8, U: []float64{0.9}, Policies: []string{"lpshe"},
		Seeds:    200,
		Workload: WorkloadSpec{Kind: "uniform", Lo: 0.2, Hi: 1},
	}}
	info := decodeResp[JobInfo](t, postJSON(t, hs.URL+"/v1/jobs", batch), http.StatusAccepted)

	delReq, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/"+info.ID, nil)
	resp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("cancel status = %d", resp.StatusCode)
	}
	final := waitJob(t, hs.URL, info.ID)
	if final.State != JobCancelled && final.State != JobDone {
		t.Fatalf("state after cancel = %s", final.State)
	}
}

// TestGracefulShutdown verifies Shutdown drains in-flight work and
// subsequently rejects new requests.
func TestGracefulShutdown(t *testing.T) {
	s := New(Config{Workers: 2})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	var batch BatchRequest
	for i := 0; i < 10; i++ {
		r := quickstartRequest("lpshe")
		r.Workload.Seed = uint64(i)
		batch.Runs = append(batch.Runs, r)
	}
	info := decodeResp[JobInfo](t, postJSON(t, hs.URL+"/v1/jobs", batch), http.StatusAccepted)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// The job must have been drained to completion, not cancelled.
	j, ok := s.front.jobs.Get(info.ID)
	if !ok {
		t.Fatal("job vanished")
	}
	if got := j.info(false); got.State != JobDone || got.Done != 10 {
		t.Fatalf("after drain: %+v, want done with 10 runs", got)
	}

	// And new work is rejected, with a Retry-After hint so well-behaved
	// clients back off instead of hammering a draining daemon.
	resp := postJSON(t, hs.URL+"/v1/simulate", quickstartRequest("lpshe"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown status = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("draining 503 is missing the Retry-After header")
	}
}

// TestMetricsEndpointShape sanity-checks the document fields.
func TestMetricsEndpointShape(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 3})
	decodeResp[SimResult](t, postJSON(t, hs.URL+"/v1/simulate", quickstartRequest("cc")), http.StatusOK)

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	m := decodeResp[MetricsSnapshot](t, resp, http.StatusOK)
	if m.Workers != 3 {
		t.Errorf("workers = %d, want 3", m.Workers)
	}
	if m.Requests["simulate"] != 1 {
		t.Errorf("requests[simulate] = %d, want 1", m.Requests["simulate"])
	}
	if m.SimSeconds <= 0 || math.IsNaN(m.SimSeconds) {
		t.Errorf("sim_seconds = %v, want positive", m.SimSeconds)
	}
	if m.UptimeSec <= 0 {
		t.Errorf("uptime = %v", m.UptimeSec)
	}
}

// TestSweepSpecLimits rejects oversized and degenerate sweeps.
func TestSweepSpecLimits(t *testing.T) {
	if _, err := (&SweepSpec{N: 0, U: []float64{0.5}, Policies: []string{"lpshe"}}).Expand(); err == nil {
		t.Error("n=0 sweep accepted")
	}
	if _, err := (&SweepSpec{N: 5, U: nil, Policies: []string{"lpshe"}}).Expand(); err == nil {
		t.Error("empty-U sweep accepted")
	}
	huge := &SweepSpec{N: 5, U: make([]float64, 101), Policies: make([]string, 100), Seeds: 100}
	for i := range huge.U {
		huge.U[i] = 0.5
	}
	for i := range huge.Policies {
		huge.Policies[i] = "lpshe"
	}
	if _, err := huge.Expand(); err == nil {
		t.Error("oversized sweep accepted")
	}
}

// TestPoliciesEndpoint lists the registry.
func TestPoliciesEndpoint(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(hs.URL + "/v1/policies")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Policies []string `json:"policies"`
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"lpshe": false, "nondvs": false, "dra": false}
	for _, p := range body.Policies {
		if _, ok := want[p]; ok {
			want[p] = true
		}
	}
	for p, seen := range want {
		if !seen {
			t.Errorf("policy %s missing from listing %v", p, body.Policies)
		}
	}
}
