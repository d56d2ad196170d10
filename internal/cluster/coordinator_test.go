package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"dvsslack/client"
	"dvsslack/internal/rtm"
	"dvsslack/internal/server"
)

// testFleet is a full in-process cluster: n embedded dvsd workers, a
// started coordinator, an httptest front end, and a client pointed at
// it — the same wiring cmd/dvsfleet -embedded builds.
type testFleet struct {
	workers []*EmbeddedWorker
	coord   *Coordinator
	hs      *httptest.Server
	c       *client.Client
}

func newTestFleet(t *testing.T, n int, cfg Config) *testFleet {
	t.Helper()
	workers, err := StartEmbedded(n, server.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = Addrs(workers)
	if cfg.Kill == nil {
		cfg.Kill = KillFunc(workers)
	}
	coord := New(cfg)
	coord.Start()
	hs := httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		coord.Shutdown(ctx)
		for _, w := range workers {
			w.Drain(ctx)
		}
	})
	return &testFleet{workers: workers, coord: coord, hs: hs, c: client.New(hs.URL)}
}

func testRequest(policy string, seed uint64) server.SimRequest {
	return server.SimRequest{
		TaskSet:  rtm.Quickstart(),
		Policy:   policy,
		Workload: server.WorkloadSpec{Kind: "uniform", Lo: 0.5, Hi: 1, Seed: seed},
	}
}

// TestFleetRouteAffinity pins the cache-affinity property: the same
// scenario routes to the same worker, so the second identical request
// is served from that worker's result cache.
func TestFleetRouteAffinity(t *testing.T) {
	f := newTestFleet(t, 3, Config{})
	ctx := context.Background()

	req := testRequest("lpshe", 7)
	first, err := f.c.Simulate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first request reported cached=true")
	}
	second, err := f.c.Simulate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("repeat of an identical scenario missed the worker cache: routing is not key-affine")
	}
	if first.Energy != second.Energy {
		t.Fatalf("cached energy %v != first %v", second.Energy, first.Energy)
	}
}

// TestFleetFailover kills the worker that owns a key and asserts the
// request transparently lands on a ring successor, the dead worker is
// evicted, and the failover counter moved.
func TestFleetFailover(t *testing.T) {
	f := newTestFleet(t, 3, Config{HealthInterval: time.Hour}) // active checker quiet: passive detection only
	ctx := context.Background()

	req := testRequest("cc", 11)
	key, err := server.ScenarioKey(&req)
	if err != nil {
		t.Fatal(err)
	}
	owner, ok := f.coord.ring.Lookup(key)
	if !ok {
		t.Fatal("ring empty after Start")
	}
	for _, w := range f.workers {
		if w.Addr() == owner {
			w.Kill()
		}
	}

	res, err := f.c.Simulate(ctx, req)
	if err != nil {
		t.Fatalf("simulate after owner kill: %v", err)
	}
	if res.Cached {
		t.Fatal("failover request reported cached")
	}
	if f.coord.ring.Has(owner) {
		t.Fatalf("dead worker %s still in ring after transport error", owner)
	}
	w, _ := f.coord.worker(owner)
	if got := w.State(); got != WorkerDown {
		t.Fatalf("dead worker state = %s, want %s", got, WorkerDown)
	}
	if n := f.coord.met.failovers.With(owner).Value(); n < 1 {
		t.Fatalf("failovers{%s} = %v, want >= 1", owner, n)
	}

	// The new owner must be stable too: a repeat now hits its cache.
	res2, err := f.c.Simulate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Cached {
		t.Fatal("repeat after failover missed the successor's cache")
	}
	if res2.Energy != res.Energy {
		t.Fatalf("successor energy %v != first %v (sim not deterministic across workers?)", res2.Energy, res.Energy)
	}
}

// TestFleetCordonUncordon drives the admin plane end to end over HTTP.
func TestFleetCordonUncordon(t *testing.T) {
	f := newTestFleet(t, 3, Config{HealthInterval: time.Hour})
	ctx := context.Background()
	target := f.workers[0].Addr()

	resp, err := f.hs.Client().Post(f.hs.URL+"/v1/cluster/cordon?worker="+target, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("cordon status = %d", resp.StatusCode)
	}
	if f.coord.ring.Has(target) {
		t.Fatal("cordoned worker still in ring")
	}
	if w, _ := f.coord.worker(target); w.State() != WorkerCordoned {
		t.Fatalf("state = %s, want %s", w.State(), WorkerCordoned)
	}

	// The fleet still serves everything with a worker out.
	if _, err := f.c.Simulate(ctx, testRequest("lpshe", 21)); err != nil {
		t.Fatalf("simulate with cordoned worker: %v", err)
	}

	resp, err = f.hs.Client().Post(f.hs.URL+"/v1/cluster/uncordon?worker="+target, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// Uncordon re-probes synchronously, so the healthy worker is back
	// in the ring before the response arrives.
	if !f.coord.ring.Has(target) {
		t.Fatal("uncordoned healthy worker not back in ring")
	}

	// Unknown worker is a 404, not a silent no-op.
	resp, err = f.hs.Client().Post(f.hs.URL+"/v1/cluster/cordon?worker=1.2.3.4:1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("cordon unknown worker status = %d, want 404", resp.StatusCode)
	}
}

// TestFleetJobFanout runs a batch job through the coordinator and
// checks the ordered merge: every outcome present, indexed, sorted,
// and spread across more than one worker.
func TestFleetJobFanout(t *testing.T) {
	f := newTestFleet(t, 3, Config{})
	ctx := context.Background()

	var batch server.BatchRequest
	batch.Name = "fanout"
	const runs = 12
	for i := 0; i < runs; i++ {
		batch.Runs = append(batch.Runs, testRequest("lpshe", uint64(100+i)))
	}
	info, err := f.c.CreateJob(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}

	var sawEnd bool
	if err := f.c.StreamEvents(ctx, info.ID, func(ev server.JobEvent) error {
		if ev.Type == "end" {
			sawEnd = true
		}
		return nil
	}); err != nil {
		t.Fatalf("stream: %v", err)
	}
	if !sawEnd {
		t.Fatal("SSE stream ended without an end event")
	}

	final, err := f.c.Job(ctx, info.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != server.JobDone || final.Done != runs || final.Failed != 0 {
		t.Fatalf("job = %+v, want done with %d runs", final, runs)
	}
	if len(final.Results) != runs {
		t.Fatalf("results = %d, want %d", len(final.Results), runs)
	}
	for i, ro := range final.Results {
		if ro.Index != i {
			t.Fatalf("results[%d].Index = %d: outcomes not merged into submission order", i, ro.Index)
		}
		if ro.Result == nil {
			t.Fatalf("results[%d] missing result: %s", i, ro.Error)
		}
	}

	spread := 0
	for _, wi := range f.coord.WorkerInfos() {
		if wi.Routed > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("fan-out used %d workers, want >= 2", spread)
	}
}

// TestFleetReadyz covers the readiness ladder: ready with a healthy
// fleet, 503 when no worker is in the ring, 503 while draining.
func TestFleetReadyz(t *testing.T) {
	f := newTestFleet(t, 1, Config{HealthInterval: time.Hour})

	if err := f.c.Ready(context.Background()); err != nil {
		t.Fatalf("ready fleet not ready: %v", err)
	}

	f.coord.Cordon(f.workers[0].Addr())
	err := f.c.Ready(context.Background())
	apiErr, ok := err.(*client.APIError)
	if !ok || apiErr.StatusCode != 503 {
		t.Fatalf("readyz with empty ring = %v, want 503 APIError", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	f.coord.Shutdown(ctx)
	err = f.c.Ready(context.Background())
	apiErr, ok = err.(*client.APIError)
	if !ok || apiErr.StatusCode != 503 {
		t.Fatalf("readyz while draining = %v, want 503 APIError", err)
	}
	if _, err := f.c.Simulate(context.Background(), testRequest("lpshe", 1)); err == nil {
		t.Fatal("simulate accepted while draining")
	}
}

// TestFleetBadRequests pins dvsd/dvsfleet parity on rejected
// requests: each case goes to one embedded worker and to the
// coordinator, and both must answer with the same status, Retry-After
// and error body. The coordinator rejects them itself, without a
// worker hop. It also pins the coordinator's X-Request-Deadline
// handling: the header bounds the routed call, and an expired one
// answers 503 + Retry-After.
func TestFleetBadRequests(t *testing.T) {
	f := newTestFleet(t, 1, Config{})
	worker := f.workers[0]

	valid, err := json.Marshal(testRequest("lpshe", 3))
	if err != nil {
		t.Fatal(err)
	}
	tooMany := "{\"runs\": [" + strings.Repeat("{},", server.MaxBatchRuns) + "{}]}"

	type answer struct {
		status     int
		retryAfter string
		body       server.ErrorBody
	}
	send := func(base, method, path, body, deadline string) answer {
		t.Helper()
		req, err := http.NewRequest(method, base+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if deadline != "" {
			req.Header.Set("X-Request-Deadline", deadline)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		a := answer{status: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After")}
		if err := json.NewDecoder(resp.Body).Decode(&a.body); err != nil {
			t.Fatalf("%s %s: decoding error body: %v", method, path, err)
		}
		return a
	}

	cases := []struct {
		name, method, path, body, deadline string
		status                             int
	}{
		{"empty task set", "POST", "/v1/simulate", `{"policy": "lpshe"}`, "", 400},
		{"unknown field", "POST", "/v1/simulate", `{"bogus": 1}`, "", 400},
		{"unknown task field", "POST", "/v1/simulate", `{"task_set": {"tasks": [{"wcet": 1, "period": 4, "bogus": 3}], "extra": 1}, "policy": "lpshe"}`, "", 400},
		{"unknown task field in a job", "POST", "/v1/jobs", `{"runs": [{"task_set": {"tasks": [{"wcet": 1, "period": 4}], "extra": 1}, "policy": "lpshe"}]}`, "", 400},
		{"trailing data", "POST", "/v1/simulate", string(valid) + ` {}`, "", 400},
		{"empty job", "POST", "/v1/jobs", `{"name": "empty"}`, "", 400},
		{"too many runs", "POST", "/v1/jobs", tooMany, "", 400},
		{"unknown job", "GET", "/v1/jobs/nope", "", "", 404},
		{"cancel unknown job", "DELETE", "/v1/jobs/nope", "", "", 404},
		{"events of unknown job", "GET", "/v1/jobs/nope/events", "", "", 404},
		{"bogus deadline", "POST", "/v1/simulate", string(valid), "bogus", 400},
	}
	before := f.coord.met.routed.With(worker.Addr()).Value()
	check := func(name, method, path, body, deadline string, status int) {
		t.Helper()
		dvsd := send("http://"+worker.Addr(), method, path, body, deadline)
		fleet := send(f.hs.URL, method, path, body, deadline)
		if dvsd.status != status {
			t.Errorf("%s: dvsd status = %d, want %d", name, dvsd.status, status)
		}
		if !reflect.DeepEqual(dvsd, fleet) {
			t.Errorf("%s: dvsd answered %+v, dvsfleet %+v", name, dvsd, fleet)
		}
	}
	for _, tc := range cases {
		check(tc.name, tc.method, tc.path, tc.body, tc.deadline, tc.status)
	}
	if after := f.coord.met.routed.With(worker.Addr()).Value(); after != before {
		t.Fatalf("rejected requests reached a worker (routed %v -> %v)", before, after)
	}

	// A valid deadline bounds the routed call; one that has expired
	// answers 503 + Retry-After: 1 instead of running.
	if a := send(f.hs.URL, "POST", "/v1/simulate", string(valid), "30s"); a.status != 200 {
		t.Fatalf("simulate with a 30s deadline: status %d (%+v)", a.status, a)
	}
	a := send(f.hs.URL, "POST", "/v1/simulate", string(valid), "1ns")
	if a.status != http.StatusServiceUnavailable || a.retryAfter != "1" {
		t.Fatalf("simulate with an expired deadline = %+v, want 503 + Retry-After 1", a)
	}

	// Draining: both answer new work with 503 + Retry-After.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := worker.srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := f.coord.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	check("draining", "POST", "/v1/simulate", string(valid), "", 503)
}

// TestFleetPanicRecovered: a panicking coordinator handler costs one
// 500, as on dvsd, and the coordinator keeps serving.
func TestFleetPanicRecovered(t *testing.T) {
	f := newTestFleet(t, 1, Config{Kill: func(string) error { panic("boom") }})
	resp, err := f.hs.Client().Post(f.hs.URL+"/v1/cluster/kill?worker="+f.workers[0].Addr(), "", nil)
	if err != nil {
		t.Fatalf("kill with a panicking Kill: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("kill status = %d, want 500", resp.StatusCode)
	}
	if _, err := f.c.Simulate(context.Background(), testRequest("lpshe", 5)); err != nil {
		t.Fatalf("simulate after a recovered panic: %v", err)
	}
}
