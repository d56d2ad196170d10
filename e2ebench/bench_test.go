package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"dvsslack/internal/server"
)

// benchmarkJSON is the part of ../BENCHMARK.json the self-test checks.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestEveryWorkloadEmitsEveryMetric checks that the benchmark runs
// every workload BENCHMARK.json lists, then runs each workload it has
// briefly, with tracing off and on, and checks that the result carries
// every metric BENCHMARK.json names, with its unit, and nothing else.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	bj := readBenchmarkJSON(t)
	for _, w := range bj.Workloads {
		if !known(w.Name) {
			t.Fatalf("BENCHMARK.json workload %s is not one of %v", w.Name, workloads)
		}
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := bj.EndToEnd
			if trace {
				want = bj.PerLayer
			}
			o := options{workload: w, seed: 7, seconds: 1, trace: trace, nproc: 2, root: ".."}
			res, err := run(context.Background(), o, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// corruptNth rewrites the energy of the nth /v1/simulate response that
// h serves, leaving every other response untouched.
func corruptNth(h http.Handler, n int64) http.Handler {
	var seen atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/simulate" || seen.Add(1) != n {
			h.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		var res server.SimResult
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
			panic(err)
		}
		res.Energy *= 1.001
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(res)
	})
}

// TestCorruptedResponseIsCaught serves api-fresh from a dvsd whose
// handler corrupts one response, and checks that the output check
// counts exactly that one as failed.
func TestCorruptedResponseIsCaught(t *testing.T) {
	ctx := context.Background()
	in, err := newInputs(3, "../scenarios")
	if err != nil {
		t.Fatal(err)
	}
	wl := apiFresh
	wl.start = func(nproc int, seed uint64, spans *spanLog) (*stack, error) {
		srv := server.New(server.Config{})
		front, err := serve(corruptNth(srv.Handler(), 50))
		if err != nil {
			return nil, err
		}
		st := &stack{front: front, workers: []*served{front}, dvsd: []*server.Server{srv}, poolWidth: srv.Workers()}
		st.cl, st.transport = newClient(front.addr, nproc, seed)
		return st, nil
	}
	p, err := runServer(ctx, wl, in, 2, false, 300*time.Millisecond, false)
	if err != nil {
		t.Fatal(err)
	}
	all := append(p.warm, p.timed...)
	failed, _, err := checkServer(ctx, in, wl.gen(in), all, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if failed != 1 {
		t.Fatalf("output check counted %d failed of %d calls, want exactly the 1 corrupted", failed, len(all))
	}
}
