package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dvsslack/internal/server"
)

// TestBodyLimitParity sets MaxBodyBytes on a dvsd worker and on the
// coordinator in front of it, and checks that a /v1/simulate body
// over the limit gets the same status and error message from both,
// wherever in the document the limit falls. Bodies within the limit
// are served.
func TestBodyLimitParity(t *testing.T) {
	const limit = 1024
	workers, err := StartEmbedded(1, server.Config{Workers: 1, MaxBodyBytes: limit})
	if err != nil {
		t.Fatal(err)
	}
	coord := New(Config{Workers: Addrs(workers), Kill: KillFunc(workers), MaxBodyBytes: limit})
	coord.Start()
	hs := httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		coord.Shutdown(ctx)
		workers[0].Drain(ctx)
	})

	valid, err := json.Marshal(testRequest("lpshe", 3))
	if err != nil {
		t.Fatal(err)
	}
	doc := string(valid)
	// pad inserts n spaces after the opening brace: still one valid
	// document, len(doc)+n bytes long.
	pad := func(n int) string { return "{" + strings.Repeat(" ", n) + doc[1:] }
	manyTasks := `{"task_set": {"tasks": [` + strings.Repeat(`{"wcet": 1, "period": 40},`, 60) +
		`{"wcet": 1, "period": 40}]}, "policy": "lpshe"}`
	const tooLarge = "invalid request body: http: request body too large"

	cases := []struct {
		name   string
		body   string
		status int
		msg    string
	}{
		{"within the limit", doc, 200, ""},
		{"exactly the limit", pad(limit - len(doc)), 200, ""},
		{"one byte over", pad(limit - len(doc) + 1), 400, tooLarge},
		{"limit inside a string", `{"policy": "` + strings.Repeat("x", 2*limit) + `"}`, 400, tooLarge},
		{"limit inside the task list", manyTasks, 400, tooLarge},
	}
	send := func(base, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(base+"/v1/simulate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		var eb server.ErrorBody
		if err := json.Unmarshal(raw, &eb); err != nil {
			t.Fatalf("decoding %q: %v", raw, err)
		}
		return resp.StatusCode, eb.Error
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, svc := range []struct{ name, base string }{
				{"dvsd", "http://" + workers[0].Addr()},
				{"dvsfleet", hs.URL},
			} {
				status, msg := send(svc.base, tc.body)
				if status != tc.status || msg != tc.msg {
					t.Errorf("%s: %d %q, want %d %q", svc.name, status, msg, tc.status, tc.msg)
				}
			}
		})
	}
}
