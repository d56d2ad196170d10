package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"dvsslack/client"
	"dvsslack/internal/cluster"
	"dvsslack/internal/server"
)

// span is one timed call the benchmark made into a layer, keyed by the
// request ID the call carried.
type span struct {
	id, layer string
	us        float64
}

// spanLog collects spans from every goroutine of a traced phase. Spans
// stay in memory; the traced run reduces them to per-layer metrics.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(id, layer string, d time.Duration) {
	l.mu.Lock()
	l.spans = append(l.spans, span{id: id, layer: layer, us: micros(d)})
	l.mu.Unlock()
}

// wrap times h under layer for every request that carries an
// X-Request-ID. With l nil it returns h unchanged, so an untraced
// stack serves exactly the program's handler.
func (l *spanLog) wrap(layer string, h http.Handler) http.Handler {
	if l == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		start := time.Now()
		h.ServeHTTP(w, r)
		if id != "" {
			l.add(id, layer, time.Since(start))
		}
	})
}

// byID groups the spans of one layer by request ID.
func (l *spanLog) byID(layer string) map[string]float64 {
	out := map[string]float64{}
	for _, s := range l.spans {
		if s.layer == layer {
			out[s.id] = s.us
		}
	}
	return out
}

// served is one HTTP server on a loopback listener.
type served struct {
	addr string
	hs   *http.Server
	done chan struct{}
}

func serve(h http.Handler) (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &served{addr: ln.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln)
	}()
	return s, nil
}

func (s *served) close(ctx context.Context) {
	s.hs.Shutdown(ctx)
	<-s.done
}

// stack is the system under test of a server workload: one dvsd, or a
// coordinator in front of dvsd workers, plus the client that drives it.
type stack struct {
	cl        *client.Client
	transport *http.Transport
	front     *served   // what the client talks to
	workers   []*served // dvsd listeners (front itself for one dvsd)
	dvsd      []*server.Server
	coord     *cluster.Coordinator
	poolWidth int // simulation workers across the stack
}

// newClient returns a retrying client with at most nproc connections.
func newClient(addr string, nproc int, seed uint64) (*client.Client, *http.Transport) {
	tr := &http.Transport{MaxIdleConnsPerHost: nproc, MaxConnsPerHost: nproc}
	cl := client.New(addr).
		WithHTTPClient(&http.Client{Transport: tr}).
		WithRetry(client.RetryPolicy{Seed: seed})
	return cl, tr
}

// startDVSD serves one dvsd with the default Config (cache on).
func startDVSD(nproc int, seed uint64, spans *spanLog) (*stack, error) {
	srv := server.New(server.Config{})
	front, err := serve(spans.wrap("dvsd", srv.Handler()))
	if err != nil {
		return nil, err
	}
	st := &stack{front: front, workers: []*served{front}, dvsd: []*server.Server{srv}, poolWidth: srv.Workers()}
	st.cl, st.transport = newClient(front.addr, nproc, seed)
	return st, nil
}

// startFleet serves n dvsd workers of pool width 1 each and a
// coordinator in front of them. The workers are built as
// cluster.StartEmbedded builds them (server.New behind a loopback
// http.Server); the benchmark starts them itself so that a traced run
// can wrap each worker's Handler.
func startFleet(n, nproc int, seed uint64, spans *spanLog) (*stack, error) {
	st := &stack{poolWidth: n}
	for i := 0; i < n; i++ {
		srv := server.New(server.Config{Workers: 1})
		w, err := serve(spans.wrap("dvsd", srv.Handler()))
		if err != nil {
			st.stop()
			return nil, err
		}
		st.dvsd = append(st.dvsd, srv)
		st.workers = append(st.workers, w)
	}
	addrs := make([]string, n)
	for i, w := range st.workers {
		addrs[i] = w.addr
	}
	st.coord = cluster.New(cluster.Config{Workers: addrs})
	st.coord.Start()
	front, err := serve(spans.wrap("coordinator", st.coord.Handler()))
	if err != nil {
		st.stop()
		return nil, err
	}
	st.front = front
	st.cl, st.transport = newClient(front.addr, nproc, seed)
	return st, nil
}

// stop shuts everything down and waits for it.
func (st *stack) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if st.transport != nil {
		st.transport.CloseIdleConnections()
	}
	if st.coord != nil {
		if st.front != nil {
			st.front.close(ctx)
		}
		st.coord.Shutdown(ctx)
	}
	for i, w := range st.workers {
		w.close(ctx)
		st.dvsd[i].Shutdown(ctx)
	}
}

// counters are the daemon and coordinator readings taken at a phase
// boundary.
type counters struct {
	hits, misses, shed float64
	perWorker          []float64 // simulate + scenario requests per dvsd
	entries            []float64 // result-cache entries per dvsd
	fleet              cluster.FleetSnapshot
}

// read collects counters: dvsd through client.Metrics, the
// coordinator by decoding its raw GET /metrics as a FleetSnapshot
// (client.Metrics cannot decode that shape).
func (st *stack) read(ctx context.Context) (counters, error) {
	var c counters
	for _, w := range st.workers {
		m, err := client.New(w.addr).Metrics(ctx)
		if err != nil {
			return c, fmt.Errorf("dvsd metrics: %w", err)
		}
		c.hits += float64(m.CacheHits)
		c.misses += float64(m.CacheMisses)
		c.shed += float64(m.Shed)
		c.perWorker = append(c.perWorker, float64(m.Requests["simulate"]+m.Requests["scenario"]))
		c.entries = append(c.entries, float64(m.CacheEntries))
	}
	if st.coord == nil {
		return c, nil
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+st.front.addr+"/metrics", nil)
	if err != nil {
		return c, err
	}
	resp, err := (&http.Client{Transport: st.transport}).Do(req)
	if err != nil {
		return c, fmt.Errorf("coordinator metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return c, fmt.Errorf("coordinator metrics: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&c.fleet); err != nil {
		return c, fmt.Errorf("coordinator metrics: %w", err)
	}
	return c, nil
}
