package cluster

import (
	"io"
	"time"

	"dvsslack/internal/obs"
	"dvsslack/internal/server"
)

// latencyBuckets mirror dvsd's HTTP latency histogram bounds so
// coordinator and worker latency distributions are comparable
// bucket-for-bucket.
var latencyBuckets = []float64{
	1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1, 3, 10, 30, 100,
}

// fleetMetrics aggregates the coordinator's counters on an
// obs.Registry (served as Prometheus text on /metrics.prom and folded
// into the /metrics JSON snapshot).
type fleetMetrics struct {
	// HTTPMetrics are the families the shared server.Frontend records.
	// The coordinator exports no timeout, panic or SSE family, so
	// those are bare counters.
	server.HTTPMetrics

	reg   *obs.Registry
	start time.Time

	routed      *obs.CounterVec // worker -> requests routed to it
	failovers   *obs.CounterVec // worker -> requests failed over away from it
	retries     *obs.Counter    // re-routes past a shed/saturated worker (not marked down)
	proxyErrors *obs.Counter    // requests that exhausted every candidate worker

	fanoutRuns *obs.Counter // fleet-job runs fanned out to workers

	migrations *obs.CounterVec // jobs live-migrated off a worker, by reason
}

func newFleetMetrics(c *Coordinator) *fleetMetrics {
	m := &fleetMetrics{reg: obs.NewRegistry(), start: time.Now()}
	m.Timeouts, m.Panics = new(obs.Counter), new(obs.Counter)
	m.SSEDropped, m.SSELagged = new(obs.Counter), new(obs.Counter)
	r := m.reg
	r.GaugeFunc("dvsfleet_uptime_seconds", "seconds since the coordinator started",
		func() float64 { return time.Since(m.start).Seconds() })
	r.GaugeFunc("dvsfleet_workers", "registered workers",
		func() float64 { return float64(c.workerCount()) })
	r.GaugeFunc("dvsfleet_workers_healthy", "workers currently in the healthy state",
		func() float64 { return float64(c.healthyCount()) })
	r.GaugeFunc("dvsfleet_ring_nodes", "workers currently owning ring keys",
		func() float64 { return float64(c.ring.Len()) })

	m.Requests = r.CounterVec("dvsfleet_http_requests_total", "HTTP requests by endpoint", "endpoint")
	m.Errors = r.CounterVec("dvsfleet_http_request_errors_total", "non-2xx HTTP responses by endpoint", "endpoint")
	m.Latency = r.HistogramVec("dvsfleet_http_request_seconds", "HTTP request wall time by endpoint",
		"endpoint", latencyBuckets)

	m.routed = r.CounterVec("dvsfleet_routed_total", "simulate requests routed, by worker", "worker")
	m.failovers = r.CounterVec("dvsfleet_failovers_total",
		"simulate requests failed over away from a worker after an error", "worker")
	m.retries = r.Counter("dvsfleet_retries_total",
		"simulate requests re-routed past a shed or saturated worker")
	m.proxyErrors = r.Counter("dvsfleet_proxy_errors_total",
		"simulate requests that exhausted every candidate worker")

	m.JobsCreated = r.Counter("dvsfleet_jobs_created_total", "fleet jobs accepted")
	m.JobsFinished = r.Counter("dvsfleet_jobs_finished_total", "fleet jobs reaching a terminal state")
	m.fanoutRuns = r.Counter("dvsfleet_fanout_runs_total", "fleet-job runs fanned out across workers")

	m.migrations = r.CounterVec("dvsfleet_migrations_total",
		"jobs live-migrated off a worker via checkpoint/restore, by reason", "reason")
	return m
}

func (m *fleetMetrics) writeProm(w io.Writer) error { return m.reg.WriteProm(w) }

// FleetSnapshot is the JSON document the coordinator's /metrics
// serves.
type FleetSnapshot struct {
	UptimeSec float64 `json:"uptime_sec"`

	Workers        []WorkerInfo `json:"workers"`
	HealthyWorkers int          `json:"healthy_workers"`
	RingNodes      int          `json:"ring_nodes"`

	Requests map[string]uint64 `json:"requests"`
	Errors   map[string]uint64 `json:"errors,omitempty"`

	Routed      uint64 `json:"routed"`
	Failovers   uint64 `json:"failovers,omitempty"`
	Retries     uint64 `json:"retries,omitempty"`
	ProxyErrors uint64 `json:"proxy_errors,omitempty"`

	JobsCreated  uint64 `json:"jobs_created"`
	JobsFinished uint64 `json:"jobs_finished"`
	FanoutRuns   uint64 `json:"fanout_runs"`

	// Migrations counts jobs live-migrated off workers (summed across
	// reasons; omitted while zero to keep the quiet snapshot shape).
	Migrations uint64 `json:"migrations,omitempty"`
}

// snapshot captures a consistent view of the counters.
func (m *fleetMetrics) snapshot(c *Coordinator) FleetSnapshot {
	s := FleetSnapshot{
		UptimeSec:      time.Since(m.start).Seconds(),
		Workers:        c.WorkerInfos(),
		HealthyWorkers: c.healthyCount(),
		RingNodes:      c.ring.Len(),
		Requests:       map[string]uint64{},
		Errors:         map[string]uint64{},
		Retries:        uint64(m.retries.Value()),
		ProxyErrors:    uint64(m.proxyErrors.Value()),
		JobsCreated:    uint64(m.JobsCreated.Value()),
		JobsFinished:   uint64(m.JobsFinished.Value()),
		FanoutRuns:     uint64(m.fanoutRuns.Value()),
	}
	m.Requests.Each(func(label string, c *obs.Counter) { s.Requests[label] = uint64(c.Value()) })
	m.Errors.Each(func(label string, c *obs.Counter) { s.Errors[label] = uint64(c.Value()) })
	m.routed.Each(func(_ string, c *obs.Counter) { s.Routed += uint64(c.Value()) })
	m.failovers.Each(func(_ string, c *obs.Counter) { s.Failovers += uint64(c.Value()) })
	m.migrations.Each(func(_ string, c *obs.Counter) { s.Migrations += uint64(c.Value()) })
	return s
}
