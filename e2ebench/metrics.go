package main

import (
	"strconv"
	"time"
)

// Metric names and units, as BENCHMARK.json lists them. endToEnd is
// printed with --trace 0, perLayer with --trace 1.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"setup_s", "s"},
	{"alloc_bytes_per_op", "bytes"},
	{"peak_heap_mb", "MB"},
}

var perLayer = []metricDef{
	{"client.transport_us_p50", "us"},
	{"client.retries", "count"},
	{"server.handler_us_p50", "us"},
	{"server.handler_us_p99", "us"},
	{"server.overhead_us_p50", "us"},
	{"server.hit_us_p50", "us"},
	{"server.decode_us", "us"},
	{"server.validate_us", "us"},
	{"server.config_us", "us"},
	{"server.key_us", "us"},
	{"server.encode_us", "us"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.shed", "count"},
	{"server.sim_busy_share", "ratio"},
	{"cluster.handler_us_p50", "us"},
	{"cluster.handler_us_p99", "us"},
	{"cluster.hop_us_p50", "us"},
	{"cluster.routed", "count"},
	{"cluster.failovers", "count"},
	{"cluster.proxy_errors", "count"},
	{"cluster.worker_skew", "ratio"},
	{"scenario.handler_us_p50", "us"},
	{"scenario.parse_us", "us"},
	{"scenario.execute_us", "us"},
	{"sim.run_us_p50", "us"},
	{"sim.run_us_p99", "us"},
	{"sim.ns_per_decision", "ns"},
	{"sim.decisions_per_run", "count"},
	{"core.fast_path_share", "ratio"},
	{"core.slack_calls_per_run", "count"},
	{"core.scan_len_avg", "count"},
	{"dvs.lpshe_over_nondvs", "ratio"},
	{"experiment.cells", "count"},
	{"experiment.worker_util", "ratio"},
	{"experiment.serial_share", "ratio"},
	{"obs.trace_overhead", "ratio"},
}

type metricDef struct{ name, unit string }

// metric is one entry of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// round is one slice of a timed phase: a fixed share of the time on
// the server workloads, one pass on grid.
type round struct {
	ops       int
	wall      time.Duration
	lat       []float64 // µs, successful ops
	allocated uint64
	liveHeap  uint64 // median live heap read inside the round
}

// endToEndOf reduces a run to the end-to-end metrics: each is
// computed per round, and the run reports the median over rounds.
func endToEndOf(rounds []round, setup []float64) map[string]float64 {
	per := map[string][]float64{}
	for _, r := range rounds {
		if r.ops == 0 || r.wall <= 0 {
			continue
		}
		lat := append([]float64(nil), r.lat...)
		per["ops_per_s"] = append(per["ops_per_s"], float64(r.ops)/r.wall.Seconds())
		per["latency_p50_us"] = append(per["latency_p50_us"], percentile(lat, 50))
		per["latency_p99_us"] = append(per["latency_p99_us"], percentile(lat, 99))
		per["alloc_bytes_per_op"] = append(per["alloc_bytes_per_op"], float64(r.allocated)/float64(r.ops))
		per["peak_heap_mb"] = append(per["peak_heap_mb"], float64(r.liveHeap)/(1<<20))
	}
	per["setup_s"] = setup
	values := map[string]float64{}
	for name, xs := range per {
		values[name] = median(xs)
	}
	return values
}

// layerSet accumulates per-layer metrics from the workloads that
// measured them, first writer wins.
type layerSet struct {
	values map[string]float64
	source map[string]string
}

func newLayerSet() *layerSet {
	return &layerSet{values: map[string]float64{}, source: map[string]string{}}
}

func (l *layerSet) fill(from string, m map[string]float64) {
	for k, v := range m {
		if _, ok := l.values[k]; !ok {
			l.values[k] = v
			l.source[k] = from
		}
	}
}

// missing lists the per-layer metrics not measured yet.
func (l *layerSet) missing() []string {
	var out []string
	for _, d := range perLayer {
		if _, ok := l.values[d.name]; !ok {
			out = append(out, d.name)
		}
	}
	return out
}

// resultOf builds the result line from values, over defs.
func resultOf(defs []metricDef, values map[string]float64, attempted, failed int) result {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		if v, ok := values[d.name]; ok {
			res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		}
	}
	return res
}

// fmtValue prints v with all its digits.
func fmtValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
