// Command e2ebench is the repository's end-to-end benchmark. It runs
// one workload against the system through its public entry points,
// checks every output, and prints its metrics; the last line of
// standard output is one JSON result object.
//
//	e2ebench --workload api-fresh|fleet-mixed|grid --seed N --seconds S --trace 0|1
//
// With --trace 0 it measures the end-to-end metrics with tracing off.
// With --trace 1 it runs the traced pass and prints the per-layer
// metrics instead. See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"
)

var workloads = []string{"api-fresh", "fleet-mixed", "grid"}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	nproc    int
	root     string // checkout root: scenario documents live under root/scenarios
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: api-fresh, fleet-mixed or grid")
	flag.Uint64Var(&o.seed, "seed", 1, "seed every input of the run is drawn from")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the measured load in seconds")
	flag.IntVar(&trace, "trace", 0, "0 prints the end-to-end metrics, 1 runs the traced per-layer pass")
	flag.Parse()
	o.trace = trace == 1
	o.nproc = runtime.NumCPU()
	o.root = "."
	if !known(o.workload) || o.seconds < 1 || (trace != 0 && trace != 1) || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func known(w string) bool {
	for _, k := range workloads {
		if k == w {
			return true
		}
	}
	return false
}

// run executes one benchmark run and writes its report to w, all but
// the result line.
func run(ctx context.Context, o options, w io.Writer) (result, error) {
	in, err := newInputs(o.seed, o.root+"/scenarios")
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(w, "host %s\n", hostJSON(o.root))
	if o.trace {
		return traced(ctx, o, in, w)
	}
	return untraced(ctx, o, in, w)
}

// A run sets its system up in two blocks of setUpsPerBlock set-ups,
// one before the warm-up and one after the timed phase; setup_s is the
// median of them all. Each block is paced to span setUpSpan. A set-up
// takes 0.5–30 ms, so set-ups back to back would sample the host at a
// single moment, and its speed moves by more than the set-up changes
// the benchmark exists to see.
const (
	setUpsPerBlock = 32
	setUpSpan      = time.Second
)

// setUpBlock calls once setUpsPerBlock times, paced over setUpSpan and
// each after a runtime.GC so every set-up starts from the same
// collected heap, and appends the seconds each returns to xs. once
// gets the number of the set-up in the run.
func setUpBlock(xs []float64, once func(i int) (float64, error)) ([]float64, error) {
	start := time.Now()
	for n := 0; n < setUpsPerBlock; n++ {
		time.Sleep(time.Until(start.Add(setUpSpan * time.Duration(n) / setUpsPerBlock)))
		runtime.GC()
		s, err := once(len(xs))
		if err != nil {
			return nil, err
		}
		xs = append(xs, s)
	}
	return xs, nil
}

// untraced measures the end-to-end metrics of o.workload.
func untraced(ctx context.Context, o options, in *inputs, w io.Writer) (result, error) {
	dur := time.Duration(o.seconds) * time.Second
	m, err := measure(ctx, o, in, o.workload, true, dur, false)
	if err != nil {
		return result{}, err
	}
	values := endToEndOf(m.rounds, m.setup)
	fmt.Fprintf(w, "workload %s seed %d: %d rounds, %d set-ups, attempted %d, failed %d, error_rate %s\n",
		o.workload, o.seed, len(m.rounds), len(m.setup), m.attempted, m.failed, fmtValue(ratio(float64(m.failed), float64(m.attempted))))
	fmt.Fprintf(w, "ops_per_s by round:")
	for _, r := range m.rounds {
		fmt.Fprintf(w, " %.0f", float64(r.ops)/r.wall.Seconds())
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-22s %14s  %s\n", "metric", "median", "unit")
	for _, d := range endToEnd {
		fmt.Fprintf(w, "%-22s %14.6g  %s\n", d.name, values[d.name], d.unit)
	}
	return resultOf(endToEnd, values, m.attempted, m.failed), nil
}

// Shares of --seconds a traced run gives to its parts: the untraced
// and traced runs of the workload itself, then a short traced run of
// each other workload that measures a layer this one does not cross.
const (
	ownShare       = 0.4
	companionShare = 0.1
)

// traced measures o.workload untraced and traced, then fills in the
// layers it does not cross from short traced runs of the workloads
// that do.
func traced(ctx context.Context, o options, in *inputs, w io.Writer) (result, error) {
	secs := float64(o.seconds)
	own := time.Duration(ownShare * secs * float64(time.Second))
	plain, err := measure(ctx, o, in, o.workload, false, own, false)
	if err != nil {
		return result{}, err
	}
	tr, err := measure(ctx, o, in, o.workload, false, own, true)
	if err != nil {
		return result{}, err
	}
	attempted, failed := plain.attempted+tr.attempted, plain.failed+tr.failed
	layers := newLayerSet()
	layers.fill(o.workload, tr.layers)
	layers.fill(o.workload, map[string]float64{"obs.trace_overhead": 1 - tr.opsPerS/plain.opsPerS})
	e2e := map[string]float64{o.workload: tr.e2eP50}
	for _, other := range []string{"fleet-mixed", "grid", "api-fresh"} {
		if other == o.workload || len(layers.missing()) == 0 {
			continue
		}
		d := time.Duration(companionShare * secs * float64(time.Second))
		if d < time.Second {
			d = time.Second
		}
		c, err := measure(ctx, o, in, other, false, d, true)
		if err != nil {
			return result{}, err
		}
		attempted, failed = attempted+c.attempted, failed+c.failed
		layers.fill(other, c.layers)
		e2e[other] = c.e2eP50
	}
	if miss := layers.missing(); len(miss) > 0 {
		return result{}, fmt.Errorf("traced run measured no value for %v", miss)
	}
	fmt.Fprintf(w, "workload %s seed %d traced: attempted %d, failed %d, untraced %.6g ops/s, traced %.6g ops/s\n",
		o.workload, o.seed, attempted, failed, plain.opsPerS, tr.opsPerS)
	fmt.Fprintf(w, "%-26s %14s %-6s %-12s %s\n", "metric", "value", "unit", "workload", "share of p50")
	for _, d := range perLayer {
		src := layers.source[d.name]
		share := ""
		if d.unit == "us" && e2e[src] > 0 {
			share = fmt.Sprintf("%.3f", layers.values[d.name]/e2e[src])
		}
		fmt.Fprintf(w, "%-26s %14.6g %-6s %-12s %s\n", d.name, layers.values[d.name], d.unit, src, share)
	}
	return resultOf(perLayer, layers.values, attempted, failed), nil
}

// measurement is one run of one workload.
type measurement struct {
	setup             []float64
	rounds            []round
	opsPerS           float64 // successful ops over the whole timed phase
	attempted, failed int
	layers            map[string]float64 // traced only
	e2eP50            float64            // traced only: p50 µs of a whole op
}

// roundsFor splits a server phase into rounds of at least two
// seconds, ten at most.
func roundsFor(d time.Duration) int {
	n := int(d / (2 * time.Second))
	switch {
	case n < 1:
		return 1
	case n > 10:
		return 10
	}
	return n
}

// measure runs workload once: set-up, warm-up, a timed phase of dur,
// output checks, and with traced the per-layer metrics. With
// timeSetUps it times two blocks of set-ups; without, it sets up once.
func measure(ctx context.Context, o options, in *inputs, workload string, timeSetUps bool, dur time.Duration, traced bool) (*measurement, error) {
	if workload == "grid" {
		return measureGrid(ctx, o, in, timeSetUps, dur, traced)
	}
	wl := apiFresh
	if workload == "fleet-mixed" {
		wl = fleetMixed
	}
	p, err := runServer(ctx, wl, in, o.nproc, timeSetUps, dur, traced)
	if err != nil {
		return nil, err
	}
	if err := checkCounters(wl.name, p); err != nil {
		return nil, err
	}
	all := append(append([]outcome(nil), p.warm...), p.timed...)
	gen := wl.gen(in)
	failed, expected, err := checkServer(ctx, in, gen, all, o.nproc, traced)
	if err != nil {
		return nil, err
	}
	m := &measurement{setup: p.setup, attempted: len(all), failed: failed}
	n := roundsFor(p.to.Sub(p.from))
	step := p.to.Sub(p.from) / time.Duration(n)
	var ok int
	for _, out := range p.timed {
		if !out.failed {
			ok++
		}
	}
	m.opsPerS = float64(ok) / p.to.Sub(p.from).Seconds()
	for r := 0; r < n; r++ {
		from := p.from.Add(time.Duration(r) * step)
		win, found := memWindow(p.mem, from, from.Add(step))
		if !found {
			continue
		}
		rd := round{wall: win.to.Sub(win.from), allocated: win.allocated, liveHeap: win.liveHeap}
		for _, out := range p.timed {
			if done := epoch.Add(out.done); out.failed || done.Before(win.from) || done.After(win.to) {
				continue
			}
			rd.ops++
			rd.lat = append(rd.lat, micros(out.lat))
		}
		m.rounds = append(m.rounds, rd)
	}
	if traced {
		timed := expected[len(p.warm):]
		if m.layers, err = serverLayers(ctx, in, gen, p.prefix, p, timed); err != nil {
			return nil, err
		}
		var lat []float64
		for _, out := range p.timed {
			lat = append(lat, micros(out.lat))
		}
		m.e2eP50 = percentile(lat, 50)
	}
	return m, nil
}

// checkCounters fails a run whose counters show what the workload
// must never produce: a cache hit on api-fresh, or any failover or
// proxy error on the fleet.
func checkCounters(workload string, p *serverPhase) error {
	b, a := p.before, p.after
	if workload == "api-fresh" && a.hits != b.hits {
		return fmt.Errorf("api-fresh: %v cache hits in the timed phase, want 0", a.hits-b.hits)
	}
	if f, e := a.fleet.Failovers-b.fleet.Failovers, a.fleet.ProxyErrors-b.fleet.ProxyErrors; f != 0 || e != 0 {
		return fmt.Errorf("%s: %d failovers and %d proxy errors in the timed phase, want 0", workload, f, e)
	}
	return nil
}

func measureGrid(ctx context.Context, o options, in *inputs, timeSetUps bool, dur time.Duration, traced bool) (*measurement, error) {
	r, err := runGrid(ctx, in, o.nproc, timeSetUps, dur, traced)
	if err != nil {
		return nil, err
	}
	m := &measurement{setup: r.setup, attempted: len(r.cells), failed: r.failed}
	var wall time.Duration
	for i, p := range r.passes {
		wall += p.to.Sub(p.from)
		rd := round{ops: p.cells, wall: p.to.Sub(p.from)}
		if win, ok := memWindow(r.mem, p.from, p.to); ok {
			rd.allocated, rd.liveHeap = win.allocated, win.liveHeap
		}
		for _, c := range r.cells {
			if int(c.pass) == i {
				rd.lat = append(rd.lat, micros(c.end-c.start))
			}
		}
		m.rounds = append(m.rounds, rd)
	}
	m.opsPerS = float64(len(r.cells)) / wall.Seconds()
	if traced {
		m.layers = gridLayers(r, o.nproc)
		var lat []float64
		for _, c := range r.cells {
			lat = append(lat, micros(c.end-c.start))
		}
		m.e2eP50 = percentile(lat, 50)
	}
	return m, nil
}
