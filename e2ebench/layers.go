package main

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"dvsslack/internal/scenario"
	"dvsslack/internal/server"
)

// engineStats accumulates what the engine and lpSHE reported for a set
// of runs.
type engineStats struct {
	runUS            []float64
	runNS, decisions float64
	runs             int
	lp               lpCounters // summed over lpSHE runs
	lpRuns           int
	lpUS, nonDVSUS   []float64
}

func (e *engineStats) add(policy uint8, d time.Duration, decisions int, lp lpCounters) {
	us := micros(d)
	e.runUS = append(e.runUS, us)
	e.runNS += float64(d.Nanoseconds())
	e.decisions += float64(decisions)
	e.runs++
	switch policy {
	case polNonDVS:
		e.nonDVSUS = append(e.nonDVSUS, us)
	case polLpSHE:
		e.lpUS = append(e.lpUS, us)
		e.lp.fastPath += lp.fastPath
		e.lp.decisions += lp.decisions
		e.lp.slackCalls += lp.slackCalls
		e.lp.slackScanned += lp.slackScanned
		e.lpRuns++
	}
}

// policyOf classifies a policy display name.
func policyOf(name string) uint8 {
	switch name {
	case "lpSHE":
		return polLpSHE
	case "nonDVS":
		return polNonDVS
	}
	return polOther
}

func (e *engineStats) metrics(m map[string]float64) {
	if e.runs == 0 {
		return
	}
	m["sim.run_us_p50"] = percentile(e.runUS, 50)
	m["sim.run_us_p99"] = percentile(e.runUS, 99)
	m["sim.ns_per_decision"] = ratio(e.runNS, e.decisions)
	m["sim.decisions_per_run"] = e.decisions / float64(e.runs)
	if len(e.lpUS) > 0 && len(e.nonDVSUS) > 0 {
		m["dvs.lpshe_over_nondvs"] = mean(e.lpUS) / mean(e.nonDVSUS)
	}
	if e.lpRuns > 0 {
		m["core.fast_path_share"] = ratio(e.lp.fastPath, e.lp.decisions)
		m["core.slack_calls_per_run"] = e.lp.slackCalls / float64(e.lpRuns)
		m["core.scan_len_avg"] = ratio(e.lp.slackScanned, e.lp.slackCalls)
	}
}

// serverLayers derives the per-layer metrics of a traced server run.
// outs are the timed outcomes and expected[i] the checked result of
// outs[i] (nil for scenarios).
func serverLayers(ctx context.Context, in *inputs, gen func(int64) call, prefix string, p *serverPhase, expected []*server.SimResult) (map[string]float64, error) {
	m := map[string]float64{}
	clientUS := p.spans.byID("client")
	dvsdUS := p.spans.byID("dvsd")
	coordUS := p.spans.byID("coordinator")
	fleet := p.st.coord != nil
	var transport, handler, overhead, hit, scen, coord, hop []float64
	var eng engineStats
	var simBusy float64
	for i, o := range p.timed {
		if o.failed {
			continue
		}
		id := prefix + strconv.FormatInt(o.idx, 10)
		h, okH := dvsdUS[id]
		outer, okO := h, okH
		if fleet {
			outer, okO = coordUS[id]
			if okO && okH {
				coord = append(coord, outer)
				hop = append(hop, outer-h)
			}
		}
		if c, ok := clientUS[id]; ok && okO {
			transport = append(transport, c-outer)
		}
		if !okH {
			continue
		}
		handler = append(handler, h)
		switch {
		case o.kind == kindScenario:
			scen = append(scen, h)
		case o.cached:
			hit = append(hit, h)
		default:
			wall := time.Duration(o.wall)
			overhead = append(overhead, h-micros(wall))
			simBusy += wall.Seconds()
			if r := expected[i]; r != nil {
				eng.add(policyOf(r.Policy), wall, r.Decisions, lpCountersOf(r.PolicyCounters))
			}
		}
	}
	if len(handler) == 0 {
		return nil, fmt.Errorf("traced run recorded no dvsd spans")
	}
	setP50 := func(name string, xs []float64) {
		if len(xs) > 0 {
			m[name] = percentile(xs, 50)
		}
	}
	setP50("client.transport_us_p50", transport)
	m["client.retries"] = float64(p.retries)
	setP50("server.handler_us_p50", handler)
	m["server.handler_us_p99"] = percentile(handler, 99)
	setP50("server.overhead_us_p50", overhead)
	setP50("server.hit_us_p50", hit)
	setP50("scenario.handler_us_p50", scen)
	b, a := p.before, p.after
	m["server.cache_hit_ratio"] = ratio(a.hits-b.hits, a.hits-b.hits+a.misses-b.misses)
	m["server.shed"] = a.shed - b.shed
	m["server.sim_busy_share"] = simBusy / (float64(p.st.poolWidth) * p.to.Sub(p.from).Seconds())
	if fleet {
		setP50("cluster.handler_us_p50", coord)
		if len(coord) > 0 {
			m["cluster.handler_us_p99"] = percentile(coord, 99)
		}
		setP50("cluster.hop_us_p50", hop)
		m["cluster.routed"] = float64(a.fleet.Routed - b.fleet.Routed)
		m["cluster.failovers"] = float64(a.fleet.Failovers - b.fleet.Failovers)
		m["cluster.proxy_errors"] = float64(a.fleet.ProxyErrors - b.fleet.ProxyErrors)
		var most, sum float64
		for w := range a.perWorker {
			d := a.perWorker[w] - b.perWorker[w]
			sum += d
			if d > most {
				most = d
			}
		}
		m["cluster.worker_skew"] = ratio(most, sum/float64(len(a.perWorker)))
	}
	eng.metrics(m)
	if err := replay(ctx, in, gen, p.timed, expected, m); err != nil {
		return nil, err
	}
	return m, nil
}

// replaySample bounds how many recorded inputs each replay calls.
const replaySample = 256

// replay calls each layer's public function on the recorded inputs,
// single-threaded, and records the mean µs per call (median of three
// passes).
func replay(ctx context.Context, in *inputs, gen func(int64) call, outs []outcome, expected []*server.SimResult, m map[string]float64) error {
	var reqs []server.SimRequest
	var bodies [][]byte
	var results []*server.SimResult
	var docs []int
	var parsed []*scenario.Document
	for i, o := range outs {
		c := callOf(in, gen, o)
		if c.kind == kindScenario {
			if len(docs) < replaySample/4 {
				doc, errs := scenario.Parse(in.names[c.member], in.docs[c.member])
				if len(errs) > 0 {
					return errs[0]
				}
				docs = append(docs, c.member)
				parsed = append(parsed, doc)
			}
			continue
		}
		if len(reqs) == replaySample || expected[i] == nil {
			continue
		}
		body, err := json.Marshal(c.req)
		if err != nil {
			return err
		}
		reqs = append(reqs, c.req)
		bodies = append(bodies, body)
		results = append(results, expected[i])
	}
	timeEach := func(name string, n int, f func(i int) error) error {
		if n == 0 {
			return nil
		}
		var passes []float64
		for pass := 0; pass < 3; pass++ {
			start := time.Now()
			for i := 0; i < n; i++ {
				if err := f(i); err != nil {
					return fmt.Errorf("replaying %s: %w", name, err)
				}
			}
			passes = append(passes, micros(time.Since(start))/float64(n))
		}
		m[name] = median(passes)
		return nil
	}
	steps := []struct {
		name string
		n    int
		f    func(i int) error
	}{
		{"server.decode_us", len(bodies), func(i int) error {
			var r server.SimRequest
			return json.Unmarshal(bodies[i], &r)
		}},
		{"server.validate_us", len(reqs), func(i int) error { return reqs[i].Validate() }},
		{"server.config_us", len(reqs), func(i int) error { _, err := reqs[i].Config(); return err }},
		{"server.key_us", len(reqs), func(i int) error { _, err := server.ScenarioKey(&reqs[i]); return err }},
		{"server.encode_us", len(results), func(i int) error { _, err := json.Marshal(results[i]); return err }},
		{"scenario.parse_us", len(docs), func(i int) error {
			if _, errs := scenario.Parse(in.names[docs[i]], in.docs[docs[i]]); len(errs) > 0 {
				return errs[0]
			}
			return nil
		}},
		{"scenario.execute_us", len(parsed), func(i int) error {
			_, err := scenario.Execute(ctx, parsed[i])
			return err
		}},
	}
	for _, s := range steps {
		if err := timeEach(s.name, s.n, s.f); err != nil {
			return err
		}
	}
	return nil
}

// gridLayers derives the per-layer metrics of a traced grid run.
func gridLayers(r *gridRun, nproc int) map[string]float64 {
	m := map[string]float64{}
	var eng engineStats
	var busy time.Duration
	for _, c := range r.cells {
		d := c.end - c.start
		busy += d
		eng.add(c.policy, d, c.decisions, c.lp)
	}
	eng.metrics(m)
	var wall, serial time.Duration
	for _, p := range r.passes {
		wall += p.to.Sub(p.from)
		serial += p.serial
	}
	m["experiment.cells"] = float64(len(r.cells)) / float64(len(r.passes))
	m["experiment.worker_util"] = busy.Seconds() / (float64(nproc) * wall.Seconds())
	m["experiment.serial_share"] = serial.Seconds() / wall.Seconds()
	return m
}
