package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dvsslack/internal/experiment"
	"dvsslack/internal/sim"
)

// gridFigures are the paper figures the grid workload reproduces.
var gridFigures = []string{"f3", "f5", "f8"}

// gridSeed0 is the experiment seed every grid run uses: the paper's
// own task sets, as cmd/dvsexp draws them by default. The work of a
// pass moves by ±20% with Seed0 (1.7M to 2.5M engine decisions over
// Seed0 0..9000), which would swamp any change a later commit makes;
// the run seed instead orders the figures within each pass.
const gridSeed0 = 0

// Policies a cell record tells apart (the in-run lpSHE ÷ nonDVS ratio
// needs both).
const (
	polOther uint8 = iota
	polLpSHE
	polNonDVS
)

// cell is one simulation cell of a grid pass, as the Exec wrapper saw
// it. It holds no pointers, so a run can keep cells off the Go heap.
type cell struct {
	start, end time.Duration // since epoch
	decisions  int
	lp         lpCounters // lpSHE cells of traced runs only
	pass       int32
	policy     uint8
}

// lpCounters are the lpSHE PolicyCounters the per-layer metrics read.
type lpCounters struct {
	fastPath, decisions, slackCalls, slackScanned float64
}

func lpCountersOf(c map[string]float64) lpCounters {
	return lpCounters{c["decision_fast_path"], c["decisions"], c["slack_calls"], c["slack_scanned"]}
}

// gridCells is the off-heap room for a run's cells: about 170 passes.
const gridCells = 1 << 19

// gridPass is one pass over gridFigures.
type gridPass struct {
	from, to time.Time
	cells    int
	serial   time.Duration // time with no cell in flight after a fan-out finished
	reports  [][]byte      // printed report per figure, in gridFigures order
}

// gridRecorder is the experiment.Options Exec and Progress hooks of a
// grid run.
type gridRecorder struct {
	traced bool
	mu     sync.Mutex
	pass   int32
	cells  *offHeap[cell]
	full   bool      // cells ran out of room
	idle   time.Time // when the last fan-out finished; zero while cells run
	serial time.Duration
}

func (g *gridRecorder) exec(cfg sim.Config) (sim.Result, error) {
	now := time.Now()
	start := sinceEpoch()
	res, err := sim.Run(cfg)
	c := cell{start: start, end: sinceEpoch(), decisions: res.Decisions}
	switch res.Policy {
	case "lpSHE":
		c.policy = polLpSHE
		if g.traced {
			c.lp = lpCountersOf(res.PolicyCounters)
		}
	case "nonDVS":
		c.policy = polNonDVS
	}
	g.mu.Lock()
	c.pass = g.pass
	if !g.cells.add(c) {
		g.full = true
	}
	if !g.idle.IsZero() {
		if now.After(g.idle) {
			g.serial += now.Sub(g.idle)
		}
		g.idle = time.Time{}
	}
	g.mu.Unlock()
	return res, err
}

func (g *gridRecorder) progress(done, total int) {
	if done != total {
		return
	}
	g.mu.Lock()
	g.idle = time.Now()
	g.mu.Unlock()
}

// runPass runs every figure once with nproc workers, in the order
// given as indices into gridFigures.
func (g *gridRecorder) runPass(order []int, nproc int) (gridPass, error) {
	p := gridPass{from: time.Now(), reports: make([][]byte, len(gridFigures))}
	g.mu.Lock()
	n0 := len(g.cells.recs)
	g.idle, g.serial = p.from, 0
	g.mu.Unlock()
	for _, f := range order {
		rep, err := experiment.Run(gridFigures[f], experiment.Options{Seed0: gridSeed0, Workers: nproc, Exec: g.exec, Progress: g.progress})
		if err != nil {
			return p, fmt.Errorf("grid %s: %w", gridFigures[f], err)
		}
		var b bytes.Buffer
		rep.Print(&b)
		p.reports[f] = b.Bytes()
	}
	p.to = time.Now()
	g.mu.Lock()
	if !g.idle.IsZero() {
		g.serial += p.to.Sub(g.idle)
	}
	p.serial, p.cells = g.serial, len(g.cells.recs)-n0
	g.pass++
	g.mu.Unlock()
	return p, nil
}

var errSetupDone = errors.New("set-up measured")

// gridSetup times experiment.Run from its call to its first completed
// fan-out: every cell of the first point of the first figure, the
// first result a dvsexp user can read. It then stops the run. (The
// first single cell completes within a few hundred µs, and which of
// two regimes of goroutine wake-up it lands in moved that time by 40%
// between identical runs.)
func gridSetup(nproc int) (float64, error) {
	var once sync.Once
	var first time.Duration
	var done atomic.Bool
	start := time.Now()
	_, err := experiment.Run(gridFigures[0], experiment.Options{Seed0: gridSeed0, Workers: nproc,
		Exec: func(cfg sim.Config) (sim.Result, error) {
			if done.Load() {
				return sim.Result{}, errSetupDone
			}
			return sim.Run(cfg)
		},
		Progress: func(n, total int) {
			if n == total {
				once.Do(func() { first = time.Since(start); done.Store(true) })
			}
		}})
	if err != nil && !errors.Is(err, errSetupDone) {
		return 0, err
	}
	if !done.Load() {
		return 0, fmt.Errorf("%s finished no fan-out", gridFigures[0])
	}
	return first.Seconds(), nil
}

// gridRun is what one run of the grid workload measured.
type gridRun struct {
	setup  []float64
	passes []gridPass
	cells  []cell // timed passes only
	mem    []memSample
	failed int
}

// runGrid warms up with one f3 run, then runs passes until dur has
// passed (at least one), and checks every report against a Workers: 1
// run of the same figure. With timeSetUps it times a block of set-ups
// before the warm-up and another after the passes.
func runGrid(ctx context.Context, in *inputs, nproc int, timeSetUps bool, dur time.Duration, traced bool) (*gridRun, error) {
	r := &gridRun{}
	setUps := func() error {
		if !timeSetUps {
			return nil
		}
		var err error
		r.setup, err = setUpBlock(r.setup, func(int) (float64, error) { return gridSetup(nproc) })
		if err != nil {
			return fmt.Errorf("grid set-up: %w", err)
		}
		return nil
	}
	if err := setUps(); err != nil {
		return nil, err
	}
	if _, err := experiment.Run(gridFigures[0], experiment.Options{Seed0: gridSeed0, Workers: nproc}); err != nil {
		return nil, fmt.Errorf("grid warm-up: %w", err)
	}
	cells, err := newOffHeap[cell](gridCells)
	if err != nil {
		return nil, err
	}
	g := &gridRecorder{traced: traced, cells: cells}
	mem := startMemSampler(memEvery)
	deadline := time.Now().Add(dur)
	for len(r.passes) == 0 || time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			mem.Stop()
			cells.release()
			return nil, err
		}
		mem.mark()
		p, err := g.runPass(in.permutation(len(gridFigures), uint64(len(r.passes))), nproc)
		mem.mark()
		if err == nil && g.full {
			err = fmt.Errorf("grid: more than %d cells", gridCells)
		}
		if err != nil {
			mem.Stop()
			cells.release()
			return nil, err
		}
		r.passes = append(r.passes, p)
	}
	r.mem = mem.Stop()
	r.cells = cells.release()
	if err := setUps(); err != nil {
		return nil, err
	}
	for i, id := range gridFigures {
		ref, err := experiment.Run(id, experiment.Options{Seed0: gridSeed0, Workers: 1})
		if err != nil {
			return nil, fmt.Errorf("grid reference %s: %w", id, err)
		}
		var want bytes.Buffer
		ref.Print(&want)
		for _, p := range r.passes {
			if !bytes.Equal(p.reports[i], want.Bytes()) {
				r.failed++
			}
		}
	}
	return r, nil
}
