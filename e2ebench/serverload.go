package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dvsslack/internal/obs"
	"dvsslack/internal/server"
)

// outcome is what the benchmark keeps of one completed call: enough to
// time it, place it in a round, and check its response afterwards. It
// holds no pointers, so a run can keep outcomes off the Go heap.
type outcome struct {
	idx    int64
	done   time.Duration // since epoch
	lat    time.Duration
	wall   int64             // wall_ns of the response (0 for cache hits and scenarios)
	sum    [sha256.Size]byte // fingerprint of the response
	kind   uint8
	failed bool
	cached bool
}

// fingerprinter hashes responses without allocating; one per client
// goroutine.
type fingerprinter struct {
	buf  []byte
	keys []string
}

// simResult hashes every field of r except wall_ns and cached, the
// audit violations by their count and the policy counters in key
// order.
func (f *fingerprinter) simResult(r *server.SimResult) [sha256.Size]byte {
	b := f.buf[:0]
	b = append(b, r.Policy...)
	b = append(b, 0)
	for _, v := range [...]float64{r.Time, r.Energy, r.BusyEnergy, r.IdleEnergy, r.SwitchEnergy, r.IdleTime, r.SleepTime, r.WorkDone} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	for _, v := range [...]int{r.JobsReleased, r.JobsCompleted, r.DeadlineMisses, r.SpeedSwitches, r.Preemptions, r.Decisions, r.Sleeps, len(r.Violations)} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	b = strconv.AppendBool(b, r.Audited)
	b = strconv.AppendBool(b, r.AuditTruncated)
	f.keys = f.keys[:0]
	for k := range r.PolicyCounters {
		f.keys = append(f.keys, k)
	}
	sort.Strings(f.keys)
	for _, k := range f.keys {
		b = append(b, k...)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.PolicyCounters[k]))
	}
	f.buf = b
	return sha256.Sum256(b)
}

// serverRun is one server workload on one stack.
type serverRun struct {
	in     *inputs
	st     *stack
	nproc  int
	spans  *spanLog // nil when untraced
	next   atomic.Int64
	prefix string // request-ID prefix of traced calls
}

// do makes call i of gen and records its outcome.
func (r *serverRun) do(ctx context.Context, gen func(int64) call, i int64, fp *fingerprinter) outcome {
	c := gen(i)
	o := outcome{idx: i, kind: c.kind}
	var id string
	if r.spans != nil {
		id = r.prefix + strconv.FormatInt(i, 10)
		ctx = obs.ContextWithRequestID(ctx, id)
	}
	start := sinceEpoch()
	var err error
	if c.kind == kindScenario {
		var verdict []byte
		verdict, err = r.st.cl.RunScenario(ctx, r.in.docs[c.member])
		o.done = sinceEpoch()
		o.sum = sha256.Sum256(verdict)
	} else {
		var res server.SimResult
		res, err = r.st.cl.Simulate(ctx, c.req)
		o.done = sinceEpoch()
		o.wall, o.cached = res.WallNanos, res.Cached
		o.sum = fp.simResult(&res)
	}
	o.lat = o.done - start
	o.failed = err != nil
	if r.spans != nil {
		r.spans.add(id, "client", o.lat)
	}
	return o
}

// clientRecords is the off-heap room for one client's outcomes in one
// loop: far more than a 60-second phase completes on two cores.
const clientRecords = 1 << 21

// loop runs the closed loop over gen: nproc clients, each sending its
// next call only after the previous one answered, until dur has
// passed. Calls of every loop of a run draw from one index sequence.
func (r *serverRun) loop(ctx context.Context, dur time.Duration, gen func(int64) call) ([]outcome, error) {
	per := make([]*offHeap[outcome], r.nproc)
	for c := range per {
		var err error
		if per[c], err = newOffHeap[outcome](clientRecords); err != nil {
			for _, p := range per[:c] {
				p.release()
			}
			return nil, err
		}
	}
	deadline := time.Now().Add(dur)
	var full atomic.Bool
	var wg sync.WaitGroup
	wg.Add(r.nproc)
	for c := 0; c < r.nproc; c++ {
		c := c
		go func() {
			defer wg.Done()
			fp := &fingerprinter{}
			for time.Now().Before(deadline) && ctx.Err() == nil {
				if !per[c].add(r.do(ctx, gen, r.next.Add(1)-1, fp)) {
					full.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	var all []outcome
	for _, p := range per {
		all = append(all, p.release()...)
	}
	if full.Load() {
		return nil, fmt.Errorf("more than %d calls per client", clientRecords)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sort.Slice(all, func(a, b int) bool { return all[a].idx < all[b].idx })
	return all, nil
}

// serverWorkload describes api-fresh or fleet-mixed.
type serverWorkload struct {
	name  string
	start func(nproc int, seed uint64, spans *spanLog) (*stack, error)
	gen   func(in *inputs) func(i int64) call
	// prime sends the calls a warm-up must make before the timed
	// phase (fleet-mixed caches its hot set); nil for none.
	prime func(ctx context.Context, r *serverRun) ([]outcome, error)
}

const fleetWorkers = 3

var apiFresh = serverWorkload{
	name:  "api-fresh",
	start: startDVSD,
	gen:   func(in *inputs) func(int64) call { return in.freshCall },
}

var fleetMixed = serverWorkload{
	name: "fleet-mixed",
	start: func(nproc int, seed uint64, spans *spanLog) (*stack, error) {
		return startFleet(fleetWorkers, nproc, seed, spans)
	},
	gen: func(in *inputs) func(int64) call { return in.mixedCall },
	prime: func(ctx context.Context, r *serverRun) ([]outcome, error) {
		fp := &fingerprinter{}
		var out []outcome
		for k := 0; k < hotSetSize; k++ {
			c := r.in.hotCall(k)
			res, err := r.st.cl.Simulate(ctx, c.req)
			if err != nil {
				return nil, fmt.Errorf("caching hot-set request %d: %w", k, err)
			}
			o := outcome{idx: -1 - int64(k), kind: kindHot, wall: res.WallNanos, cached: res.Cached}
			o.sum = fp.simResult(&res)
			out = append(out, o)
		}
		return out, nil
	},
}

// serverPhase is what one run of a server workload measured.
type serverPhase struct {
	setup    []float64 // seconds, one per start
	warm     []outcome // warm-up calls (checked, not timed)
	timed    []outcome
	from, to time.Time
	mem      []memSample
	before   counters
	after    counters
	retries  uint64
	spans    *spanLog
	prefix   string // request-ID prefix of traced calls
	st       *stack
}

// warmUp is the untimed load of the workload's own mix each server
// run sends before its phase.
const warmUp = 500 * time.Millisecond

// fillBatch is the load between two reads of the cache sizes while a
// run fills the result caches.
const fillBatch = 250 * time.Millisecond

// fill sends fresh calls until no dvsd's result cache grows any more.
// The timed phase then sees a long-running daemon's steady state, a
// full LRU that evicts as it inserts, instead of a heap that grows
// with however many requests the run happened to complete.
func (r *serverRun) fill(ctx context.Context) ([]outcome, error) {
	var out []outcome
	var prev []float64
	for {
		batch, err := r.loop(ctx, fillBatch, r.in.freshCall)
		if err != nil {
			return nil, err
		}
		out = append(out, batch...)
		c, err := r.st.read(ctx)
		if err != nil {
			return nil, err
		}
		if slices.Equal(c.entries, prev) {
			return out, nil
		}
		prev = c.entries
	}
}

// runServer sets w up, warms it up and drives it for dur. With
// timeSetUps it times a block of set-ups before the warm-up, the last
// of which serves the run, and another after the timed phase. Every
// stack is stopped before returning.
func runServer(ctx context.Context, w serverWorkload, in *inputs, nproc int, timeSetUps bool, dur time.Duration, traced bool) (*serverPhase, error) {
	p := &serverPhase{}
	if traced {
		p.spans = &spanLog{}
	}
	p.prefix = "b" + strconv.FormatUint(in.seed, 36) + "-"
	r := &serverRun{in: in, nproc: nproc, spans: p.spans, prefix: p.prefix}
	// setUps times a block of set-ups and stops every stack but the
	// last, which it returns running.
	setUps := func() (*stack, error) {
		var last *stack
		var err error
		p.setup, err = setUpBlock(p.setup, func(i int) (float64, error) {
			if last != nil {
				last.stop()
			}
			var s float64
			last, s, err = setUp(ctx, w, in, nproc, i, p.spans)
			return s, err
		})
		return last, err
	}
	var err error
	if timeSetUps {
		p.st, err = setUps()
	} else {
		p.st, _, err = setUp(ctx, w, in, nproc, 0, p.spans)
	}
	if err != nil {
		return nil, err
	}
	r.st = p.st
	running := p.st
	defer func() {
		if running != nil {
			running.stop()
		}
	}()
	out, err := r.fill(ctx)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	p.warm = out
	if w.prime != nil {
		out, err := w.prime(ctx, r)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		p.warm = append(p.warm, out...)
	}
	gen := w.gen(in)
	warm, err := r.loop(ctx, warmUp, gen)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	p.warm = append(p.warm, warm...)

	if p.before, err = p.st.read(ctx); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	retries0 := p.st.cl.RetryStats().Retries
	mem := startMemSampler(memEvery)
	p.from = time.Now()
	p.timed, err = r.loop(ctx, dur, gen)
	p.to = time.Now()
	p.mem = mem.Stop()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	p.retries = p.st.cl.RetryStats().Retries - retries0
	if p.after, err = p.st.read(ctx); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	running.stop()
	running = nil
	if timeSetUps {
		if running, err = setUps(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// setUp starts w and ends with its first op. It returns the running
// stack and the seconds that took.
func setUp(ctx context.Context, w serverWorkload, in *inputs, nproc, i int, spans *spanLog) (*stack, float64, error) {
	t0 := time.Now()
	st, err := w.start(nproc, in.seed, spans)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: start: %w", w.name, err)
	}
	if err := firstOp(ctx, st, in, i); err != nil {
		st.stop()
		return nil, 0, fmt.Errorf("%s: first op: %w", w.name, err)
	}
	return st, time.Since(t0).Seconds(), nil
}

// firstOp is the end of set-up: a health check on one dvsd, the first
// routed request on a fleet.
func firstOp(ctx context.Context, st *stack, in *inputs, s int) error {
	if st.coord == nil {
		return st.cl.Healthy(ctx)
	}
	_, err := st.cl.Simulate(ctx, in.setupCall(s))
	return err
}
