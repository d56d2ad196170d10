package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"sync"
	"sync/atomic"

	"dvsslack/internal/scenario"
	"dvsslack/internal/server"
	"dvsslack/internal/sim"
)

// Output checks run after the timed phase, in-process and without the
// request path: a Simulate response must equal
// server.ResultFromSim(sim.Run(cfg)) for its request (wall_ns and
// cached aside), and a scenario verdict must equal the bytes of
// scenario.Execute(...).JSON() for its document.

// expect computes the response a request must get.
func expect(req server.SimRequest) (server.SimResult, error) {
	cfg, err := req.Config()
	if err != nil {
		return server.SimResult{}, err
	}
	res, err := sim.Run(cfg)
	if err != nil {
		return server.SimResult{}, err
	}
	return server.ResultFromSim(res), nil
}

// verdictSums returns the SHA-256 of every corpus document's verdict.
func verdictSums(ctx context.Context, in *inputs) ([][sha256.Size]byte, error) {
	sums := make([][sha256.Size]byte, len(in.docs))
	for i, b := range in.docs {
		doc, errs := scenario.Parse(in.names[i], b)
		if len(errs) > 0 {
			return nil, fmt.Errorf("scenario %s: %v", in.names[i], errs[0])
		}
		v, err := scenario.Execute(ctx, doc)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", in.names[i], err)
		}
		sums[i] = sha256.Sum256(v.JSON())
	}
	return sums, nil
}

// callOf rebuilds the call behind an outcome. Fresh calls are
// freshCall(idx) on every workload (cache fills included); hot-set
// priming calls carry negative indices; the rest are gen(idx).
func callOf(in *inputs, gen func(int64) call, o outcome) call {
	switch {
	case o.kind == kindFresh:
		return in.freshCall(o.idx)
	case o.idx < 0:
		return in.hotCall(int(-1 - o.idx))
	}
	return gen(o.idx)
}

// checkServer checks every outcome against its expected response,
// nproc at a time. It returns the number of outcomes that failed or
// mismatched and, for each outcome of a Simulate call, the expected
// result (nil unless keep is set; the traced run reads decisions and
// policy counters from it).
func checkServer(ctx context.Context, in *inputs, gen func(int64) call, outs []outcome, nproc int, keep bool) (int, []*server.SimResult, error) {
	verdicts, err := verdictSums(ctx, in)
	if err != nil {
		return 0, nil, err
	}
	var hot [hotSetSize]struct {
		once sync.Once
		sum  [sha256.Size]byte
		res  server.SimResult
		err  error
	}
	var kept []*server.SimResult
	if keep {
		kept = make([]*server.SimResult, len(outs))
	}
	var (
		failed, next atomic.Int64
		firstErr     error
		errOnce      sync.Once
		wg           sync.WaitGroup
	)
	wg.Add(nproc)
	for w := 0; w < nproc; w++ {
		go func() {
			defer wg.Done()
			fp := &fingerprinter{}
			for {
				i := int(next.Add(1) - 1)
				if i >= len(outs) {
					return
				}
				o := outs[i]
				c := callOf(in, gen, o)
				var want [sha256.Size]byte
				var res server.SimResult
				var err error
				switch c.kind {
				case kindScenario:
					want = verdicts[c.member]
				case kindHot:
					h := &hot[c.member]
					h.once.Do(func() {
						h.res, h.err = expect(c.req)
						h.sum = fp.simResult(&h.res)
					})
					want, res, err = h.sum, h.res, h.err
				default:
					res, err = expect(c.req)
					want = fp.simResult(&res)
				}
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
				if o.failed || o.sum != want {
					failed.Add(1)
				}
				if keep && c.kind != kindScenario {
					r := res
					kept[i] = &r
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return 0, nil, fmt.Errorf("computing expected results: %w", firstErr)
	}
	return int(failed.Load()), kept, nil
}
