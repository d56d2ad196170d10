package main

import (
	"fmt"
	"os"
	"path/filepath"

	"dvsslack/internal/experiment"
	"dvsslack/internal/policies"
	"dvsslack/internal/rtm"
	"dvsslack/internal/scenario"
	"dvsslack/internal/server"
)

// Every input is a pure function of the run seed and the call index,
// so a run can rebuild any request after the timed phase to check its
// response.

// splitmix64 is the SplitMix64 finaliser: a bijective 64-bit mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Call kinds of the server workloads.
const (
	kindFresh    uint8 = iota // Simulate with a never-seen workload seed
	kindHot                   // Simulate drawn from the cached hot set
	kindScenario              // RunScenario with a corpus document
)

// hotSetSize is the number of distinct cached requests fleet-mixed
// draws its hits from.
const hotSetSize = 256

// call is one generated request.
type call struct {
	kind uint8
	req  server.SimRequest // kindFresh, kindHot
	// member is the hot-set member (kindHot) or the index into
	// inputs.docs (kindScenario).
	member int
}

// inputs generates the requests of one run.
type inputs struct {
	seed   uint64
	specs  []string       // policy specs of experiment.Suite, in order
	fresh  []*rtm.TaskSet // task sets fresh requests rotate over
	hotTS  []*rtm.TaskSet // task sets of the hot set: Quickstart and rtm.Benchmarks()
	docs   [][]byte       // scenario corpus documents, file order
	names  []string       // their file names
	order  []int          // seed-permuted rotation over docs
	seedHi uint64         // high bits of every workload seed of the run
}

func newInputs(seed uint64, scenarioDir string) (*inputs, error) {
	in := &inputs{
		seed:   seed,
		fresh:  []*rtm.TaskSet{rtm.Quickstart(), rtm.CNC(), rtm.Videophone()},
		hotTS:  append([]*rtm.TaskSet{rtm.Quickstart()}, rtm.Benchmarks()...),
		seedHi: splitmix64(seed) &^ (1<<32 - 1),
	}
	for _, name := range experiment.SuiteNames() {
		spec := policies.SpecOf(name)
		if spec == "" {
			return nil, fmt.Errorf("no policy spec for suite policy %q", name)
		}
		in.specs = append(in.specs, spec)
	}
	files, err := filepath.Glob(filepath.Join(scenarioDir, "*.yaml"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no scenario documents under %s", scenarioDir)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		if _, errs := scenario.Parse(f, b); len(errs) > 0 {
			return nil, fmt.Errorf("scenario %s: %v", f, errs[0])
		}
		in.docs = append(in.docs, b)
		in.names = append(in.names, filepath.Base(f))
	}
	in.order = in.permutation(len(in.docs), ^uint64(0))
	return in, nil
}

// permutation returns a Fisher–Yates shuffle of 0..n-1 drawn from the
// run seed and salt.
func (in *inputs) permutation(n int, salt uint64) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	x := splitmix64(in.seed ^ splitmix64(salt))
	for i := n - 1; i > 0; i-- {
		x = splitmix64(x)
		j := int(x % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Workload seeds of one run share their high word (drawn from the run
// seed); the low word is the call index times four plus a tag, so
// fresh, hot-set and set-up requests never repeat one another.
const (
	tagFresh = iota
	tagHot
	tagSetup
)

// simRequest builds a uniform[0.3,1] request.
func (in *inputs) simRequest(ts *rtm.TaskSet, spec string, idx int64, tag uint64) server.SimRequest {
	return server.SimRequest{
		TaskSet:  ts,
		Policy:   spec,
		Workload: server.WorkloadSpec{Kind: "uniform", Lo: 0.3, Hi: 1, Seed: in.seedHi | (uint64(idx)<<2|tag)&(1<<32-1)},
	}
}

// freshCall is request i of api-fresh: it rotates over the three
// fresh task sets × the suite, each with a seed no other call uses.
func (in *inputs) freshCall(i int64) call {
	combo := int(i % int64(len(in.fresh)*len(in.specs)))
	ts := in.fresh[combo/len(in.specs)]
	spec := in.specs[combo%len(in.specs)]
	return call{kind: kindFresh, req: in.simRequest(ts, spec, i, tagFresh)}
}

// setupCall is the request that ends set-up number s on a fleet.
func (in *inputs) setupCall(s int) server.SimRequest {
	return in.simRequest(in.fresh[0], in.specs[0], int64(s), tagSetup)
}

// hotCall is member k of the hot set: the four task sets × the suite
// × eight workload seeds.
func (in *inputs) hotCall(k int) call {
	per := hotSetSize / len(in.hotTS)
	ts := in.hotTS[k/per]
	spec := in.specs[(k%per)/(per/len(in.specs))]
	return call{kind: kindHot, req: in.simRequest(ts, spec, int64(k), tagHot), member: k}
}

// mixedCall is request i of fleet-mixed. Each block of ten calls holds
// exactly seven hot-set hits, two fresh runs and one scenario, in a
// seed-drawn order, so every seed gives the same mix.
func (in *inputs) mixedCall(i int64) call {
	block := i / 10
	slot := in.permutation(10, uint64(block))[i%10]
	switch {
	case slot < 7:
		k := int(splitmix64(in.seed^splitmix64(uint64(i))^0x5bd1e995) % hotSetSize)
		return in.hotCall(k)
	case slot < 9:
		return in.freshCall(i)
	default:
		return call{kind: kindScenario, member: in.order[int(block%int64(len(in.order)))]}
	}
}
