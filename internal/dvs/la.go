package dvs

import (
	"math"
	"sort"

	"dvsslack/internal/sim"
)

// LAEDF is look-ahead EDF (Pillai & Shin, SOSP 2001). Instead of
// provisioning the worst case immediately, it plans to defer as much
// work as possible to *after* the earliest deadline dₙ — each task's
// outstanding work is pushed as close to its own deadline as the
// spare capacity (1 − U) of the interval allows — and then runs at
// the minimum speed that completes the non-deferrable remainder by
// dₙ:
//
//	U ← ΣCᵢ/Tᵢ;  x_total ← 0
//	for each task i in order of latest deadline first:
//	    U ← U − Cᵢ/Tᵢ
//	    x ← max(0, cᵢ − (1 − U)·(dᵢ − dₙ))        // non-deferrable work
//	    U ← U + (cᵢ − x)/(dᵢ − dₙ)               // deferred share
//	    x_total ← x_total + x
//	s = x_total / (dₙ − now)
//
// where cᵢ is the remaining worst-case work of task i's current job
// (zero once it completed) and dᵢ its current deadline (the next
// job's deadline after completion). Tasks whose deadline equals dₙ
// contribute their entire remaining work. Speeds above 1 are clamped
// by the engine; Pillai & Shin show the fallback to full speed keeps
// every deadline.
//
// LAEDF is the most aggressive of the prior heuristics: it often
// runs slower than ccEDF early in a busy interval at the cost of
// higher speeds later ("pay later"), which the cubic power curve can
// penalize — exactly the effect the paper's exact slack analysis
// removes.
type LAEDF struct {
	sim.NopHooks
	sys sim.System

	// per-task dynamic state
	cLeft    []float64 // remaining WCET of the current job (0 after completion)
	deadline []float64 // absolute deadline of the current job

	plan laPlan // SelectSpeed's scratch, reused across decisions
}

// laEntry is one task's term in a look-ahead plan.
type laEntry struct {
	c, d, u float64
}

// laPlan orders a plan's entries latest deadline first. Sorting a
// named slice with sort.Sort keeps SelectSpeed free of sort.Slice's
// reflective swapper and closure; both run the same pdqsort, so ties
// land in the same order and results are bit-identical.
type laPlan []laEntry

func (p laPlan) Len() int           { return len(p) }
func (p laPlan) Less(a, b int) bool { return p[a].d > p[b].d }
func (p laPlan) Swap(a, b int)      { p[a], p[b] = p[b], p[a] }

// Name implements sim.Policy.
func (*LAEDF) Name() string { return "laEDF" }

// Reset implements sim.Policy.
func (p *LAEDF) Reset(sys sim.System) {
	p.sys = sys
	n := sys.TaskSet().N()
	p.cLeft = make([]float64, n)
	p.deadline = make([]float64, n)
	for i, t := range sys.TaskSet().Tasks {
		// Before the first release the "current job" is the one
		// about to arrive at its first release.
		p.cLeft[i] = 0
		p.deadline[i] = sys.NextReleaseOf(i) + t.RelDeadline()
	}
}

// OnRelease implements sim.Policy.
func (p *LAEDF) OnRelease(j *sim.JobState) {
	p.cLeft[j.TaskIndex] = j.WCET
	p.deadline[j.TaskIndex] = j.AbsDeadline
}

// OnComplete implements sim.Policy. The completed job's deadline is
// retained (with c_left = 0) until the task's next release, exactly
// as in Pillai & Shin's formulation: advancing it early would move
// the task's U subtraction forward in the defer loop and let the
// other tasks over-defer.
func (p *LAEDF) OnComplete(j *sim.JobState) {
	p.cLeft[j.TaskIndex] = 0
}

// OnAdvance implements sim.Policy: execution progress is pulled from
// the active jobs at selection time instead, so nothing to do here.

// SelectSpeed implements sim.Policy.
func (p *LAEDF) SelectSpeed(*sim.JobState) float64 {
	ts := p.sys.TaskSet()
	now := p.sys.Now()

	// Refresh remaining work from the live job states: preemptions
	// mean a job may have partially executed since its release hook.
	for _, job := range p.sys.ActiveJobs() {
		p.cLeft[job.TaskIndex] = job.RemainingWCET()
		p.deadline[job.TaskIndex] = job.AbsDeadline
	}

	entries := p.plan[:0]
	dn := math.Inf(1)
	for i, t := range ts.Tasks {
		e := laEntry{c: p.cLeft[i], d: p.deadline[i], u: t.Utilization()}
		if e.d <= now+sim.Eps {
			// A completed job's stale deadline: its work is done and
			// its window has passed; it contributes nothing and must
			// not shrink dn to the past. Skipping its U subtraction
			// keeps the deferral conservative.
			continue
		}
		entries = append(entries, e)
		if e.d < dn {
			dn = e.d
		}
	}
	p.plan = entries
	if math.IsInf(dn, 1) || !(dn > now) {
		return 1 // nothing to plan around: stay conservative
	}
	sort.Sort(&p.plan) // by pointer: a slice in an interface allocates

	u := ts.Utilization()
	var xTotal float64
	for _, e := range entries {
		u -= e.u
		if e.d <= dn+sim.Eps {
			// Work due at the earliest deadline cannot be deferred.
			xTotal += e.c
			continue
		}
		spare := (1 - u) * (e.d - dn)
		x := e.c - spare
		if x < 0 {
			x = 0
		}
		u += (e.c - x) / (e.d - dn)
		xTotal += x
	}
	if xTotal <= 0 {
		return 0 // engine clamps to the processor floor
	}
	return xTotal / (dn - now)
}
