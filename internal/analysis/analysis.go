// Package analysis implements classical schedulability analysis for
// the periodic task model: the EDF utilization bound, the processor
// demand criterion for constrained deadlines, synchronous busy-period
// computation, and the demand bound function itself, which is also the
// mathematical foundation of the slack-time analysis in
// internal/core.
package analysis

import (
	"math"
	"sort"

	"dvsslack/internal/rtm"
)

// DemandBound returns the synchronous demand bound function
// dbf(t) = sum_i max(0, floor((t - Di)/Ti) + 1) * Ci: the cumulative
// worst-case work of all jobs that are both released and due within
// [0, t] when every task releases its first job at time zero.
func DemandBound(ts *rtm.TaskSet, t float64) float64 {
	var d float64
	for _, task := range ts.Tasks {
		di := task.RelDeadline()
		if t < di {
			continue
		}
		n := math.Floor((t-di)/task.Period) + 1
		d += n * task.WCET
	}
	return d
}

// EDFSchedulable reports whether the task set is schedulable by
// preemptive EDF on a unit-speed processor.
//
// For implicit deadlines this is the exact utilization test U <= 1
// (Liu & Layland). For constrained deadlines it applies the processor
// demand criterion (Baruah, Rosier, Howell): dbf(t) <= t for every
// absolute deadline t up to the analysis bound
// min(hyperperiod, max(Dmax, La)) where La is the standard
// busy-period-style bound sum((Ti - Di) Ui) / (1 - U).
func EDFSchedulable(ts *rtm.TaskSet) bool {
	u := ts.Utilization()
	if u > 1+1e-12 {
		return false
	}
	implicit := true
	for _, t := range ts.Tasks {
		if t.RelDeadline() < t.Period {
			implicit = false
			break
		}
	}
	if implicit {
		return true
	}
	bound := demandCheckBound(ts, u)
	for _, t := range CheckPoints(ts, bound) {
		if DemandBound(ts, t) > t+1e-9 {
			return false
		}
	}
	return true
}

// demandCheckBound returns the time bound up to which dbf(t) <= t must
// be verified for constrained-deadline EDF schedulability.
func demandCheckBound(ts *rtm.TaskSet, u float64) float64 {
	var dmax, la float64
	for _, t := range ts.Tasks {
		dmax = math.Max(dmax, t.RelDeadline())
		la += (t.Period - t.RelDeadline()) * t.Utilization()
	}
	bound := dmax
	if u < 1 {
		bound = math.Max(dmax, la/(1-u))
	}
	if h, ok := ts.Hyperperiod(); ok && h < bound {
		bound = h
	}
	// With U == 1 and no usable La bound, fall back to one
	// hyperperiod (exact for synchronous sets) or a generous
	// multiple of the largest period.
	if u >= 1 {
		if h, ok := ts.Hyperperiod(); ok {
			bound = h
		} else {
			bound = 1000 * ts.MaxPeriod()
		}
	}
	return bound
}

// CheckPoints returns the sorted list of absolute deadlines in (0,
// bound] of the synchronous arrival pattern: the only points where
// dbf can step, hence the only points that need checking. The k-th
// deadline of a task is computed as D + k·T, as largestDeadlineBelow
// does, not by summing T k times: a summed deadline can land an ulp
// below D + k·T, where DemandBound's floor counts one job too few and
// an infeasible set passes.
func CheckPoints(ts *rtm.TaskSet, bound float64) []float64 {
	var pts []float64
	for _, task := range ts.Tasks {
		d0 := task.RelDeadline()
		for k := 0; ; k++ {
			d := d0 + float64(k)*task.Period
			if d > bound {
				break
			}
			pts = append(pts, d)
		}
	}
	sortFloats(pts)
	return dedupFloats(pts)
}

// BusyPeriod returns the length of the synchronous processor busy
// period: the smallest t > 0 with W(t) = t where
// W(t) = sum(ceil(t/Ti) Ci), computed by fixed-point iteration. The
// second result is false when U >= 1 (the busy period may be
// unbounded); in that case the hyperperiod is returned if known.
func BusyPeriod(ts *rtm.TaskSet) (float64, bool) {
	u := ts.Utilization()
	if u >= 1 {
		if h, ok := ts.Hyperperiod(); ok {
			return h, false
		}
		return math.Inf(1), false
	}
	t := ts.TotalWCET()
	for i := 0; i < 10000; i++ {
		var w float64
		for _, task := range ts.Tasks {
			w += math.Ceil(t/task.Period) * task.WCET
		}
		if math.Abs(w-t) < 1e-9 {
			return t, true
		}
		t = w
	}
	return t, true
}

// MinConstantSpeed returns the slowest constant processor speed at
// which the task set remains EDF-schedulable, assuming every job runs
// to its WCET: for implicit deadlines this is exactly the worst-case
// utilization; for constrained deadlines it is the maximum over check
// points of dbf(t)/t.
func MinConstantSpeed(ts *rtm.TaskSet) float64 {
	u := ts.Utilization()
	implicit := true
	for _, t := range ts.Tasks {
		if t.RelDeadline() < t.Period {
			implicit = false
			break
		}
	}
	if implicit {
		return u
	}
	s := u
	bound := demandCheckBound(ts, u)
	for _, t := range CheckPoints(ts, bound) {
		if t > 0 {
			s = math.Max(s, DemandBound(ts, t)/t)
		}
	}
	return s
}

func sortFloats(v []float64) { sort.Float64s(v) }

func dedupFloats(v []float64) []float64 {
	if len(v) == 0 {
		return v
	}
	out := v[:1]
	for _, x := range v[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}
