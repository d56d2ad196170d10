// Package rtm implements the real-time task model used throughout the
// library: periodic hard real-time tasks, their released jobs, task
// sets, and the synthetic task-set generators used by the evaluation
// (UUniFast utilization splitting, log-uniform period selection) as
// well as the representative embedded benchmark task sets.
//
// Conventions:
//
//   - Time is a float64 in abstract "time units" (the benchmarks use
//     milliseconds). One unit of execution at full processor speed
//     (s = 1) performs one unit of work, so WCETs are expressed as
//     worst-case cycles normalized to the maximum frequency.
//   - Tasks are independent, fully preemptive, and periodic with the
//     first job of every task released at time zero (a synchronous
//     task set), matching the DATE 2002 system model.
//   - Relative deadlines default to the period (implicit deadlines)
//     but constrained deadlines (D <= T) are supported everywhere.
package rtm

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Task is a periodic hard real-time task.
//
// The zero value is not a valid task; use the composite literal form
// or NewTask, and call Validate (directly or through TaskSet.Validate)
// before simulating.
type Task struct {
	// Name identifies the task in traces and reports. Optional; the
	// task index is used when empty.
	Name string `json:"name,omitempty"`

	// WCET is the worst-case execution time in work units at full
	// speed (equivalently, worst-case cycles normalized to the
	// maximum frequency). Must be positive and no larger than
	// Deadline.
	WCET float64 `json:"wcet"`

	// Period is the (fixed) inter-release separation. Must be
	// positive.
	Period float64 `json:"period"`

	// Deadline is the relative deadline. Zero means "equal to
	// Period" (implicit deadline); otherwise it must satisfy
	// WCET <= Deadline <= Period.
	Deadline float64 `json:"deadline,omitempty"`

	// Jitter is the maximum release delay: job k is released at
	// k·Period + j with j drawn from [0, Jitter], and its absolute
	// deadline follows the *actual* release. Zero (the default)
	// gives the strictly periodic model of the paper; positive
	// values model the "dynamic workload" arrival noise. Must
	// satisfy 0 <= Jitter <= Period. See the package documentation
	// of internal/core for which policies retain their hard
	// guarantee under jitter.
	Jitter float64 `json:"jitter,omitempty"`
}

// NewTask returns an implicit-deadline task.
func NewTask(name string, wcet, period float64) Task {
	return Task{Name: name, WCET: wcet, Period: period}
}

// RelDeadline returns the effective relative deadline (Period when the
// Deadline field is zero).
func (t Task) RelDeadline() float64 {
	if t.Deadline == 0 {
		return t.Period
	}
	return t.Deadline
}

// Utilization returns WCET/Period.
func (t Task) Utilization() float64 { return t.WCET / t.Period }

// Density returns WCET/min(Deadline, Period).
func (t Task) Density() float64 { return t.WCET / math.Min(t.RelDeadline(), t.Period) }

// Validate reports whether the task parameters are self-consistent.
func (t Task) Validate() error {
	switch {
	case !(t.WCET > 0) || math.IsInf(t.WCET, 0):
		return fmt.Errorf("rtm: task %q: WCET must be positive and finite, got %v", t.Name, t.WCET)
	case !(t.Period > 0) || math.IsInf(t.Period, 0):
		return fmt.Errorf("rtm: task %q: period must be positive and finite, got %v", t.Name, t.Period)
	// NaN compares false against everything, so the range checks below
	// would silently pass it — reject explicitly.
	case math.IsNaN(t.Deadline), t.Deadline < 0:
		return fmt.Errorf("rtm: task %q: deadline must be non-negative, got %v", t.Name, t.Deadline)
	case t.Deadline != 0 && t.Deadline > t.Period:
		return fmt.Errorf("rtm: task %q: deadline %v exceeds period %v (only constrained deadlines are supported)", t.Name, t.Deadline, t.Period)
	case t.WCET > t.RelDeadline():
		return fmt.Errorf("rtm: task %q: WCET %v exceeds deadline %v", t.Name, t.WCET, t.RelDeadline())
	case math.IsNaN(t.Jitter), t.Jitter < 0, t.Jitter > t.Period:
		return fmt.Errorf("rtm: task %q: jitter %v out of [0, period]", t.Name, t.Jitter)
	}
	return nil
}

// String implements fmt.Stringer.
func (t Task) String() string {
	if t.Deadline != 0 && t.Deadline != t.Period {
		return fmt.Sprintf("%s(C=%g,T=%g,D=%g)", t.name(), t.WCET, t.Period, t.Deadline)
	}
	return fmt.Sprintf("%s(C=%g,T=%g)", t.name(), t.WCET, t.Period)
}

func (t Task) name() string {
	if t.Name == "" {
		return "task"
	}
	return t.Name
}

// TaskSet is an ordered collection of periodic tasks. The json tags
// are its wire form (see json.go).
type TaskSet struct {
	Name  string `json:"name,omitempty"`
	Tasks []Task `json:"tasks"`
}

// NewTaskSet builds a task set and assigns default names T1..Tn to
// unnamed tasks.
func NewTaskSet(name string, tasks ...Task) *TaskSet {
	ts := &TaskSet{Name: name, Tasks: append([]Task(nil), tasks...)}
	for i := range ts.Tasks {
		if ts.Tasks[i].Name == "" {
			ts.Tasks[i].Name = fmt.Sprintf("T%d", i+1)
		}
	}
	return ts
}

// N returns the number of tasks.
func (ts *TaskSet) N() int { return len(ts.Tasks) }

// Utilization returns the total worst-case utilization sum(Ci/Ti).
func (ts *TaskSet) Utilization() float64 {
	var u float64
	for _, t := range ts.Tasks {
		u += t.Utilization()
	}
	return u
}

// Density returns the total density sum(Ci/min(Di,Ti)).
func (ts *TaskSet) Density() float64 {
	var d float64
	for _, t := range ts.Tasks {
		d += t.Density()
	}
	return d
}

// MaxPeriod returns the largest task period (zero for an empty set).
func (ts *TaskSet) MaxPeriod() float64 {
	var m float64
	for _, t := range ts.Tasks {
		m = math.Max(m, t.Period)
	}
	return m
}

// MinPeriod returns the smallest task period (zero for an empty set).
func (ts *TaskSet) MinPeriod() float64 {
	if len(ts.Tasks) == 0 {
		return 0
	}
	m := ts.Tasks[0].Period
	for _, t := range ts.Tasks[1:] {
		m = math.Min(m, t.Period)
	}
	return m
}

// TotalWCET returns sum(Ci).
func (ts *TaskSet) TotalWCET() float64 {
	var c float64
	for _, t := range ts.Tasks {
		c += t.WCET
	}
	return c
}

// Validate checks every task and the set as a whole.
func (ts *TaskSet) Validate() error {
	if len(ts.Tasks) == 0 {
		return errors.New("rtm: task set is empty")
	}
	for i, t := range ts.Tasks {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("rtm: task %d: %w", i, err)
		}
	}
	return nil
}

// Hyperperiod returns the least common multiple of the task periods,
// and whether it could be determined exactly. Periods are scaled by
// powers of ten (up to a fixed precision) to integers before taking
// the LCM; irrational or overly precise periods, and LCMs that
// overflow int64, yield ok == false, in which case callers should fall
// back to a bounded simulation horizon.
func (ts *TaskSet) Hyperperiod() (h float64, ok bool) {
	if len(ts.Tasks) == 0 {
		return 0, false
	}
	// Find a common decimal scale that makes every period integral.
	const maxScale = 1e6
	scale := 1.0
	for _, t := range ts.Tasks {
		for scale <= maxScale && !isIntegral(t.Period*scale) {
			scale *= 10
		}
		if !isIntegral(t.Period * scale) {
			return 0, false
		}
	}
	l := int64(1)
	for _, t := range ts.Tasks {
		p := int64(math.Round(t.Period * scale))
		var over bool
		l, over = lcm64(l, p)
		if over {
			return 0, false
		}
	}
	return float64(l) / scale, true
}

// isIntegral reports whether v is (very nearly) an integer small
// enough to be exactly representable.
func isIntegral(v float64) bool {
	if v < 0 || v > 1e15 {
		return false
	}
	return math.Abs(v-math.Round(v)) < 1e-9
}

// gcd64 returns the greatest common divisor of a and b (both > 0).
func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// lcm64 returns the least common multiple of a and b, and whether the
// computation overflowed int64.
func lcm64(a, b int64) (l int64, overflow bool) {
	if a == 0 || b == 0 {
		return 0, false
	}
	g := gcd64(a, b)
	q := a / g
	if q > math.MaxInt64/b {
		return 0, true
	}
	return q * b, false
}

// SortedByPeriod returns a copy of the task set with tasks ordered by
// increasing period (rate-monotonic order).
func (ts *TaskSet) SortedByPeriod() *TaskSet {
	out := NewTaskSet(ts.Name, ts.Tasks...)
	sort.SliceStable(out.Tasks, func(i, j int) bool {
		return out.Tasks[i].Period < out.Tasks[j].Period
	})
	return out
}

// Scale returns a copy with every WCET multiplied by k, e.g. to adjust
// utilization while keeping periods.
func (ts *TaskSet) Scale(k float64) *TaskSet {
	out := NewTaskSet(ts.Name, ts.Tasks...)
	for i := range out.Tasks {
		out.Tasks[i].WCET *= k
	}
	return out
}

// ScaleToUtilization returns a copy whose worst-case utilization is
// exactly u (WCETs scaled proportionally).
func (ts *TaskSet) ScaleToUtilization(u float64) *TaskSet {
	cur := ts.Utilization()
	if cur <= 0 {
		return NewTaskSet(ts.Name, ts.Tasks...)
	}
	return ts.Scale(u / cur)
}
