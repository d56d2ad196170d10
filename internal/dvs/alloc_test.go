package dvs

import (
	"math"
	"testing"

	"dvsslack/internal/cpu"
	"dvsslack/internal/rtm"
	"dvsslack/internal/sim"
)

// allocSystem is a minimal sim.System with fixed answers, so repeated
// decisions take the identical code path (the baseline policies'
// counterpart of internal/core's allocation guards).
type allocSystem struct {
	ts   *rtm.TaskSet
	proc *cpu.Processor
	now  float64
	jobs []*sim.JobState
}

func (s *allocSystem) TaskSet() *rtm.TaskSet       { return s.ts }
func (s *allocSystem) Processor() *cpu.Processor   { return s.proc }
func (s *allocSystem) Now() float64                { return s.now }
func (s *allocSystem) ActiveJobs() []*sim.JobState { return s.jobs }
func (s *allocSystem) NextReleaseOf(i int) float64 { return s.ts.Tasks[i].Period }
func (s *allocSystem) NextDecisionBound() float64  { return s.NextRelease() }
func (s *allocSystem) NextRelease() float64 {
	nr := math.Inf(1)
	for _, t := range s.ts.Tasks {
		nr = math.Min(nr, t.Period)
	}
	return nr
}

// TestLAEDFSelectSpeedZeroSteadyStateAllocs: once its plan scratch has
// grown to the task count, a look-ahead decision allocates nothing.
func TestLAEDFSelectSpeedZeroSteadyStateAllocs(t *testing.T) {
	ts := rtm.MustGenerate(rtm.DefaultGenConfig(12, 0.8, 2))
	sys := &allocSystem{ts: ts, proc: cpu.Continuous(0.1), now: 1}
	p := &LAEDF{}
	p.Reset(sys)
	for i := 0; i < ts.N()/2; i++ {
		j := &sim.JobState{Job: ts.JobOf(i, 0)}
		sys.jobs = append(sys.jobs, j)
		p.OnRelease(j)
	}
	j := sys.jobs[0]
	if s := p.SelectSpeed(j); !(s > 0 && s < 1) {
		t.Fatalf("SelectSpeed = %v: the fixture must reach the look-ahead plan", s)
	}
	allocs := testing.AllocsPerRun(100, func() { p.SelectSpeed(j) })
	if allocs != 0 {
		t.Errorf("laEDF SelectSpeed allocates %v per call in steady state, want 0", allocs)
	}
}
