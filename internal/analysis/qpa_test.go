package analysis

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dvsslack/internal/prng"
	"dvsslack/internal/rtm"
)

func TestQPAKnownCases(t *testing.T) {
	cases := []struct {
		name string
		ts   *rtm.TaskSet
		want bool
	}{
		{"implicit feasible", rtm.NewTaskSet("x",
			rtm.Task{WCET: 1, Period: 4},
			rtm.Task{WCET: 2, Period: 6}), true},
		{"overloaded", rtm.NewTaskSet("x",
			rtm.Task{WCET: 3, Period: 4},
			rtm.Task{WCET: 2, Period: 6}), false},
		{"constrained infeasible", rtm.NewTaskSet("x",
			rtm.Task{WCET: 2, Period: 10, Deadline: 3},
			rtm.Task{WCET: 2, Period: 10, Deadline: 3}), false},
		{"constrained feasible", rtm.NewTaskSet("x",
			rtm.Task{WCET: 1, Period: 10, Deadline: 3},
			rtm.Task{WCET: 2, Period: 10, Deadline: 3}), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := QPA(c.ts); got != c.want {
				t.Errorf("QPA = %v, want %v", got, c.want)
			}
		})
	}
}

// constrainedSet draws a random constrained-deadline task set: n
// tasks at utilization u from rtm.Generate, deadlines tightened
// randomly into [WCET, T].
func constrainedSet(seed uint64, nRaw, uRaw uint8) (*rtm.TaskSet, error) {
	n := 1 + int(nRaw)%8
	u := 0.3 + 0.7*float64(uRaw)/255
	ts, err := rtm.Generate(rtm.DefaultGenConfig(n, u, seed))
	if err != nil {
		return nil, err
	}
	src := prng.New(seed ^ 0x51)
	for i := range ts.Tasks {
		task := &ts.Tasks[i]
		task.Deadline = task.WCET + src.Float64()*(task.Period-task.WCET)
	}
	return ts, nil
}

// TestQPAMatchesCheckpointScan is the defining property: QPA and the
// exhaustive processor-demand scan agree on every random
// constrained-deadline task set. The seed is fixed so a failure
// reproduces.
func TestQPAMatchesCheckpointScan(t *testing.T) {
	f := func(seed uint64, nRaw, uRaw uint8) bool {
		ts, err := constrainedSet(seed, nRaw, uRaw)
		if err != nil {
			return false
		}
		return QPA(ts) == EDFSchedulable(ts)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestSummedDeadlineInfeasible pins an input on which the checkpoint
// scan once disagreed with QPA. The set (C,T,D) ≈ (10.184, 80,
// 60.654), (24.060, 200, 84.454), (513.578, 1000, 693.482) is
// infeasible: dbf(700.654) = 9·10.184 + 4·24.060 + 513.578 = 701.473.
// Summing T eight times onto task 1's deadline gave a checkpoint just
// below D + 8·T, where the demand bound counted 8 of its jobs, not 9.
func TestSummedDeadlineInfeasible(t *testing.T) {
	ts, err := constrainedSet(0x4485d3543d865ff1, 0x92, 0xa8)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts.Tasks) != 3 || math.Abs(ts.Tasks[0].Deadline-60.654) > 1e-3 {
		t.Fatalf("generator drifted: %+v", ts.Tasks)
	}
	if QPA(ts) {
		t.Error("QPA = true, want false")
	}
	if EDFSchedulable(ts) {
		t.Error("EDFSchedulable = true, want false")
	}
	d := ts.Tasks[0].Deadline + 8*ts.Tasks[0].Period
	if h := DemandBound(ts, d); h <= d {
		t.Errorf("dbf(%v) = %v, want > t", d, h)
	}
}

func TestLargestDeadlineBelow(t *testing.T) {
	ts := rtm.NewTaskSet("x",
		rtm.Task{WCET: 1, Period: 4},               // deadlines 4, 8, 12...
		rtm.Task{WCET: 1, Period: 10, Deadline: 7}, // deadlines 7, 17, 27...
	)
	cases := []struct{ limit, want float64 }{
		{20, 17},
		{17, 16},
		{8, 7},
		{7, 4},
		{4, 0},
		{3, 0},
	}
	for _, c := range cases {
		if got := largestDeadlineBelow(ts, c.limit); got != c.want {
			t.Errorf("largestDeadlineBelow(%v) = %v, want %v", c.limit, got, c.want)
		}
	}
}
