package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"dvsslack/internal/cpu"
	"dvsslack/internal/policies"
	"dvsslack/internal/rtm"
)

// legacyTaskSet encodes a task set the way the key was defined: through
// a shadow copy and MarshalJSON, which writes an empty task list as
// null.
type legacyTaskSet rtm.TaskSet

func (ts *legacyTaskSet) MarshalJSON() ([]byte, error) {
	type taskJSON struct {
		Name     string  `json:"name,omitempty"`
		WCET     float64 `json:"wcet"`
		Period   float64 `json:"period"`
		Deadline float64 `json:"deadline,omitempty"`
		Jitter   float64 `json:"jitter,omitempty"`
	}
	out := struct {
		Name  string     `json:"name,omitempty"`
		Tasks []taskJSON `json:"tasks"`
	}{Name: ts.Name}
	for _, t := range ts.Tasks {
		out.Tasks = append(out.Tasks, taskJSON(t))
	}
	return json.Marshal(out)
}

// oracleForm is the canonical form as the key was first written:
// json.Marshal of the canonical struct, with the policy canonicalized
// by building it and mapping its display name back to a spec.
func oracleForm(r *SimRequest) ([]byte, error) {
	policy := ""
	if p, err := policies.New(r.Policy); err == nil {
		policy = policies.SpecOf(p.Name())
	}
	if policy == "" {
		policy = r.Policy
	}
	canon := struct {
		TaskSet    *legacyTaskSet
		Policy     string
		Processor  ProcessorSpec
		Workload   WorkloadSpec
		Horizon    float64
		JitterSeed uint64
		Strict     bool
		Audit      bool
	}{(*legacyTaskSet)(r.TaskSet), policy, r.Processor,
		r.Workload, r.Horizon, r.JitterSeed, r.Strict, r.Audit}
	return json.Marshal(canon)
}

// captureHash is a hash.Hash that keeps what it is fed, so a test can
// read the exact bytes a keyWriter hashes.
type captureHash struct{ bytes.Buffer }

func (*captureHash) Sum(b []byte) []byte { return b }
func (*captureHash) Size() int           { return 0 }
func (*captureHash) BlockSize() int      { return 1 }

// streamedForm returns the bytes ScenarioKey hashes for r.
func streamedForm(r *SimRequest) ([]byte, error) {
	h := &captureHash{}
	k := &keyWriter{appender: appender{h: h}}
	k.request(r)
	if k.bad {
		return nil, fmt.Errorf("unsupported value %v", k.badF)
	}
	h.Write(k.buf)
	return h.Bytes(), nil
}

var (
	keyStrings = []string{
		"", "t1", "golden", "<script>&amp;</script>", "a b c",
		"héllo wörld ✓ 日本", "quote\" back\\slash", "ctl\x00\x01\x1f\b\f\n\r\t\x7f",
		"bad\xffutf8\xc3", "edf", "lpshe", "line\u2028para\u2029end",
	}
	keyFloats = []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 1e-7, -1e-7, 1e-6, 9.99999e-7,
		1e20, 1e21, -1e21, 1.5e300, 5e-324, math.SmallestNonzeroFloat64,
		2.2250738585072014e-308, 1.2345e-310, 0.1, 1.0 / 3, 123456789.125, 1e-100,
	}
	keyPolicies = []string{
		"lpshe", "LPSHE", " greedy ", "lpshe-greedy", "edf", "nondvs", "ccEDF",
		"la", "dra", "fb", "lpshe+dual", "lpSHE+Guard+crit", "cc+ dual ",
		"", "bogus", "lpshe+bogus", "lpshe+", "<&> ", "héllo",
	}
)

func randFloat(rng *rand.Rand) float64 {
	if rng.IntN(3) == 0 {
		return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.IntN(40)-20))
	}
	return keyFloats[rng.IntN(len(keyFloats))]
}

// randomize sets every field of the struct v points to, by kind, so a
// field added to a spec later is covered (or fails the test) without
// editing the generator.
func randomize(t *testing.T, rng *rand.Rand, v reflect.Value) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if rng.IntN(3) == 0 {
			continue // leave the zero value: omitempty paths
		}
		switch f.Kind() {
		case reflect.String:
			f.SetString(keyStrings[rng.IntN(len(keyStrings))])
		case reflect.Float64:
			f.SetFloat(randFloat(rng))
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Uint64:
			f.SetUint([]uint64{1, 42, rng.Uint64(), math.MaxUint64}[rng.IntN(4)])
		case reflect.Pointer:
			if f.Type().Elem().Kind() != reflect.Float64 {
				t.Fatalf("no generator for field %s.%s of type %s", v.Type(), v.Type().Field(i).Name, f.Type())
			}
			p := reflect.New(f.Type().Elem())
			p.Elem().SetFloat(randFloat(rng)) // may be 0: non-nil pointers are never omitted
			f.Set(p)
		case reflect.Slice:
			n := rng.IntN(4) // 0 gives an empty, non-nil slice
			s := reflect.MakeSlice(f.Type(), n, n)
			for j := 0; j < n; j++ {
				switch e := s.Index(j); e.Kind() {
				case reflect.Float64:
					e.SetFloat(randFloat(rng))
				case reflect.Struct:
					randomize(t, rng, e)
				default:
					t.Fatalf("no generator for %s element %s", v.Type().Field(i).Name, e.Kind())
				}
			}
			f.Set(s)
		default:
			t.Fatalf("no generator for field %s.%s of kind %s", v.Type(), v.Type().Field(i).Name, f.Kind())
		}
	}
}

func randomRequest(t *testing.T, rng *rand.Rand) *SimRequest {
	r := &SimRequest{Policy: keyPolicies[rng.IntN(len(keyPolicies))]}
	switch rng.IntN(8) {
	case 0: // nil task set
	case 1:
		r.TaskSet = &rtm.TaskSet{Name: keyStrings[rng.IntN(len(keyStrings))]}
	case 2:
		r.TaskSet = &rtm.TaskSet{Tasks: []rtm.Task{}}
	default:
		r.TaskSet = &rtm.TaskSet{}
		if rng.IntN(2) == 0 {
			r.TaskSet.Name = keyStrings[rng.IntN(len(keyStrings))]
		}
		for n := 1 + rng.IntN(5); n > 0; n-- {
			var task rtm.Task
			randomize(t, rng, reflect.ValueOf(&task).Elem())
			r.TaskSet.Tasks = append(r.TaskSet.Tasks, task)
		}
	}
	randomize(t, rng, reflect.ValueOf(&r.Processor).Elem())
	randomize(t, rng, reflect.ValueOf(&r.Workload).Elem())
	if rng.IntN(2) == 0 {
		r.Horizon = randFloat(rng)
	}
	if rng.IntN(2) == 0 {
		r.JitterSeed = rng.Uint64()
	}
	r.Strict = rng.IntN(2) == 0
	r.Audit = rng.IntN(2) == 0
	return r
}

// TestScenarioKeyMatchesOracle is the differential test of the
// streamed encoder: on randomized requests covering every spec field,
// nil and empty task sets, escaping-sensitive names and the float
// format's edges, the bytes hashed equal json.Marshal of the canonical
// struct, and the key equals the oracle's hash.
func TestScenarioKeyMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 2028))
	for i := 0; i < 3000; i++ {
		r := randomRequest(t, rng)
		want, err := oracleForm(r)
		if err != nil {
			t.Fatalf("case %d: oracle: %v", i, err)
		}
		got, err := streamedForm(r)
		if err != nil {
			t.Fatalf("case %d: streamed: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("case %d: canonical forms differ\n got %s\nwant %s", i, got, want)
		}
		key, err := ScenarioKey(r)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(want)
		if key != hex.EncodeToString(sum[:]) {
			t.Fatalf("case %d: key %s is not the oracle form's hash", i, key)
		}
	}
}

// TestScenarioKeyLongForm crosses the flush threshold many times over.
func TestScenarioKeyLongForm(t *testing.T) {
	ts := rtm.MustGenerate(rtm.DefaultGenConfig(300, 0.7, 5))
	ts.Tasks[7].Name = "<long> " + string(bytes.Repeat([]byte("x"), 5000))
	r := &SimRequest{TaskSet: ts, Policy: "lpshe"}
	want, _ := oracleForm(r)
	got, err := streamedForm(r)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("long form differs (err %v)", err)
	}
}

// TestScenarioKeyRejectsNonFinite: NaN and ±Inf have no JSON form, so
// the key fails exactly where json.Marshal does.
func TestScenarioKeyRejectsNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, set := range map[string]func(*SimRequest){
			"horizon":    func(r *SimRequest) { r.Horizon = f },
			"wcet":       func(r *SimRequest) { r.TaskSet.Tasks[1].WCET = f },
			"smin":       func(r *SimRequest) { r.Processor.SMin = f },
			"idle power": func(r *SimRequest) { r.Processor.IdlePower = &f },
			"levels":     func(r *SimRequest) { r.Processor.Levels = []float64{0.5, f} },
			"table":      func(r *SimRequest) { r.Processor.Table = []cpu.Level{{Speed: f, Voltage: 1}} },
			"lo":         func(r *SimRequest) { r.Workload.Lo = f },
		} {
			r := decodeFixture(t, goldenFixture)
			set(&r)
			if _, err := oracleForm(&r); err == nil {
				t.Fatalf("%s=%v: oracle accepted it", name, f)
			}
			if _, err := ScenarioKey(&r); err == nil {
				t.Errorf("%s=%v: ScenarioKey accepted a value with no JSON form", name, f)
			}
		}
	}
}

// TestScenarioKeyAllocs pins the key's cost: one allocation, the
// returned string.
func TestScenarioKeyAllocs(t *testing.T) {
	req := decodeFixture(t, goldenFixture)
	ScenarioKey(&req) // warm the pool
	if allocs := testing.AllocsPerRun(200, func() { ScenarioKey(&req) }); allocs > 1 {
		t.Errorf("ScenarioKey allocates %v times per call, want <= 1", allocs)
	}
}
