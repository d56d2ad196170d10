package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dvsslack/internal/audit"
	"dvsslack/internal/experiment"
	"dvsslack/internal/policies"
	"dvsslack/internal/rtm"
	"dvsslack/internal/sim"
)

// The wire codec is held to encoding/json, which stays the reference:
// these helpers are the encoding/json forms the codec replaced.

// jsonRequest is the strict request decode: unknown fields and
// trailing data rejected.
func jsonRequest(body io.Reader) (*SimRequest, error) {
	req := new(SimRequest)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return nil, err
	}
	if dec.More() {
		return nil, errors.New("trailing data")
	}
	return req, nil
}

// jsonResult is the client's result decode.
func jsonResult(body []byte) (SimResult, error) {
	var res SimResult
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&res)
	return res, err
}

// jsonIndent is WriteJSON's encoding.
func jsonIndent(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// jsonDecodeSimulate is DecodeSimulate as it was before the codec: the
// strict encoding/json decode streamed from the limited body, then
// validation.
func jsonDecodeSimulate(w http.ResponseWriter, r *http.Request, maxBody int64) (*SimRequest, bool) {
	body := http.MaxBytesReader(w, r.Body, maxBody)
	req, err := jsonRequest(body)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return nil, false
	}
	io.Copy(io.Discard, body)
	if _, err := req.Config(); err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return nil, false
	}
	return req, true
}

// errString renders an error for comparison; nil is "".
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkWire holds the codec to encoding/json on one body, read both as
// a request and as a result:
//   - whatever a fast decoder accepts, encoding/json accepts, and the
//     two decode reflect.DeepEqual;
//   - DecodeSimulate answers exactly what the encoding/json path
//     answered, at a generous body limit and at one that cuts the body;
//   - ReadResult returns what the encoding/json decode returns;
//   - the encoders write encoding/json's bytes for whatever it decoded.
func checkWire(t *testing.T, body []byte) {
	t.Helper()
	var d decoder
	want, err := jsonRequest(bytes.NewReader(body))
	if got, ok := d.request(body); ok {
		if err != nil {
			t.Fatalf("fast request decode accepted what encoding/json rejects (%v):\n%q", err, body)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("request decodes differ on %q:\nfast %+v\njson %+v", body, got, want)
		}
	}
	if err == nil {
		wantB, wantErr := json.Marshal(want)
		gotB, gotErr := AppendRequest(nil, want)
		if !bytes.Equal(gotB, wantB) || errString(gotErr) != errString(wantErr) {
			t.Fatalf("request encodings differ:\nfast %s (%v)\njson %s (%v)", gotB, gotErr, wantB, wantErr)
		}
	}
	checkDecodeSimulate(t, body, 32<<20)
	if len(body) > 1 {
		checkDecodeSimulate(t, body, int64(len(body)-1))
	}

	wantRes, err := jsonResult(body)
	if got, ok := d.result(body); ok {
		if err != nil {
			t.Fatalf("fast result decode accepted what encoding/json rejects (%v):\n%q", err, body)
		}
		if !reflect.DeepEqual(got, wantRes) {
			t.Fatalf("result decodes differ on %q:\nfast %+v\njson %+v", body, got, wantRes)
		}
	}
	got, gotErr := ReadResult(bytes.NewReader(body))
	if errString(gotErr) != errString(err) || (err == nil && !reflect.DeepEqual(got, wantRes)) {
		t.Fatalf("ReadResult(%q) = %+v, %v; encoding/json gives %+v, %v", body, got, gotErr, wantRes, err)
	}
	if err == nil {
		checkResultEncoding(t, &wantRes)
	}
}

// checkDecodeSimulate compares DecodeSimulate with the encoding/json
// path on one body under one limit: status, headers, bytes written and
// the request handed on.
func checkDecodeSimulate(t *testing.T, body []byte, maxBody int64) {
	t.Helper()
	f := &Frontend{maxBody: maxBody}
	wNew, wOld := httptest.NewRecorder(), httptest.NewRecorder()
	gotReq, _, gotOK := f.DecodeSimulate(wNew, httptest.NewRequest("POST", "/v1/simulate", bytes.NewReader(body)))
	wantReq, wantOK := jsonDecodeSimulate(wOld, httptest.NewRequest("POST", "/v1/simulate", bytes.NewReader(body)), maxBody)
	if gotOK != wantOK || !reflect.DeepEqual(gotReq, wantReq) ||
		wNew.Code != wOld.Code || !bytes.Equal(wNew.Body.Bytes(), wOld.Body.Bytes()) ||
		!reflect.DeepEqual(wNew.Header(), wOld.Header()) {
		t.Fatalf("DecodeSimulate(%q, limit %d) = %v %d %q, encoding/json path %v %d %q",
			body, maxBody, gotOK, wNew.Code, wNew.Body.Bytes(), wantOK, wOld.Code, wOld.Body.Bytes())
	}
}

// checkResultEncoding compares AppendResult and WriteResult with
// WriteJSON's encoding of r.
func checkResultEncoding(t *testing.T, r *SimResult) {
	t.Helper()
	want, wantErr := jsonIndent(r)
	got, gotErr := AppendResult(nil, r)
	if !bytes.Equal(got, want) || errString(gotErr) != errString(wantErr) {
		t.Fatalf("result encodings differ:\nfast %s (%v)\njson %s (%v)", got, gotErr, want, wantErr)
	}
	wNew, wOld := httptest.NewRecorder(), httptest.NewRecorder()
	WriteResult(wNew, http.StatusOK, r)
	WriteJSON(wOld, http.StatusOK, r)
	if wNew.Code != wOld.Code || !bytes.Equal(wNew.Body.Bytes(), wOld.Body.Bytes()) ||
		!reflect.DeepEqual(wNew.Header(), wOld.Header()) {
		t.Fatalf("WriteResult wrote %d %q, WriteJSON %d %q", wNew.Code, wNew.Body.Bytes(), wOld.Code, wOld.Body.Bytes())
	}
}

// apiFreshRequests are requests shaped like the api-fresh benchmark
// mix: the three fresh task sets × the experiment suite, a uniform
// workload with a large seed.
func apiFreshRequests() []SimRequest {
	var out []SimRequest
	for i, ts := range []*rtm.TaskSet{rtm.Quickstart(), rtm.CNC(), rtm.Videophone()} {
		for j, name := range experiment.SuiteNames() {
			out = append(out, SimRequest{
				TaskSet:  ts,
				Policy:   policies.SpecOf(name),
				Workload: WorkloadSpec{Kind: "uniform", Lo: 0.3, Hi: 1, Seed: 0x9e3779b97f4a7c15 ^ uint64(i*8+j)<<2},
			})
		}
	}
	return out
}

// randomResult draws a result covering every field, counters and
// audit violations included.
func randomResult(t *testing.T, rng *rand.Rand) *SimResult {
	r := new(SimResult)
	v := reflect.ValueOf(r).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if rng.IntN(3) == 0 {
			continue
		}
		switch f.Kind() {
		case reflect.String:
			f.SetString(keyStrings[rng.IntN(len(keyStrings))])
		case reflect.Float64:
			f.SetFloat(randFloat(rng))
		case reflect.Int, reflect.Int64:
			f.SetInt([]int64{0, 1, 117, -3, math.MaxInt64}[rng.IntN(5)])
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Map:
			m := map[string]float64{}
			for n := rng.IntN(12); n > 0; n-- {
				m[keyStrings[rng.IntN(len(keyStrings))]+fmt.Sprint(rng.IntN(20))] = randFloat(rng)
			}
			f.Set(reflect.ValueOf(m))
		case reflect.Slice:
			var vs []audit.Violation
			for n := rng.IntN(3); n > 0; n-- {
				vs = append(vs, audit.Violation{
					Invariant: "deadline", Time: randFloat(rng),
					Job:    keyStrings[rng.IntN(len(keyStrings))],
					Detail: keyStrings[rng.IntN(len(keyStrings))],
				})
			}
			f.Set(reflect.ValueOf(vs))
		default:
			t.Fatalf("no generator for SimResult.%s of kind %s", v.Type().Field(i).Name, f.Kind())
		}
	}
	return r
}

// TestWireCodecMatchesEncodingJSON runs checkWire over randomized
// requests and results in both compact and indented form: every spec
// field, escaping-sensitive strings and the float format's edges.
func TestWireCodecMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 2026))
	for i := 0; i < 1500; i++ {
		req := randomRequest(t, rng)
		if i%2 == 0 { // a valid task set, so the fast path has work
			req.TaskSet = rtm.CNC()
		}
		b, err := json.Marshal(req)
		if err != nil {
			continue
		}
		checkWire(t, b)
		ind, _ := json.MarshalIndent(req, " ", "\t")
		checkWire(t, ind)

		res := randomResult(t, rng)
		checkResultEncoding(t, res)
		if b, err := jsonIndent(res); err == nil {
			checkWire(t, b)
			compact, _ := json.Marshal(res)
			checkWire(t, compact)
		}
	}
	for _, req := range apiFreshRequests() {
		b, _ := json.Marshal(&req)
		checkWire(t, b)
	}
}

// TestWireCodecRejectsNonFinite: NaN and ±Inf fail the encoders with
// encoding/json's error.
func TestWireCodecRejectsNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		req := SimRequest{TaskSet: rtm.Quickstart(), Policy: "lpshe", Horizon: f}
		_, want := json.Marshal(&req)
		if _, err := AppendRequest(nil, &req); errString(err) != errString(want) || err == nil {
			t.Errorf("AppendRequest(horizon %v) error %v, want %v", f, err, want)
		}
		res := SimResult{Policy: "lpSHE", PolicyCounters: map[string]float64{"x": f}}
		checkResultEncoding(t, &res)
		res = SimResult{Violations: []audit.Violation{{Invariant: "i", Time: f}}}
		checkResultEncoding(t, &res)
	}
}

// TestWireCodecFastPathCoverage: the fast decoders, not the fallback,
// accept every request RequestFromConfig builds for the experiment
// suite (every id, quick grid) and every api-fresh-shaped request, as
// the client encodes them, and the results dvsd writes for them.
func TestWireCodecFastPathCoverage(t *testing.T) {
	var d decoder
	check := func(what string, req *SimRequest, res *SimResult) {
		t.Helper()
		body, err := AppendRequest(nil, req)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if _, ok := d.request(body); !ok {
			t.Fatalf("%s: fast path declined request %s", what, body)
		}
		out, err := AppendResult(nil, res)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if _, ok := d.result(out); !ok {
			t.Fatalf("%s: fast path declined result %s", what, out)
		}
	}
	for _, req := range apiFreshRequests() {
		cfg, err := req.Config()
		if err != nil {
			t.Fatal(err)
		}
		r, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := ResultFromSim(r)
		res.WallNanos = 58_000
		check("api-fresh "+req.Policy, &req, &res)
	}

	var mu sync.Mutex
	wired := 0
	for _, id := range experiment.IDs() {
		_, err := experiment.Run(id, experiment.Options{Quick: true, Seeds: 1, Workers: 1, Exec: func(cfg sim.Config) (sim.Result, error) {
			r, err := sim.Run(cfg)
			if err != nil {
				return r, err
			}
			req, werr := RequestFromConfig(cfg)
			if werr != nil {
				return r, nil // no wire form: runs in-process under dvsexp -addr too
			}
			res := ResultFromSim(r)
			mu.Lock()
			defer mu.Unlock()
			wired++
			check(id, &req, &res)
			return r, nil
		}})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	if wired == 0 {
		t.Fatal("no experiment configuration had a wire form")
	}
}

// TestWireCodecAllocs pins the codec's cost on the api-fresh mix: the
// encoders append into a reused buffer without allocating, and the
// decoders allocate the request (with its task set), the task list
// and one string for all of a document's strings, or the result's one
// string and its counters map (four allocations for lpSHE's ten
// counters).
func TestWireCodecAllocs(t *testing.T) {
	req := apiFreshRequests()[15] // cnc, lpshe: 8 tasks
	cfg, _ := req.Config()
	r, _ := sim.Run(cfg)
	res := ResultFromSim(r)
	reqBody, _ := AppendRequest(nil, &req)
	resBody, _ := AppendResult(nil, &res)
	buf := make([]byte, 0, 4096)
	var d decoder
	d.request(reqBody)
	d.result(resBody)
	for _, c := range []struct {
		name string
		max  float64
		fn   func()
	}{
		{"AppendRequest", 0, func() { AppendRequest(buf[:0], &req) }},
		{"AppendResult", 0, func() { AppendResult(buf[:0], &res) }},
		{"decode request", 3, func() { d.request(reqBody) }},
		{"decode result", 5, func() { d.result(resBody) }},
	} {
		if got := testing.AllocsPerRun(200, c.fn); got > c.max {
			t.Errorf("%s: %v allocs, want <= %v", c.name, got, c.max)
		}
	}
}

// TestWireBufPoolBound: a body of many empty tasks, small in bytes,
// grows the decoder's task scratch past maxPooledElems, and its buffer
// is then left out of the pool; an api-fresh body's buffer is kept.
func TestWireBufPoolBound(t *testing.T) {
	req := apiFreshRequests()[15]
	small, _ := AppendRequest(nil, &req)
	large := []byte(`{"task_set":{"tasks":[{}` + strings.Repeat(`,{}`, 4*maxPooledElems) + `]}}`)
	for _, c := range []struct {
		name string
		body []byte
		keep bool
	}{{"api-fresh", small, true}, {"many empty tasks", large, false}} {
		wb := getWireBuf()
		wb.b = append(wb.b, c.body...)
		wb.dec.request(wb.b)
		if got := wb.pooled(); got != c.keep {
			t.Errorf("%s (%d bytes, %d tasks): pooled %v, want %v", c.name, len(c.body), len(wb.dec.tasks), got, c.keep)
		}
	}
}

// wireSeeds are the fuzz seeds: each probes one edge of the canonical
// subset, so the fallback's exact outcome is checked there.
func wireSeeds() []string {
	valid, _ := json.Marshal(&SimRequest{TaskSet: rtm.Quickstart(), Policy: "lpshe",
		Workload: WorkloadSpec{Kind: "uniform", Lo: 0.5, Hi: 1, Seed: 7}})
	v := string(valid)
	res := SimResult{Policy: "lpSHE", Time: 420, Energy: 1.5, Audited: true,
		PolicyCounters: map[string]float64{"slack_calls": 12, "fast_path": 0.5},
		Violations:     []audit.Violation{{Invariant: "deadline", Time: 12.5, Job: "T1#3", Detail: "late by 0.1 <&>"}}}
	r, _ := jsonIndent(&res)
	rs := string(r)
	return []string{
		v,
		strings.Replace(v, `"policy"`, `"Policy"`, 1),
		strings.Replace(v, `"kind"`, "\"\u212aind\"", 1), // Kelvin sign folds to k
		strings.Replace(v, `"policy":"lpshe"`, `"policy":"lpshe","policy":"nondvs"`, 1),
		strings.Replace(v, `"workload":{`, `"workload":{"seed":null,`, 1),
		strings.Replace(v, `"task_set":`, `"task_set":null,"x":`, 1),
		strings.Replace(v, `"lpshe"`, `"lp\u0073he"`, 1),
		strings.Replace(v, `"lpshe"`, "\"lpshe\u2028\"", 1),
		strings.Replace(v, `"lpshe"`, "\"lp\xffshe\"", 1),
		strings.Replace(v, `"lo":0.5`, `"lo":-0`, 1),
		strings.Replace(v, `"lo":0.5`, `"lo":1e-7`, 1),
		strings.Replace(v, `"hi":1`, `"hi":1e21`, 1),
		strings.Replace(v, `"seed":7`, `"seed":18446744073709551616`, 1),
		strings.Replace(v, `"seed":7`, `"seed":-1`, 1),
		strings.Replace(v, `"seed":7`, `"seed":7.0`, 1),
		strings.Replace(v, `"wcet":1`, `"wcet":01`, 1),
		strings.Replace(v, `"wcet":1`, `"wcet":1e400`, 1),
		strings.Replace(v, `}]}`, `}]},"extra":true}`, 1),
		v[:len(v)/2],
		v + " {}",
		v + "]",
		" \n" + v + "\n\t ",
		rs,
		strings.Replace(rs, `"time": 420`, `"time": 420, "bogus": [1]`, 1),
		strings.Replace(rs, `"decisions": 0`, `"decisions": 1.5`, 1),
		strings.Replace(rs, `"cached"`, `"Cached"`, 1),
		rs[:len(rs)-5],
		rs + "trailing",
		`{"policy_counters":{}, "violations":[]}`,
		`{"policy_counters":{"a":1,"a":2}}`,
		"",
		"null",
		`{"task_set":{"tasks":[{"wcet":1,"period":4}]},"processor":{"levels":[],"table":[{"Speed":1,"Voltage":1}],"idle_power":0}}`,
	}
}

// TestWireCodecSeeds runs checkWire over the fuzz seeds, so the edges
// are covered by go test without -fuzz.
func TestWireCodecSeeds(t *testing.T) {
	for _, s := range wireSeeds() {
		checkWire(t, []byte(s))
	}
}

// FuzzWireCodec is the differential fuzz target: on any body the
// codec agrees with encoding/json (see checkWire).
func FuzzWireCodec(f *testing.F) {
	for _, s := range wireSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkWire(t, body)
	})
}
