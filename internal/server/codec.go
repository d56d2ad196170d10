package server

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"

	"dvsslack/internal/cpu"
	"dvsslack/internal/rtm"
)

// The wire codec of /v1/simulate: SimRequest and SimResult cross dvsd,
// the dvsfleet coordinator and the client without reflection.
//
// The encoders write exactly the bytes encoding/json writes:
// AppendRequest those of json.Marshal, AppendResult those of an
// Encoder with SetIndent("", "  "). They share key.go's appender, so
// floats and strings are spelled as encoding/json spells them.
//
// The decoders accept a canonical subset of JSON and decline the rest:
//   - member names in their exact case, each at most once, and no
//     member the type does not have;
//   - strings with no escapes, no control characters and valid UTF-8;
//   - numbers in JSON's grammar that strconv.ParseFloat (floats),
//     ParseInt (ints) or ParseUint (uint64s) accept;
//   - no null anywhere, nothing but white space after the document;
//   - for a request, a task set that passes Validate;
//   - for a result, no audit violations.
//
// Whatever the fast path declines goes, as the same bytes, through
// encoding/json exactly as before, so every spelling it accepts and
// every error it reports stays what it was. The differential tests
// and FuzzWireCodec hold both directions to encoding/json.

// AppendRequest appends the JSON form of r to b: the bytes
// json.Marshal(r) returns. A NaN or infinite float fails with the
// error json.Marshal gives.
func AppendRequest(b []byte, r *SimRequest) ([]byte, error) {
	a := appender{buf: b}
	a.raw(`{"task_set":`)
	a.taskSet(r.TaskSet, false)
	a.raw(`,"policy":`)
	a.string(r.Policy)
	a.raw(`,"processor":`)
	a.processor(&r.Processor)
	a.raw(`,"workload":`)
	a.workload(&r.Workload)
	if r.Horizon != 0 {
		a.raw(`,"horizon":`)
		a.float(r.Horizon)
	}
	if r.JitterSeed != 0 {
		a.raw(`,"jitter_seed":`)
		a.buf = strconv.AppendUint(a.buf, r.JitterSeed, 10)
	}
	if r.Strict {
		a.raw(`,"strict":true`)
	}
	if r.Audit {
		a.raw(`,"audit":true`)
	}
	a.raw("}")
	return a.result()
}

// AppendResult appends the indented JSON form of r to b: the bytes an
// Encoder with SetIndent("", "  ") writes, trailing newline included.
func AppendResult(b []byte, r *SimResult) ([]byte, error) {
	a := appender{buf: b, nl: "\n  "}
	a.raw("{")
	a.member("policy")
	a.string(r.Policy)
	a.member("time")
	a.float(r.Time)
	a.member("energy")
	a.float(r.Energy)
	a.member("busy_energy")
	a.float(r.BusyEnergy)
	a.member("idle_energy")
	a.float(r.IdleEnergy)
	a.member("switch_energy")
	a.float(r.SwitchEnergy)
	a.intMember("jobs_released", r.JobsReleased)
	a.intMember("jobs_completed", r.JobsCompleted)
	a.intMember("deadline_misses", r.DeadlineMisses)
	a.intMember("speed_switches", r.SpeedSwitches)
	a.intMember("preemptions", r.Preemptions)
	a.intMember("decisions", r.Decisions)
	a.member("idle_time")
	a.float(r.IdleTime)
	if r.Sleeps != 0 {
		a.intMember("sleeps", r.Sleeps)
	}
	a.optFloat("sleep_time", r.SleepTime)
	a.member("work_done")
	a.float(r.WorkDone)
	if len(r.PolicyCounters) > 0 {
		a.member("policy_counters")
		a.counters(r.PolicyCounters)
	}
	a.optTrue("audited", r.Audited)
	if len(r.Violations) > 0 {
		// Audited results only: encoding/json writes the list, and
		// the prefix indents it to its depth in the document.
		v, err := json.MarshalIndent(r.Violations, "  ", "  ")
		if err != nil {
			return nil, err
		}
		a.member("violations")
		a.buf = append(a.buf, v...)
	}
	a.optTrue("audit_truncated", r.AuditTruncated)
	a.optTrue("cached", r.Cached)
	if r.WallNanos != 0 {
		a.member("wall_ns")
		a.buf = strconv.AppendInt(a.buf, r.WallNanos, 10)
	}
	a.raw("\n}\n")
	return a.result()
}

// result ends an encoder: the text, or the error encoding/json gives
// for the first float with no JSON form.
func (a *appender) result() ([]byte, error) {
	if a.bad {
		return nil, &json.UnsupportedValueError{
			Value: reflect.ValueOf(a.badF),
			Str:   strconv.FormatFloat(a.badF, 'g', -1, 64),
		}
	}
	return a.buf, nil
}

func (a *appender) intMember(n string, v int) {
	a.member(n)
	a.buf = strconv.AppendInt(a.buf, int64(v), 10)
}

func (a *appender) optTrue(n string, v bool) {
	if v {
		a.member(n)
		a.buf = append(a.buf, "true"...)
	}
}

// counters writes a map one level below the top as encoding/json
// does: keys sorted, one member a line.
func (a *appender) counters(m map[string]float64) {
	var arr [16]string
	keys := arr[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	a.buf = append(a.buf, '{')
	for i, k := range keys {
		if i > 0 {
			a.buf = append(a.buf, ',')
		}
		a.buf = append(a.buf, "\n    "...)
		a.string(k)
		a.buf = append(a.buf, ": "...)
		a.float(m[k])
	}
	a.buf = append(a.buf, "\n  }"...)
}

// maxPooledWire is the largest buffer the codec's pool keeps, and
// maxPooledElems the most elements a decoder scratch slice may hold
// and stay pooled: a rare large body must not stay pinned for the
// life of the process. The element bound is separate because a body
// of empty objects ({},{},…) grows the task scratch by a 48-byte
// rtm.Task for every three bytes of input.
const (
	maxPooledWire  = 64 << 10
	maxPooledElems = maxPooledWire / 64
)

// wireBuf is one pooled body buffer with the decoder scratch that goes
// with it.
type wireBuf struct {
	b   []byte
	dec decoder
}

var wireBufs = sync.Pool{New: func() any { return &wireBuf{b: make([]byte, 0, 1024)} }}

func getWireBuf() *wireBuf {
	wb := wireBufs.Get().(*wireBuf)
	wb.b = wb.b[:0]
	return wb
}

// pooled reports whether wb's body buffer and decoder scratch are
// within the bounds above.
func (wb *wireBuf) pooled() bool {
	d := &wb.dec
	return cap(wb.b) <= maxPooledWire && cap(d.text) <= maxPooledWire &&
		max(cap(d.tasks), cap(d.taskNames), cap(d.keys), cap(d.vals)) <= maxPooledElems
}

// release returns wb to the pool if it is still within bounds.
func (wb *wireBuf) release() {
	if !wb.pooled() {
		return
	}
	wb.dec.in = nil
	wireBufs.Put(wb)
}

// readFrom reads r to its end into wb.b, as io.ReadAll does.
func (wb *wireBuf) readFrom(r io.Reader) error {
	b := wb.b
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			wb.b = b
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// replay returns a reader that yields the bytes read and then the
// error the read stopped on, so encoding/json sees the body exactly
// as it would have read it from the wire.
func (wb *wireBuf) replay(err error) io.Reader {
	r := io.Reader(bytes.NewReader(wb.b))
	if err != nil {
		r = io.MultiReader(r, errReader{err})
	}
	return r
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// ReadRequest reads one /v1/simulate request body to its end and
// decodes it strictly: the fast decoder over the canonical subset,
// otherwise encoding/json with unknown fields and trailing data
// rejected, fed the same bytes and then the error the read ended on.
func ReadRequest(r io.Reader) (*SimRequest, error) {
	wb := getWireBuf()
	defer wb.release()
	err := wb.readFrom(r)
	if err == nil {
		if req, ok := wb.dec.request(wb.b); ok {
			return req, nil
		}
	}
	req := new(SimRequest)
	if err := decodeStrict(wb.replay(err), req); err != nil {
		return nil, err
	}
	return req, nil
}

// ReadResult reads one /v1/simulate response body: the fast decoder
// over the canonical subset, otherwise what
// json.NewDecoder(r).Decode(&res) gives for the same bytes.
func ReadResult(r io.Reader) (SimResult, error) {
	wb := getWireBuf()
	defer wb.release()
	err := wb.readFrom(r)
	if err == nil {
		if res, ok := wb.dec.result(wb.b); ok {
			return res, nil
		}
	}
	var res SimResult
	err = json.NewDecoder(wb.replay(err)).Decode(&res)
	return res, err
}

// decoder parses one document of the canonical subset. Strings are
// gathered in text and become one string when the document is done;
// spans locate each in it. The slices are scratch kept with the
// pooled buffer.
type decoder struct {
	in   []byte
	pos  int
	bad  bool
	text []byte

	tasks     []rtm.Task
	taskNames []span
	keys      []span
	vals      []float64
}

// span is a string of the document: text[off:end].
type span struct{ off, end int }

func (d *decoder) reset(in []byte) {
	d.in, d.pos, d.bad = in, 0, false
	d.text = d.text[:0]
}

// fail marks the input as outside the canonical subset.
func (d *decoder) fail() {
	d.bad = true
	d.pos = len(d.in)
}

// peek skips white space and returns the next byte, 0 at the end.
func (d *decoder) peek() byte {
	for d.pos < len(d.in) {
		switch c := d.in[d.pos]; c {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return c
		}
	}
	return 0
}

func (d *decoder) expect(c byte) {
	if d.peek() != c {
		d.fail()
		return
	}
	d.pos++
}

// more reports whether the open object or array, closed by end, has
// another element after the n already read, consuming the comma or
// the closing byte.
func (d *decoder) more(end byte, n int) bool {
	switch c := d.peek(); {
	case c == end:
		d.pos++
		return false
	case n == 0:
		return !d.bad
	case c == ',':
		d.pos++
		return true
	default:
		d.fail()
		return false
	}
}

// name reads a member name and its colon; the name is borrowed from
// the input.
func (d *decoder) name() []byte {
	b := d.rawString()
	d.expect(':')
	return b
}

// once marks member bit of seen, failing on a repeat.
func (d *decoder) once(seen *uint32, bit uint) {
	if *seen&(1<<bit) != 0 {
		d.fail()
	}
	*seen |= 1 << bit
}

// rawString reads a string with no escapes; the bytes are borrowed
// from the input.
func (d *decoder) rawString() []byte {
	if d.peek() != '"' {
		d.fail()
		return nil
	}
	start := d.pos + 1
	n := bytes.IndexByte(d.in[start:], '"')
	if n < 0 {
		d.fail()
		return nil
	}
	b := d.in[start : start+n]
	ascii := true
	for _, c := range b {
		if c < 0x20 || c == '\\' {
			d.fail() // an escape, or a control character JSON forbids
			return nil
		}
		if c >= utf8.RuneSelf {
			ascii = false
		}
	}
	if !ascii && !utf8.Valid(b) {
		d.fail()
		return nil
	}
	d.pos = start + n + 1
	return b
}

// str reads a string into text.
func (d *decoder) str() span {
	b := d.rawString()
	off := len(d.text)
	d.text = append(d.text, b...)
	return span{off, len(d.text)}
}

// number reads a number in JSON's grammar.
func (d *decoder) number() []byte {
	d.peek()
	in, i := d.in, d.pos
	start := i
	digits := func() bool {
		j := i
		for i < len(in) && in[i] >= '0' && in[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(in) && in[i] == '-' {
		i++
	}
	switch {
	case i < len(in) && in[i] == '0':
		i++
	case !digits():
		d.fail()
		return nil
	}
	if i < len(in) && in[i] == '.' {
		i++
		if !digits() {
			d.fail()
			return nil
		}
	}
	if i < len(in) && (in[i] == 'e' || in[i] == 'E') {
		i++
		if i < len(in) && (in[i] == '+' || in[i] == '-') {
			i++
		}
		if !digits() {
			d.fail()
			return nil
		}
	}
	d.pos = i
	return in[start:i]
}

func (d *decoder) float() float64 {
	b := d.number()
	if d.bad {
		return 0
	}
	f, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		d.fail()
	}
	return f
}

func (d *decoder) int() int64 {
	b := d.number()
	if d.bad {
		return 0
	}
	v, err := strconv.ParseInt(string(b), 10, 64)
	if err != nil {
		d.fail()
	}
	return v
}

func (d *decoder) uint() uint64 {
	b := d.number()
	if d.bad {
		return 0
	}
	v, err := strconv.ParseUint(string(b), 10, 64)
	if err != nil {
		d.fail()
	}
	return v
}

func (d *decoder) bool() bool {
	switch d.peek() {
	case 't':
		if bytes.HasPrefix(d.in[d.pos:], []byte("true")) {
			d.pos += 4
			return true
		}
	case 'f':
		if bytes.HasPrefix(d.in[d.pos:], []byte("false")) {
			d.pos += 5
			return false
		}
	}
	d.fail()
	return false
}

// end checks that only white space follows the document.
func (d *decoder) end() bool {
	if d.peek() != 0 || d.pos != len(d.in) {
		d.fail()
	}
	return !d.bad
}

// floats reads an array of numbers.
func (d *decoder) floats() []float64 {
	out := []float64{}
	d.expect('[')
	for n := 0; d.more(']', n); n++ {
		out = append(out, d.float())
	}
	return out
}

// request decodes a SimRequest. ok=false declines the input.
func (d *decoder) request(in []byte) (req *SimRequest, ok bool) {
	d.reset(in)
	d.tasks, d.taskNames = d.tasks[:0], d.taskNames[:0]
	// One allocation holds the request and its task set.
	both := new(struct {
		req SimRequest
		ts  rtm.TaskSet
	})
	req = &both.req
	var policy, setName, preset, model, tableName, kind span
	haveSet := false
	var seen uint32
	d.expect('{')
	for n := 0; d.more('}', n); n++ {
		switch string(d.name()) {
		case "task_set":
			d.once(&seen, 0)
			haveSet = true
			setName = d.taskSet()
		case "policy":
			d.once(&seen, 1)
			policy = d.str()
		case "processor":
			d.once(&seen, 2)
			preset, model, tableName = d.processor(&req.Processor)
		case "workload":
			d.once(&seen, 3)
			kind = d.workload(&req.Workload)
		case "horizon":
			d.once(&seen, 4)
			req.Horizon = d.float()
		case "jitter_seed":
			d.once(&seen, 5)
			req.JitterSeed = d.uint()
		case "strict":
			d.once(&seen, 6)
			req.Strict = d.bool()
		case "audit":
			d.once(&seen, 7)
			req.Audit = d.bool()
		default:
			d.fail()
		}
	}
	if !d.end() {
		return nil, false
	}
	text := string(d.text)
	at := func(s span) string { return text[s.off:s.end] }
	req.Policy = at(policy)
	req.Processor.Preset, req.Processor.Model, req.Processor.TableName = at(preset), at(model), at(tableName)
	req.Workload.Kind = at(kind)
	if haveSet {
		ts := &both.ts
		ts.Name = at(setName)
		ts.Tasks = append(make([]rtm.Task, 0, len(d.tasks)), d.tasks...)
		for i, s := range d.taskNames {
			ts.Tasks[i].Name = at(s)
		}
		if ts.Validate() != nil {
			return nil, false
		}
		req.TaskSet = ts
	}
	return req, true
}

// taskSet reads a task set's members into the task scratch and
// returns the set's name.
func (d *decoder) taskSet() (name span) {
	var seen uint32
	d.expect('{')
	for n := 0; d.more('}', n); n++ {
		switch string(d.name()) {
		case "name":
			d.once(&seen, 0)
			name = d.str()
		case "tasks":
			d.once(&seen, 1)
			d.expect('[')
			for i := 0; d.more(']', i); i++ {
				d.task()
			}
		default:
			d.fail()
		}
	}
	return name
}

func (d *decoder) task() {
	var t rtm.Task
	var name span
	var seen uint32
	d.expect('{')
	for n := 0; d.more('}', n); n++ {
		switch string(d.name()) {
		case "name":
			d.once(&seen, 0)
			name = d.str()
		case "wcet":
			d.once(&seen, 1)
			t.WCET = d.float()
		case "period":
			d.once(&seen, 2)
			t.Period = d.float()
		case "deadline":
			d.once(&seen, 3)
			t.Deadline = d.float()
		case "jitter":
			d.once(&seen, 4)
			t.Jitter = d.float()
		default:
			d.fail()
		}
	}
	d.tasks = append(d.tasks, t)
	d.taskNames = append(d.taskNames, name)
}

// processor reads a ProcessorSpec; its strings come back as spans.
func (d *decoder) processor(p *ProcessorSpec) (preset, model, tableName span) {
	var seen uint32
	d.expect('{')
	for n := 0; d.more('}', n); n++ {
		switch string(d.name()) {
		case "preset":
			d.once(&seen, 0)
			preset = d.str()
		case "smin":
			d.once(&seen, 1)
			p.SMin = d.float()
		case "levels":
			d.once(&seen, 2)
			p.Levels = d.floats()
		case "model":
			d.once(&seen, 3)
			model = d.str()
		case "alpha_vt":
			d.once(&seen, 4)
			p.AlphaVt = d.float()
		case "alpha_idx":
			d.once(&seen, 5)
			p.AlphaIdx = d.float()
		case "table":
			d.once(&seen, 6)
			p.Table = d.levels()
		case "table_name":
			d.once(&seen, 7)
			tableName = d.str()
		case "idle_power":
			d.once(&seen, 8)
			v := d.float()
			p.IdlePower = &v
		case "switch_time":
			d.once(&seen, 9)
			p.SwitchTime = d.float()
		case "switch_energy_coeff":
			d.once(&seen, 10)
			p.SwitchEnergyCoeff = d.float()
		case "leakage_power":
			d.once(&seen, 11)
			p.LeakagePower = d.float()
		case "sleep_enabled":
			d.once(&seen, 12)
			p.SleepEnabled = d.bool()
		case "sleep_power":
			d.once(&seen, 13)
			p.SleepPower = d.float()
		case "wake_energy":
			d.once(&seen, 14)
			p.WakeEnergy = d.float()
		default:
			d.fail()
		}
	}
	return preset, model, tableName
}

// levels reads a table of cpu.Level, whose members are untagged.
func (d *decoder) levels() []cpu.Level {
	out := []cpu.Level{}
	d.expect('[')
	for i := 0; d.more(']', i); i++ {
		var l cpu.Level
		var seen uint32
		d.expect('{')
		for n := 0; d.more('}', n); n++ {
			switch string(d.name()) {
			case "Speed":
				d.once(&seen, 0)
				l.Speed = d.float()
			case "Voltage":
				d.once(&seen, 1)
				l.Voltage = d.float()
			default:
				d.fail()
			}
		}
		out = append(out, l)
	}
	return out
}

// workload reads a WorkloadSpec; its kind comes back as a span.
func (d *decoder) workload(w *WorkloadSpec) (kind span) {
	var seen uint32
	d.expect('{')
	for n := 0; d.more('}', n); n++ {
		var f *float64
		switch string(d.name()) {
		case "kind":
			d.once(&seen, 0)
			kind = d.str()
			continue
		case "seed":
			d.once(&seen, 1)
			w.Seed = d.uint()
			continue
		case "lo":
			d.once(&seen, 2)
			f = &w.Lo
		case "hi":
			d.once(&seen, 3)
			f = &w.Hi
		case "frac":
			d.once(&seen, 4)
			f = &w.Frac
		case "mean":
			d.once(&seen, 5)
			f = &w.Mean
		case "std_dev":
			d.once(&seen, 6)
			f = &w.StdDev
		case "light_frac":
			d.once(&seen, 7)
			f = &w.LightFrac
		case "heavy_frac":
			d.once(&seen, 8)
			f = &w.HeavyFrac
		case "p_heavy":
			d.once(&seen, 9)
			f = &w.PHeavy
		case "amp":
			d.once(&seen, 10)
			f = &w.Amp
		case "period_jobs":
			d.once(&seen, 11)
			f = &w.PeriodJobs
		case "jitter":
			d.once(&seen, 12)
			f = &w.Jitter
		default:
			d.fail()
			continue
		}
		*f = d.float()
	}
	return kind
}

// result decodes a SimResult. ok=false declines the input.
func (d *decoder) result(in []byte) (res SimResult, ok bool) {
	d.reset(in)
	d.keys, d.vals = d.keys[:0], d.vals[:0]
	var policy span
	counters := false
	var seen uint32
	d.expect('{')
	for n := 0; d.more('}', n); n++ {
		var f *float64
		var i *int
		switch string(d.name()) {
		case "policy":
			d.once(&seen, 0)
			policy = d.str()
			continue
		case "time":
			d.once(&seen, 1)
			f = &res.Time
		case "energy":
			d.once(&seen, 2)
			f = &res.Energy
		case "busy_energy":
			d.once(&seen, 3)
			f = &res.BusyEnergy
		case "idle_energy":
			d.once(&seen, 4)
			f = &res.IdleEnergy
		case "switch_energy":
			d.once(&seen, 5)
			f = &res.SwitchEnergy
		case "idle_time":
			d.once(&seen, 6)
			f = &res.IdleTime
		case "sleep_time":
			d.once(&seen, 7)
			f = &res.SleepTime
		case "work_done":
			d.once(&seen, 8)
			f = &res.WorkDone
		case "jobs_released":
			d.once(&seen, 9)
			i = &res.JobsReleased
		case "jobs_completed":
			d.once(&seen, 10)
			i = &res.JobsCompleted
		case "deadline_misses":
			d.once(&seen, 11)
			i = &res.DeadlineMisses
		case "speed_switches":
			d.once(&seen, 12)
			i = &res.SpeedSwitches
		case "preemptions":
			d.once(&seen, 13)
			i = &res.Preemptions
		case "decisions":
			d.once(&seen, 14)
			i = &res.Decisions
		case "sleeps":
			d.once(&seen, 15)
			i = &res.Sleeps
		case "policy_counters":
			d.once(&seen, 16)
			counters = true
			d.expect('{')
			for m := 0; d.more('}', m); m++ {
				d.keys = append(d.keys, d.str())
				d.expect(':')
				d.vals = append(d.vals, d.float())
			}
			continue
		case "audited":
			d.once(&seen, 17)
			res.Audited = d.bool()
			continue
		case "violations":
			d.fail() // audited results take the encoding/json path
			continue
		case "audit_truncated":
			d.once(&seen, 18)
			res.AuditTruncated = d.bool()
			continue
		case "cached":
			d.once(&seen, 19)
			res.Cached = d.bool()
			continue
		case "wall_ns":
			d.once(&seen, 20)
			res.WallNanos = d.int()
			continue
		default:
			d.fail()
			continue
		}
		if f != nil {
			*f = d.float()
		} else if v := d.int(); int64(int(v)) == v {
			*i = int(v)
		} else {
			d.fail() // encoding/json reports the overflow
		}
	}
	if !d.end() {
		return SimResult{}, false
	}
	text := string(d.text)
	at := func(s span) string { return text[s.off:s.end] }
	res.Policy = at(policy)
	if counters {
		res.PolicyCounters = make(map[string]float64, len(d.keys))
		for j, k := range d.keys {
			res.PolicyCounters[at(k)] = d.vals[j]
		}
	}
	return res, true
}
