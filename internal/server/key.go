package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"

	"dvsslack/internal/policies"
	"dvsslack/internal/rtm"
)

// ScenarioKey returns the canonical content hash of a request:
// identical simulation inputs — task set, processor, policy,
// workload, horizon, jitter seed, strictness — hash identically
// regardless of JSON field order or whitespace in the original
// request body, and every accepted spelling of one policy hashes as
// its canonical spec (policies.Canonical).
//
// The hashed bytes are exactly what json.Marshal writes for the
// canonical struct
//
//	struct {
//		TaskSet    *rtm.TaskSet
//		Policy     string
//		Processor  ProcessorSpec
//		Workload   WorkloadSpec
//		Horizon    float64
//		JitterSeed uint64
//		Strict     bool
//		Audit      bool
//	}
//
// (untagged outer names, the specs' json tags and omitempty rules,
// encoding/json's float format and HTML-safe string escaping, an
// empty task list as null), but they are appended straight into the
// SHA-256 state with no reflection and no intermediate document, so
// a key costs one allocation: the returned string. The differential
// test in key_test.go holds the two forms equal.
//
// The key is shared infrastructure: the daemon's result cache indexes
// by it (CacheKey) and the dvsfleet coordinator consistent-hashes it
// onto workers, so routing and caching can never disagree — the
// worker a scenario routes to is exactly the worker whose cache holds
// its result. The hash is pinned by a golden test
// (scenariokey_test.go): changing the canonical form invalidates
// every deployed cache AND reshuffles fleet routing, so it must be a
// deliberate, versioned decision, never an accident.
//
// The only error is a NaN or infinite float, which has no JSON form.
func ScenarioKey(r *SimRequest) (string, error) {
	k := keyPool.Get().(*keyWriter)
	defer k.release()
	return k.key(r)
}

// CacheKey is ScenarioKey as a method: the result cache's index.
func (r *SimRequest) CacheKey() (string, error) { return ScenarioKey(r) }

// runKey is the key a run's cache entry and snapshots are bound to. A
// request that cannot be keyed degrades to "" — uncacheable but still
// runnable, and consistently so on both the capture and restore
// sides, so the snapshot binding check still holds.
func runKey(req *SimRequest) string {
	key, err := ScenarioKey(req)
	if err != nil {
		return ""
	}
	return key
}

// keyWriter is the pooled state of one ScenarioKey call. The canonical
// form is appended to buf, which is flushed into the hash whenever it
// passes keyFlushAt, so memory stays flat however large the task set.
type keyWriter struct {
	appender
	sum [sha256.Size]byte
	hex [2 * sha256.Size]byte
}

const (
	keyFlushAt = 512
	// keyMaxBuf bounds the buffer a keyWriter keeps across calls: one
	// huge name grows it past the flush size, and the pool must not
	// pin that.
	keyMaxBuf = 4 << 10
)

var keyPool = sync.Pool{New: func() any {
	return &keyWriter{appender: appender{h: sha256.New(), buf: make([]byte, 0, 2*keyFlushAt)}}
}}

func (k *keyWriter) release() {
	if cap(k.buf) > keyMaxBuf {
		k.buf = make([]byte, 0, 2*keyFlushAt)
	}
	keyPool.Put(k)
}

func (k *keyWriter) key(r *SimRequest) (string, error) {
	k.h.Reset()
	k.buf, k.bad = k.buf[:0], false
	k.request(r)
	if k.bad {
		return "", fmt.Errorf("server: scenario key: unsupported value %v", k.badF)
	}
	k.h.Write(k.buf)
	hex.Encode(k.hex[:], k.h.Sum(k.sum[:0]))
	return string(k.hex[:]), nil
}

// request writes the canonical struct. Outer fields are untagged and
// never omitted; the nested objects follow their json tags.
func (k *keyWriter) request(r *SimRequest) {
	k.raw(`{"TaskSet":`)
	k.taskSet(r.TaskSet, true)
	policy := policies.Canonical(r.Policy)
	if policy == "" {
		policy = r.Policy
	}
	k.raw(`,"Policy":`)
	k.string(policy)
	k.raw(`,"Processor":`)
	k.processor(&r.Processor)
	k.raw(`,"Workload":`)
	k.workload(&r.Workload)
	k.raw(`,"Horizon":`)
	k.float(r.Horizon)
	k.raw(`,"JitterSeed":`)
	k.buf = strconv.AppendUint(k.buf, r.JitterSeed, 10)
	k.raw(`,"Strict":`)
	k.buf = strconv.AppendBool(k.buf, r.Strict)
	k.raw(`,"Audit":`)
	k.buf = strconv.AppendBool(k.buf, r.Audit)
	k.raw("}")
}

// appender appends JSON text exactly as encoding/json writes it: the
// float format, the HTML-safe string escaping, and the json tags and
// omitempty rules of the request's nested objects. ScenarioKey and
// the wire codec (codec.go) share it. With h set, buf is flushed into
// h whenever it passes keyFlushAt; the wire encoders leave h nil and
// build the whole document in buf.
type appender struct {
	buf []byte
	h   hash.Hash
	// nl goes before each member: "" writes compact text; "\n  "
	// writes the members of an object indented one level.
	nl   string
	more bool    // the open object has a member
	bad  bool    // a NaN or ±Inf was met: it has no JSON form
	badF float64 // the first such value
}

// taskSet writes a task set, or null for nil. legacyNull writes an
// empty task list as null, as the key's canonical form always has;
// encoding/json writes null only for a nil list.
func (a *appender) taskSet(ts *rtm.TaskSet, legacyNull bool) {
	if ts == nil {
		a.raw("null")
		return
	}
	a.open()
	a.optString("name", ts.Name)
	a.member("tasks")
	switch {
	case ts.Tasks == nil, legacyNull && len(ts.Tasks) == 0:
		a.raw("null")
	case len(ts.Tasks) == 0:
		a.raw("[]")
	}
	for i := range ts.Tasks {
		t := &ts.Tasks[i]
		a.elem(i)
		a.open()
		a.optString("name", t.Name)
		a.member("wcet")
		a.float(t.WCET)
		a.member("period")
		a.float(t.Period)
		a.optFloat("deadline", t.Deadline)
		a.optFloat("jitter", t.Jitter)
		a.raw("}")
	}
	if len(ts.Tasks) > 0 {
		a.raw("]")
	}
	a.raw("}")
}

// processor writes a ProcessorSpec object.
func (a *appender) processor(p *ProcessorSpec) {
	a.open()
	a.optString("preset", p.Preset)
	a.optFloat("smin", p.SMin)
	if len(p.Levels) > 0 {
		a.member("levels")
		for i, l := range p.Levels {
			a.elem(i)
			a.float(l)
		}
		a.raw("]")
	}
	a.optString("model", p.Model)
	a.optFloat("alpha_vt", p.AlphaVt)
	a.optFloat("alpha_idx", p.AlphaIdx)
	if len(p.Table) > 0 {
		a.member("table")
		for i, l := range p.Table {
			a.elem(i)
			a.raw(`{"Speed":`) // cpu.Level has no json tags
			a.float(l.Speed)
			a.raw(`,"Voltage":`)
			a.float(l.Voltage)
			a.raw("}")
		}
		a.raw("]")
	}
	a.optString("table_name", p.TableName)
	if p.IdlePower != nil {
		a.member("idle_power")
		a.float(*p.IdlePower)
	}
	a.optFloat("switch_time", p.SwitchTime)
	a.optFloat("switch_energy_coeff", p.SwitchEnergyCoeff)
	a.optFloat("leakage_power", p.LeakagePower)
	if p.SleepEnabled {
		a.member("sleep_enabled")
		a.raw("true")
	}
	a.optFloat("sleep_power", p.SleepPower)
	a.optFloat("wake_energy", p.WakeEnergy)
	a.raw("}")
}

// workload writes a WorkloadSpec object.
func (a *appender) workload(w *WorkloadSpec) {
	a.open()
	a.optString("kind", w.Kind)
	a.optFloat("lo", w.Lo)
	a.optFloat("hi", w.Hi)
	a.optFloat("frac", w.Frac)
	a.optFloat("mean", w.Mean)
	a.optFloat("std_dev", w.StdDev)
	a.optFloat("light_frac", w.LightFrac)
	a.optFloat("heavy_frac", w.HeavyFrac)
	a.optFloat("p_heavy", w.PHeavy)
	a.optFloat("amp", w.Amp)
	a.optFloat("period_jobs", w.PeriodJobs)
	a.optFloat("jitter", w.Jitter)
	if w.Seed != 0 {
		a.member("seed")
		a.buf = strconv.AppendUint(a.buf, w.Seed, 10)
	}
	a.raw("}")
}

// spill flushes a full buffer into the hash, when there is one.
func (a *appender) spill() {
	if a.h != nil && len(a.buf) >= keyFlushAt {
		a.h.Write(a.buf)
		a.buf = a.buf[:0]
	}
}

// raw appends literal JSON, flushing a full buffer first.
func (a *appender) raw(s string) {
	a.spill()
	a.buf = append(a.buf, s...)
}

// open starts an object. The canonical form never opens an object
// while another still expects members, so one flag tracks them all.
func (a *appender) open() {
	a.raw("{")
	a.more = false
}

// member writes the name of the open object's next member (a literal
// needing no escapes), after a comma unless it is the first.
func (a *appender) member(n string) {
	a.spill()
	if a.more {
		a.buf = append(a.buf, ',')
	}
	a.more = true
	a.buf = append(a.buf, a.nl...)
	a.buf = append(a.buf, '"')
	a.buf = append(a.buf, n...)
	if a.nl == "" {
		a.buf = append(a.buf, `":`...)
	} else {
		a.buf = append(a.buf, `": `...)
	}
}

// elem starts element i of an array.
func (a *appender) elem(i int) {
	if i == 0 {
		a.raw("[")
	} else {
		a.raw(",")
	}
}

// optString and optFloat write an omitempty member (±0 is empty).
func (a *appender) optString(n, v string) {
	if v != "" {
		a.member(n)
		a.string(v)
	}
}

func (a *appender) optFloat(n string, v float64) {
	if v != 0 {
		a.member(n)
		a.float(v)
	}
}

// float appends f as encoding/json does: shortest round-trip digits,
// exponent form below 1e-6 and from 1e21 in magnitude, the exponent
// unpadded (1e-7, not 1e-07). NaN and ±Inf have no JSON form: they
// append nothing and set bad.
func (a *appender) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if !a.bad {
			a.bad, a.badF = true, f
		}
		return
	}
	a.spill()
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(a.buf, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	a.buf = b
}

// string appends s as a JSON string the way encoding/json does with
// HTML escaping on: control characters, quote, backslash, <, > and &
// escaped, U+2028 and U+2029 escaped, invalid UTF-8 replaced by
// \ufffd.
func (a *appender) string(s string) {
	const hexDigits = "0123456789abcdef"
	a.spill()
	b := append(a.buf, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	a.buf = append(b, '"')
}
