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
	h    hash.Hash
	buf  []byte
	more bool  // the open object has a member
	err  error // first unencodable value
	sum  [sha256.Size]byte
	hex  [2 * sha256.Size]byte
}

const (
	keyFlushAt = 512
	// keyMaxBuf bounds the buffer a keyWriter keeps across calls: one
	// huge name grows it past the flush size, and the pool must not
	// pin that.
	keyMaxBuf = 4 << 10
)

var keyPool = sync.Pool{New: func() any {
	return &keyWriter{h: sha256.New(), buf: make([]byte, 0, 2*keyFlushAt)}
}}

func (k *keyWriter) release() {
	if cap(k.buf) > keyMaxBuf {
		k.buf = make([]byte, 0, 2*keyFlushAt)
	}
	keyPool.Put(k)
}

func (k *keyWriter) key(r *SimRequest) (string, error) {
	k.h.Reset()
	k.buf, k.err = k.buf[:0], nil
	k.request(r)
	if k.err != nil {
		return "", k.err
	}
	k.flush()
	hex.Encode(k.hex[:], k.h.Sum(k.sum[:0]))
	return string(k.hex[:]), nil
}

func (k *keyWriter) flush() {
	k.h.Write(k.buf)
	k.buf = k.buf[:0]
}

// request writes the canonical struct. Outer fields are untagged and
// never omitted; the nested objects follow their json tags.
func (k *keyWriter) request(r *SimRequest) {
	k.raw(`{"TaskSet":`)
	if ts := r.TaskSet; ts == nil {
		k.raw("null")
	} else {
		k.open()
		k.optString("name", ts.Name)
		k.member("tasks")
		if len(ts.Tasks) == 0 {
			k.raw("null") // the legacy task-set encoder's nil slice
		}
		for i := range ts.Tasks {
			t := &ts.Tasks[i]
			k.elem(i)
			k.open()
			k.optString("name", t.Name)
			k.member("wcet")
			k.float(t.WCET)
			k.member("period")
			k.float(t.Period)
			k.optFloat("deadline", t.Deadline)
			k.optFloat("jitter", t.Jitter)
			k.raw("}")
		}
		if len(ts.Tasks) > 0 {
			k.raw("]")
		}
		k.raw("}")
	}

	policy := policies.Canonical(r.Policy)
	if policy == "" {
		policy = r.Policy
	}
	k.raw(`,"Policy":`)
	k.string(policy)

	p := &r.Processor
	k.raw(`,"Processor":`)
	k.open()
	k.optString("preset", p.Preset)
	k.optFloat("smin", p.SMin)
	if len(p.Levels) > 0 {
		k.member("levels")
		for i, l := range p.Levels {
			k.elem(i)
			k.float(l)
		}
		k.raw("]")
	}
	k.optString("model", p.Model)
	k.optFloat("alpha_vt", p.AlphaVt)
	k.optFloat("alpha_idx", p.AlphaIdx)
	if len(p.Table) > 0 {
		k.member("table")
		for i, l := range p.Table {
			k.elem(i)
			k.raw(`{"Speed":`) // cpu.Level has no json tags
			k.float(l.Speed)
			k.raw(`,"Voltage":`)
			k.float(l.Voltage)
			k.raw("}")
		}
		k.raw("]")
	}
	k.optString("table_name", p.TableName)
	if p.IdlePower != nil {
		k.member("idle_power")
		k.float(*p.IdlePower)
	}
	k.optFloat("switch_time", p.SwitchTime)
	k.optFloat("switch_energy_coeff", p.SwitchEnergyCoeff)
	k.optFloat("leakage_power", p.LeakagePower)
	if p.SleepEnabled {
		k.member("sleep_enabled")
		k.raw("true")
	}
	k.optFloat("sleep_power", p.SleepPower)
	k.optFloat("wake_energy", p.WakeEnergy)

	w := &r.Workload
	k.raw(`},"Workload":`)
	k.open()
	k.optString("kind", w.Kind)
	k.optFloat("lo", w.Lo)
	k.optFloat("hi", w.Hi)
	k.optFloat("frac", w.Frac)
	k.optFloat("mean", w.Mean)
	k.optFloat("std_dev", w.StdDev)
	k.optFloat("light_frac", w.LightFrac)
	k.optFloat("heavy_frac", w.HeavyFrac)
	k.optFloat("p_heavy", w.PHeavy)
	k.optFloat("amp", w.Amp)
	k.optFloat("period_jobs", w.PeriodJobs)
	k.optFloat("jitter", w.Jitter)
	if w.Seed != 0 {
		k.member("seed")
		k.buf = strconv.AppendUint(k.buf, w.Seed, 10)
	}

	k.raw(`},"Horizon":`)
	k.float(r.Horizon)
	k.raw(`,"JitterSeed":`)
	k.buf = strconv.AppendUint(k.buf, r.JitterSeed, 10)
	k.raw(`,"Strict":`)
	k.buf = strconv.AppendBool(k.buf, r.Strict)
	k.raw(`,"Audit":`)
	k.buf = strconv.AppendBool(k.buf, r.Audit)
	k.raw("}")
}

// raw appends literal JSON, flushing a full buffer first.
func (k *keyWriter) raw(s string) {
	if len(k.buf) >= keyFlushAt {
		k.flush()
	}
	k.buf = append(k.buf, s...)
}

// open starts an object. The canonical form never opens an object
// while another still expects members, so one flag tracks them all.
func (k *keyWriter) open() {
	k.raw("{")
	k.more = false
}

// member writes the name of the open object's next member (a literal
// needing no escapes), after a comma unless it is the first.
func (k *keyWriter) member(n string) {
	if k.more {
		k.raw(`,"`)
	} else {
		k.raw(`"`)
	}
	k.more = true
	k.buf = append(k.buf, n...)
	k.buf = append(k.buf, `":`...)
}

// elem starts element i of an array.
func (k *keyWriter) elem(i int) {
	if i == 0 {
		k.raw("[")
	} else {
		k.raw(",")
	}
}

// optString and optFloat write an omitempty member (±0 is empty).
func (k *keyWriter) optString(n, v string) {
	if v != "" {
		k.member(n)
		k.string(v)
	}
}

func (k *keyWriter) optFloat(n string, v float64) {
	if v != 0 {
		k.member(n)
		k.float(v)
	}
}

// float appends f as encoding/json does: shortest round-trip digits,
// exponent form below 1e-6 and from 1e21 in magnitude, the exponent
// unpadded (1e-7, not 1e-07). NaN and ±Inf have no JSON form and fail
// the key.
func (k *keyWriter) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if k.err == nil {
			k.err = fmt.Errorf("server: scenario key: unsupported value %v", f)
		}
		return
	}
	if len(k.buf) >= keyFlushAt {
		k.flush()
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(k.buf, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	k.buf = b
}

// string appends s as a JSON string the way encoding/json does with
// HTML escaping on: control characters, quote, backslash, <, > and &
// escaped, U+2028 and U+2029 escaped, invalid UTF-8 replaced by
// \ufffd.
func (k *keyWriter) string(s string) {
	const hexDigits = "0123456789abcdef"
	if len(k.buf) >= keyFlushAt {
		k.flush()
	}
	b := append(k.buf, '"')
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
	k.buf = append(b, '"')
}
