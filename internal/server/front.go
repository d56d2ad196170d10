package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dvsslack/internal/obs"
	"dvsslack/internal/policies"
	"dvsslack/internal/resilience"
	"dvsslack/internal/scenario"
	"dvsslack/internal/sim"
)

// Frontend is the HTTP layer dvsd and the dvsfleet coordinator share,
// so the two answer every request they both serve the same way: one
// request plumbing (Instrument), one strict decode and error envelope,
// one drain gate, one panic recovery, and the async job API over one
// job store. What really differs stays with each service: how a job
// run executes (the RunFunc the store is built with), the back halves
// of /v1/simulate and /v1/scenario, readiness, and the metrics and
// trace documents.
type Frontend struct {
	service    string // span-name prefix: "dvsd" or "dvsfleet"
	log        *slog.Logger
	tracer     *obs.Tracer
	timeout    time.Duration // server-side request bound; 0 = the client's header alone
	maxBody    int64
	sseTimeout time.Duration
	met        *HTTPMetrics
	jobs       *jobStore

	draining atomic.Bool
	// baseCtx is the lifetime of accepted jobs; Stop cancels it.
	baseCtx  context.Context
	baseStop context.CancelFunc
}

// FrontendSpec wires a Frontend into one service.
type FrontendSpec struct {
	// Service prefixes handler span names ("dvsd" -> "dvsd.simulate").
	Service string
	// JobPrefix prefixes job IDs ("j1", "fj1").
	JobPrefix string
	// Log receives access and stream logs; nil discards them.
	Log *slog.Logger
	// Tracer records handler spans; nil records none (inbound trace
	// context still propagates).
	Tracer *obs.Tracer
	// RequestTimeout bounds every instrumented request; a client's
	// X-Request-Deadline may tighten it. 0 leaves the header alone.
	RequestTimeout time.Duration
	// SSEWriteTimeout is the per-event write deadline of job streams;
	// <= 0 selects 5s.
	SSEWriteTimeout time.Duration
	// MaxBodyBytes bounds request bodies; <= 0 selects 32 MiB.
	MaxBodyBytes int64
	// Metrics are the service's own families the layer records into.
	Metrics *HTTPMetrics
	// Run executes one job run; Width bounds a job's runs in flight.
	Run   RunFunc
	Width func() int
}

// HTTPMetrics are the metric families a Frontend records into. Each
// service registers them in its own registry under its own names
// (dvsd_http_requests_total, dvsfleet_http_requests_total, ...); a
// family a service does not expose is a bare counter.
type HTTPMetrics struct {
	Requests *obs.CounterVec   // requests by endpoint label
	Errors   *obs.CounterVec   // non-2xx responses by endpoint label
	Latency  *obs.HistogramVec // request wall time by endpoint label

	JobsCreated  *obs.Counter
	JobsFinished *obs.Counter

	Timeouts   *obs.Counter // requests that exhausted their deadline
	Panics     *obs.Counter // handler panics turned into 500s
	SSEDropped *obs.Counter // SSE consumers dropped for slow or failed writes
	SSELagged  *obs.Counter // SSE events lost to full subscriber buffers
}

func (m *HTTPMetrics) request(endpoint string, ok bool) {
	m.Requests.With(endpoint).Inc()
	if !ok {
		m.Errors.With(endpoint).Inc()
	}
}

// RunFunc executes one run of a job. snap, when non-nil, resumes the
// run from a checkpoint envelope, and ctl lets the job pause or
// live-capture it; a paused run returns its envelope and a nil error.
// dvsd builds its job store with pool.DoRun; the dvsfleet coordinator,
// which mounts neither checkpoint nor restore, with its ring router.
type RunFunc func(ctx context.Context, req *SimRequest, snap []byte, ctl *RunControl) (SimResult, []byte, error)

// RunControl is the handle a job holds on one in-flight run, named
// here so a RunFunc can be written outside this package.
type RunControl = runControl

// NewFrontend builds the shared layer of one service.
func NewFrontend(spec FrontendSpec) *Frontend {
	f := &Frontend{
		service:    spec.Service,
		log:        spec.Log,
		tracer:     spec.Tracer,
		timeout:    spec.RequestTimeout,
		maxBody:    spec.MaxBodyBytes,
		sseTimeout: spec.SSEWriteTimeout,
		met:        spec.Metrics,
		jobs:       newJobStore(spec.JobPrefix, spec.Run, spec.Width, spec.Metrics),
	}
	if f.log == nil {
		f.log = obs.Discard()
	}
	if f.maxBody <= 0 {
		f.maxBody = 32 << 20
	}
	if f.sseTimeout <= 0 {
		f.sseTimeout = 5 * time.Second
	}
	f.baseCtx, f.baseStop = context.WithCancel(context.Background())
	return f
}

// Mount registers the endpoints whose answer does not depend on the
// service: the job API, /v1/policies and /healthz.
func (f *Frontend) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/jobs", f.Instrument("jobs.create", f.handleCreateJob))
	mux.HandleFunc("GET /v1/jobs", f.Instrument("jobs.list", f.handleListJobs))
	mux.HandleFunc("GET /v1/jobs/{id}", f.Instrument("jobs.get", f.handleGetJob))
	mux.HandleFunc("DELETE /v1/jobs/{id}", f.Instrument("jobs.cancel", f.handleCancelJob))
	mux.HandleFunc("GET /v1/jobs/{id}/events", f.handleJobEvents) // SSE, self-instrumented
	mux.HandleFunc("GET /v1/policies", f.Instrument("policies", handlePolicies))
	mux.HandleFunc("GET /healthz", f.handleHealthz)
}

// Recover wraps h so a handler panic costs one 500, not the
// connection: the panic is counted and logged.
func (f *Frontend) Recover(h http.Handler) http.Handler {
	return resilience.Recover(h, func(v any) {
		f.met.Panics.Inc()
		f.log.Error("handler panic recovered", "panic", fmt.Sprint(v))
	})
}

// Draining reports whether Drain has begun.
func (f *Frontend) Draining() bool { return f.draining.Load() }

// Drain makes every gated endpoint answer 503 + Retry-After and waits
// until the jobs already accepted reach a terminal state or ctx
// expires.
func (f *Frontend) Drain(ctx context.Context) error {
	f.draining.Store(true)
	return f.jobs.WaitIdle(ctx)
}

// Stop cancels every job, waits for their runners to settle or ctx to
// expire, and ends the jobs' base context.
func (f *Frontend) Stop(ctx context.Context) {
	f.jobs.CancelAll(ctx)
	f.baseStop()
}

// --- request plumbing ---

// statusWriter records the response code for metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap keeps http.ResponseController upgrades (flush, write
// deadlines) working through the wrapper.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// requestDeadline resolves the effective deadline of one request:
// the tighter of the server-side bound and the client's
// X-Request-Deadline header (a Go duration, e.g. "750ms"). 0 means
// unbounded.
func (f *Frontend) requestDeadline(r *http.Request) (time.Duration, error) {
	d := f.timeout
	if h := r.Header.Get("X-Request-Deadline"); h != "" {
		cd, err := time.ParseDuration(h)
		if err != nil || cd <= 0 {
			return 0, fmt.Errorf("server: invalid X-Request-Deadline %q (want a positive Go duration)", h)
		}
		if d == 0 || cd < d {
			d = cd
		}
	}
	return d, nil
}

// Instrument wraps a handler with request counting, latency
// recording, per-request deadline enforcement, and request-ID access
// logging. A valid inbound X-Request-ID (a coordinator hop or a
// client-supplied ID) is adopted so fleet logs correlate; otherwise a
// fresh ID is minted. Either way the ID is returned in X-Request-ID.
// An inbound traceparent header is continued: the handler runs inside
// a <service>.<label> span (when tracing is on) and the request
// context carries the span context and the deadline on to the
// simulation pool and to outbound calls.
func (f *Frontend) Instrument(label string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if !obs.ValidRequestID(id) {
			id = obs.NewRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		deadline, err := f.requestDeadline(r)
		if err != nil {
			f.met.request(label, false)
			WriteError(sw, http.StatusBadRequest, "%v", err)
			return
		}
		parent, _ := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader))
		span := f.tracer.StartSpan(parent, f.service+"."+label) // nil-safe: nil span when tracing is off
		sc := span.Context()
		if !sc.Valid() {
			sc = parent // propagate the inbound context even with recording off
		}
		ctx := obs.ContextWithRequestID(r.Context(), id)
		if sc.Valid() {
			ctx = obs.ContextWithSpanContext(ctx, sc)
		}
		if deadline > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, deadline)
			defer cancel()
		}
		r = r.WithContext(ctx)
		start := time.Now()
		h(sw, r)
		dur := time.Since(start)
		if deadline > 0 && errors.Is(ctx.Err(), context.DeadlineExceeded) {
			f.met.Timeouts.Inc()
		}
		f.met.request(label, sw.code < 400)
		f.met.Latency.With(label).Observe(dur.Seconds())
		span.SetAttr("endpoint", label)
		span.SetAttr("status", strconv.Itoa(sw.code))
		span.SetAttr("request_id", id)
		span.End()
		attrs := []slog.Attr{
			slog.String("id", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.String("endpoint", label),
			slog.Int("status", sw.code),
			slog.Duration("dur", dur),
		}
		if sc.Valid() {
			attrs = append(attrs, slog.String("trace", sc.TraceID.String()))
		}
		f.log.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
	}
}

// jsonWriter is one pooled response encoder: the indenting encoder
// writes into buf, and buf goes out in one Write. Its encoder keeps
// its indent scratch between uses too.
type jsonWriter struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonWriters = sync.Pool{New: func() any {
	jw := new(jsonWriter)
	jw.enc = json.NewEncoder(&jw.buf)
	jw.enc.SetIndent("", "  ")
	return jw
}}

// maxPooledJSON is the largest response whose buffers go back to the
// pool: a rare large body (a job with all its results) must not stay
// pinned for the life of the process.
const maxPooledJSON = 64 << 10

// WriteJSON writes v as an indented JSON response.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	jw := jsonWriters.Get().(*jsonWriter)
	jw.buf.Reset()
	err := jw.enc.Encode(v)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err == nil {
		w.Write(jw.buf.Bytes())
	}
	if jw.buf.Cap() <= maxPooledJSON {
		jsonWriters.Put(jw)
	}
}

// WriteResult writes a /v1/simulate result through the wire codec:
// the bytes, headers and status WriteJSON would write for it.
func WriteResult(w http.ResponseWriter, code int, res *SimResult) {
	wb := getWireBuf()
	defer wb.release()
	b, err := AppendResult(wb.b, res)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err == nil {
		wb.b = b
		w.Write(b)
	}
}

// WriteError writes the ErrorBody envelope every non-2xx response
// uses.
func WriteError(w http.ResponseWriter, code int, format string, args ...any) {
	WriteJSON(w, code, ErrorBody{Error: fmt.Sprintf(format, args...)})
}

// decodeBody strictly decodes a JSON request body into v.
func (f *Frontend) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(w, r.Body, f.maxBody)
	if err := decodeStrict(body, v); err != nil {
		WriteError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return false
	}
	io.Copy(io.Discard, body)
	return true
}

// errTrailingData rejects a body with more than one JSON value.
var errTrailingData = errors.New("trailing data")

// decodeStrict decodes one JSON value from body into v with
// encoding/json, rejecting unknown fields and trailing data.
func decodeStrict(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errTrailingData
	}
	return nil
}

// DrainRetryAfter is the Retry-After hint (seconds) on draining 503s:
// long enough for a load balancer to fail over, short enough that a
// client retrying the same address after a rolling restart succeeds.
const DrainRetryAfter = "5"

// ShedRetryAfter is the Retry-After hint (seconds) on shed (429) and
// deadline-exceeded (503) responses: overload is expected to clear on
// the scale of in-flight run latency, not process lifetime.
const ShedRetryAfter = "1"

func (f *Frontend) rejectIfDraining(w http.ResponseWriter) bool {
	if f.draining.Load() {
		w.Header().Set("Retry-After", DrainRetryAfter)
		WriteError(w, http.StatusServiceUnavailable, "%v", ErrDraining)
		return true
	}
	return false
}

// DecodeSimulate is the front half of POST /v1/simulate: the drain
// gate, a strict decode (ReadRequest), and validation, which builds
// the run's config. The config holds fresh policy, processor and
// workload values owned by this request alone, so dvsd hands it to
// the worker that runs the request rather than building it twice.
// ok=false means the error response has been written.
func (f *Frontend) DecodeSimulate(w http.ResponseWriter, r *http.Request) (req *SimRequest, cfg sim.Config, ok bool) {
	if f.rejectIfDraining(w) {
		return nil, cfg, false
	}
	req, err := ReadRequest(http.MaxBytesReader(w, r.Body, f.maxBody))
	if err != nil {
		WriteError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return nil, cfg, false
	}
	cfg, err = req.Config()
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return nil, cfg, false
	}
	return req, cfg, true
}

// ReadScenario is the front half of POST /v1/scenario: the drain gate,
// then the document (YAML or JSON, sniffed from the body) is parsed
// and validated. A document that does not validate answers 400 with
// every error listed. ok=false means the error response has been
// written.
func (f *Frontend) ReadScenario(w http.ResponseWriter, r *http.Request) (body []byte, doc *scenario.Document, ok bool) {
	if f.rejectIfDraining(w) {
		return nil, nil, false
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, f.maxBody))
	if err != nil {
		WriteError(w, http.StatusBadRequest, "reading scenario body: %v", err)
		return nil, nil, false
	}
	doc, errs := scenario.Parse("scenario", body)
	if len(errs) > 0 {
		msgs := make([]string, len(errs))
		for i, e := range errs {
			msgs[i] = e.Error()
		}
		WriteJSON(w, http.StatusBadRequest, ErrorBody{
			Error:  fmt.Sprintf("scenario failed validation with %d error(s): %s", len(errs), msgs[0]),
			Errors: msgs,
		})
		return nil, nil, false
	}
	return body, doc, true
}

// --- shared handlers ---

// handleHealthz answers GET /healthz (liveness: the process serves).
func (f *Frontend) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if f.draining.Load() {
		w.Header().Set("Retry-After", DrainRetryAfter)
		WriteError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handlePolicies answers GET /v1/policies with the registry names.
// Every service is built from the same binary's registry, so the
// answer is authoritative wherever it is served.
func handlePolicies(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]any{
		"policies": policies.Names(),
		"wrappers": []string{"crit", "dual", "guard"},
	})
}

// handleCreateJob answers POST /v1/jobs: submit a batch, get an ID.
func (f *Frontend) handleCreateJob(w http.ResponseWriter, r *http.Request) {
	if f.rejectIfDraining(w) {
		return
	}
	var req BatchRequest
	if !f.decodeBody(w, r, &req) {
		return
	}
	runs := req.Runs
	if req.Sweep != nil {
		expanded, err := req.Sweep.Expand()
		if err != nil {
			WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		runs = append(runs, expanded...)
	}
	if len(runs) == 0 {
		WriteError(w, http.StatusBadRequest, "server: job has no runs")
		return
	}
	if len(runs) > MaxBatchRuns {
		WriteError(w, http.StatusBadRequest, "server: job has %d runs, limit %d", len(runs), MaxBatchRuns)
		return
	}
	for i := range runs {
		if err := runs[i].Validate(); err != nil {
			WriteError(w, http.StatusBadRequest, "run %d: %v", i, err)
			return
		}
	}
	j := f.jobs.Create(f.baseCtx, req.Name, runs)
	WriteJSON(w, http.StatusAccepted, j.info(false))
}

// handleListJobs answers GET /v1/jobs.
func (f *Frontend) handleListJobs(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, f.jobs.List())
}

// handleGetJob answers GET /v1/jobs/{id}; ?results=1 includes per-run
// outcomes.
func (f *Frontend) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j, ok := f.jobs.Get(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, "server: no such job %q", r.PathValue("id"))
		return
	}
	withResults := r.URL.Query().Get("results") != ""
	WriteJSON(w, http.StatusOK, j.info(withResults))
}

// handleCancelJob answers DELETE /v1/jobs/{id}.
func (f *Frontend) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	if !f.jobs.Cancel(r.PathValue("id")) {
		WriteError(w, http.StatusNotFound, "server: no such job %q", r.PathValue("id"))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleJobEvents answers GET /v1/jobs/{id}/events with an SSE stream
// of progress events, ending with an "end" event when the job reaches
// a terminal state. Every write is armed with the SSE write deadline:
// a consumer that stops reading is dropped (and counted) instead of
// pinning this goroutine to a dead connection.
func (f *Frontend) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := f.jobs.Get(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, "server: no such job %q", r.PathValue("id"))
		f.met.request("jobs.events", false)
		return
	}
	f.met.request("jobs.events", true)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	ch, snapshot, unsub := j.subscribe()
	defer unsub()
	sink := &httpSSESink{w: w, rc: http.NewResponseController(w)}
	if err := streamJob(r.Context(), sink, j, snapshot, ch, f.sseTimeout); err != nil {
		f.met.SSEDropped.Inc()
		f.log.LogAttrs(r.Context(), slog.LevelWarn, "sse consumer dropped",
			slog.String("job", j.id), slog.String("err", err.Error()))
	}
}

// httpSSESink adapts an http.ResponseWriter (through its
// ResponseController, so write deadlines survive middleware
// wrapping) to the sseSink interface streamJob consumes.
type httpSSESink struct {
	w  http.ResponseWriter
	rc *http.ResponseController
}

func (s *httpSSESink) Write(p []byte) (int, error) { return s.w.Write(p) }

func (s *httpSSESink) SetWriteDeadline(t time.Time) error { return s.rc.SetWriteDeadline(t) }

func (s *httpSSESink) Flush() error {
	err := s.rc.Flush()
	if errors.Is(err, http.ErrNotSupported) {
		// A buffering transport cannot stream, but the events still
		// arrive when the response completes; not a dropped consumer.
		return nil
	}
	return err
}
