package server

import (
	"context"
	"errors"
	"net/http"

	"dvsslack/internal/scenario"
)

// handleScenario answers POST /v1/scenario: execute a declarative
// scenario document (YAML or JSON, sniffed from the body) and return
// its verdict. The response body is the verdict's canonical byte
// form — identical to a local `dvsscen run -json` of the same
// document — so callers can compare verdicts across transports with
// cmp. A scenario whose assertions fail still answers 200 (the
// verdict reports ok=false); 4xx is reserved for documents that do
// not validate, with every validation error listed.
func (s *Server) handleScenario(w http.ResponseWriter, r *http.Request) {
	_, doc, ok := s.front.ReadScenario(w, r)
	if !ok {
		return
	}
	// Scenario runs execute on the request goroutine (one audited
	// simulation per listed policy); admission control bounds how
	// many run at once, exactly like synchronous /v1/simulate.
	if err := s.admit.TryAcquire(); err != nil {
		s.met.shed.Inc()
		w.Header().Set("Retry-After", ShedRetryAfter)
		WriteError(w, http.StatusTooManyRequests, "%v", err)
		return
	}
	defer s.admit.Release()
	v, err := scenario.Execute(r.Context(), doc)
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		w.Header().Set("Retry-After", ShedRetryAfter)
		WriteError(w, http.StatusServiceUnavailable, "server: request deadline exceeded")
		return
	case errors.Is(err, context.Canceled):
		WriteError(w, http.StatusRequestTimeout, "%v", err)
		return
	case err != nil:
		WriteError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	s.met.scenariosRun.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(v.JSON())
}
