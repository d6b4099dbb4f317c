package server

// Debug HTTP surface: recent traces as JSON (or Chrome trace_event JSON),
// a filterable goroutine dump for diagnosing stuck jobs, and the pprof
// profiling endpoints — served on the main mux (traces, goroutines) and on
// capserved's optional -debug-addr mux (everything, including pprof). It
// lives here, not in internal/obs, so the batch binaries that record spans
// link no HTTP server.

import (
	"net/http"
	"net/http/pprof"
	"time"

	"headroom/internal/leakcheck"
	"headroom/internal/obs"
)

// tracesHandler serves the tracer's retained traces.
//
//	GET /debug/traces                 all retained traces, newest first
//	GET /debug/traces?id=<trace_id>   one trace
//	GET /debug/traces?format=chrome   Chrome trace_event JSON for chrome://tracing
func tracesHandler(t *obs.Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if t == nil {
			http.Error(w, "tracing disabled", http.StatusNotFound)
			return
		}
		var traces []obs.TraceData
		if id := r.URL.Query().Get("id"); id != "" {
			td, ok := t.Trace(id)
			if !ok {
				writeJSON(w, http.StatusNotFound, map[string]any{"error": "no trace " + id})
				return
			}
			traces = []obs.TraceData{td}
		} else {
			traces = t.Traces()
		}
		if r.URL.Query().Get("format") == "chrome" {
			w.Header().Set("Content-Type", "application/json")
			obs.WriteChrome(w, traces...)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"count":  len(traces),
			"traces": traces,
		})
	})
}

// goroutinesHandler serves a parsed goroutine dump, filterable by blocked
// age — GET /debug/goroutines?min_age=5m keeps only goroutines the runtime
// reports blocked at least that long (minute granularity), which is how a
// stuck job looks in production.
func goroutinesHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var minAge time.Duration
		if v := r.URL.Query().Get("min_age"); v != "" {
			d, err := time.ParseDuration(v)
			if err != nil || d < 0 {
				writeJSON(w, http.StatusBadRequest,
					map[string]any{"error": "min_age must be a non-negative duration like 5m"})
				return
			}
			minAge = d
		}
		all := leakcheck.DumpGoroutines()
		gs := all
		if minAge > 0 {
			gs = gs[:0:0]
			for _, g := range all {
				if g.Wait >= minAge {
					gs = append(gs, g)
				}
			}
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"total":      len(all),
			"count":      len(gs),
			"min_age":    minAge.String(),
			"goroutines": gs,
		})
	})
}

// DebugMux bundles the full debug surface — traces, goroutines and pprof —
// for the standalone -debug-addr listener.
func DebugMux(t *obs.Tracer) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/debug/traces", tracesHandler(t))
	mux.Handle("/debug/goroutines", goroutinesHandler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
