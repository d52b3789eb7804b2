package obs

import (
	"fmt"
	"net/http"
	"net/http/pprof"
)

// Telemetry bundles the two halves of the subsystem: the metrics registry
// and the span tracer. A nil *Telemetry means disabled; the accessors are
// nil-safe so wiring code reads the same either way.
type Telemetry struct {
	Metrics *Registry
	Trace   *Tracer
}

// New returns an enabled telemetry bundle.
func New() *Telemetry {
	reg, tr := NewRegistry(), NewTracer()
	tr.dropped = reg.Counter(MSpansDropped)
	return &Telemetry{Metrics: reg, Trace: tr}
}

// Registry returns the metrics registry, nil when telemetry is disabled.
func (t *Telemetry) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.Metrics
}

// Tracer returns the span tracer, nil when telemetry is disabled.
func (t *Telemetry) Tracer() *Tracer {
	if t == nil {
		return nil
	}
	return t.Trace
}

// Handler serves the telemetry over HTTP:
//
//	/metrics      Prometheus text exposition of the registry
//	/debug/vars   the same snapshot as expvar-style JSON
//	/trace        the finished spans as JSONL (the -trace-out format, live)
//	/debug/pprof  the standard runtime profiles (CPU, heap, goroutine, ...)
//
// Mounting pprof here instead of http.DefaultServeMux keeps the profiles
// off any mux the embedding program may already export.
func Handler(reg *Registry, tr *Tracer) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = reg.WriteVars(w)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = tr.WriteJSONL(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintln(w, "crowdtopk telemetry: /metrics /debug/vars /trace /debug/pprof/")
	})
	return mux
}

// Handler serves this telemetry bundle; see the package-level Handler.
func (t *Telemetry) Handler() http.Handler {
	return Handler(t.Registry(), t.Tracer())
}
