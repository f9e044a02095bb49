package obs

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"sync"
)

// Registry is an expvar-style collection of named snapshot providers. A
// provider is any func returning a JSON-serializable value; providers are
// invoked on demand when a snapshot is requested, so registering one costs
// nothing at runtime.
//
// Publishing under an existing name replaces the previous provider: a
// benchmark harness that builds one environment per experiment keeps the
// live one visible without unbounded growth.
type Registry struct {
	mu        sync.RWMutex
	providers map[string]func() any
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{providers: make(map[string]func() any)}
}

// Default is the process-wide registry served by Serve; the bench
// environment publishes its stack snapshot here.
var Default = NewRegistry()

// Publish registers (or replaces) a named snapshot provider.
func (r *Registry) Publish(name string, fn func() any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.providers[name] = fn
}

// Snapshot invokes every provider and returns the combined view.
func (r *Registry) Snapshot() map[string]any {
	r.mu.RLock()
	fns := make(map[string]func() any, len(r.providers))
	for name, fn := range r.providers {
		fns[name] = fn
	}
	r.mu.RUnlock()
	out := make(map[string]any, len(fns))
	for name, fn := range fns {
		out[name] = fn()
	}
	return out
}

// ServeHTTP renders the registry as pretty-printed JSON.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(r.Snapshot())
}

// Handler returns an http.Handler exposing the default registry at
// /metrics (and /) plus the net/http/pprof endpoints at /debug/pprof/.
func Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", Default)
	mux.Handle("/metrics", Default)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve starts the metrics listener on addr in a background goroutine
// (the -metrics-addr flag of cmd/paper). Errors after startup
// are reported through errFn (which may be nil).
func Serve(addr string, errFn func(error)) {
	go func() {
		if err := http.ListenAndServe(addr, Handler()); err != nil && errFn != nil {
			errFn(err)
		}
	}()
}
