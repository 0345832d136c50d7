// Package server is the long-running estimation service: an HTTP/JSON
// daemon exposing the full staticest pipeline — static estimation
// (POST /v1/estimate), interpreter profiling with full or sparse
// instrumentation (POST /v1/profile), the frequency-guided optimizers
// (POST /v1/optimize), and estimator explainability (GET /v1/explain) —
// behind a compile-once/serve-many cache: compiled units live in a
// bounded LRU keyed by source fingerprint with singleflight
// deduplication, so N concurrent requests for the same program trigger
// exactly one compile.
//
// Robustness is part of the contract: every API request runs under a
// panic-to-500 recovery layer, one deadline (on the request context,
// which the interpreter polls, and on the connection's reads), a
// request-body size cap, and a bounded worker semaphore sized from the
// same parallelism knob as the evaluation harness (eval.Parallelism).
// A source declaring any object over ctypes.MaxObjectSize (1 GiB), or
// a function or unit over cfg.MaxNodes blocks or functions, is a
// compile error, 422 on every endpoint: an allocation the Go runtime
// cannot satisfy ends the process, which no recovery layer can catch.
// The server always carries an observability domain: per-endpoint RED
// instrumentation (response counters by status class),
// server_cache_hit / server_cache_miss / server_inflight series, and a
// root span per request carrying a request ID (accepted from
// traceparent or X-Request-ID, echoed back, and propagated via the
// request context through compile, estimation, probe planning,
// interpretation, ingest and inline planning, so one request is one
// span tree in the trace). Spans are the only clock: every latency the
// server reports, per endpoint and per layer, is a span_seconds
// histogram (see obs.SpanHistogram). It mounts its Prometheus-style
// exposition (/metrics), an ops snapshot (/v1/debug/status), the span
// trees of the slowest requests (/v1/debug/slow), and net/http/pprof
// (/debug/pprof/) on the same mux. Serve drains in-flight requests
// before returning when its context is cancelled (cmd/serve wires that
// to SIGTERM/SIGINT).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"time"

	"staticest"
	"staticest/internal/eval"
	"staticest/internal/ingest"
	"staticest/internal/obs"
)

// Config tunes one Server. The zero value is usable: every field has a
// production default.
type Config struct {
	// CacheSize bounds the compiled-unit LRU (default 64 units). Units
	// with a live aggregate are pinned outside it and not counted
	// there; CacheSize bounds them separately, and an ingest that would
	// register one more gets 507.
	CacheSize int
	// MaxBodyBytes caps request bodies (default 4 MiB — the largest
	// suite source is well under 1 MiB).
	MaxBodyBytes int64
	// RequestTimeout is the per-request wall-clock budget, the deadline
	// of the request context and of the connection's reads; a handler
	// that returns after it gets 503 (default 60s).
	RequestTimeout time.Duration
	// MaxConcurrent bounds API requests doing pipeline work at once;
	// excess requests queue on the semaphore for at most QueueWait
	// (default eval.Parallelism(), i.e. the harness's worker-pool
	// width).
	MaxConcurrent int
	// QueueWait bounds how long a request may wait for a worker slot
	// when the semaphore is saturated; past it the server sheds load
	// with 429 + Retry-After instead of queueing indefinitely (default
	// 500ms).
	QueueWait time.Duration
	// DrainTimeout bounds the graceful-shutdown drain (default 30s).
	DrainTimeout time.Duration
	// MaxSteps bounds each served interpreter run's block executions
	// (default 50 million; the interpreter's own default is 200M).
	MaxSteps int64
	// Obs is the observability domain. The server requires one — its
	// cache counters and /metrics exposition are part of the API — so
	// a nil Obs means "create a private Observer", not "disable".
	Obs *obs.Observer
}

func (c Config) withDefaults() Config {
	if c.CacheSize <= 0 {
		c.CacheSize = 64
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 4 << 20
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = eval.Parallelism()
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 500 * time.Millisecond
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = 50_000_000
	}
	if c.Obs == nil {
		c.Obs = obs.New()
	}
	return c
}

// Server serves estimation queries over compiled units.
type Server struct {
	cfg    Config
	obs    *obs.Observer
	cache  *unitCache
	ingest *ingest.Store
	sem    chan struct{}
	mux    *http.ServeMux

	hits     *obs.Counter
	misses   *obs.Counter
	inflight *obs.Gauge
	shed     *obs.Counter

	batchItems      *obs.Counter
	batchItemErrors *obs.Counter
	liveRejects     *obs.Counter // ingest_rejects_total{reason="live_limit"}

	// endpoints lists the API endpoint names in registration order;
	// /v1/debug/status walks it to summarize the server.<endpoint> span
	// histograms. Written only during New.
	endpoints []string
	slow      *slowRing
	started   time.Time
}

// New builds a Server and its routing table.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		obs:      cfg.Obs,
		cache:    newUnitCache(cfg.CacheSize),
		ingest:   ingest.NewStore(cfg.Obs),
		sem:      make(chan struct{}, cfg.MaxConcurrent),
		mux:      http.NewServeMux(),
		hits:     cfg.Obs.Counter("server_cache_hit"),
		misses:   cfg.Obs.Counter("server_cache_miss"),
		inflight: cfg.Obs.Gauge("server_inflight"),
		shed:     cfg.Obs.Counter("server_shed_total"),

		batchItems:      cfg.Obs.Counter("server_batch_items_total"),
		batchItemErrors: cfg.Obs.Counter("server_batch_item_errors_total"),
		liveRejects:     cfg.Obs.Counter(obs.Labels("ingest_rejects_total", "reason", "live_limit")),
		slow:            newSlowRing(slowRingSize),
		started:         time.Now(),
	}
	s.sampleRuntime()

	s.mux.Handle("POST /v1/estimate", s.api("estimate", s.handleEstimate))
	s.mux.Handle("POST /v1/batch", s.api("batch", s.handleBatch))
	s.mux.Handle("POST /v1/profile", s.api("profile", s.handleProfile))
	s.mux.Handle("POST /v1/optimize", s.api("optimize", s.handleOptimize))
	s.mux.Handle("GET /v1/explain", s.api("explain", s.handleExplain))
	s.mux.Handle("POST /v1/profiles/ingest", s.api("ingest", s.handleIngest))
	s.mux.Handle("GET /v1/profiles/stats", s.api("stats", s.handleStats))

	// Debug surfaces bypass the API middleware on purpose: an operator
	// diagnosing a saturated server must not queue behind the saturated
	// semaphore, and scrapes should not pollute the request metrics.
	s.mux.HandleFunc("GET /v1/debug/status", s.handleDebugStatus)
	s.mux.HandleFunc("GET /v1/debug/slow", s.handleDebugSlow)

	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"status\":\"ok\",\"cached_units\":%d,\"live_units\":%d}\n",
			s.cache.len(), s.ingest.Len())
	})
	s.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		s.sampleRuntime() // scrape-fresh runtime_* gauges
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.obs.WriteProm(w)
	})
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Observer returns the server's observability domain.
func (s *Server) Observer() *obs.Observer { return s.obs }

// Handler returns the server's routing table (API endpoints, /healthz,
// /metrics, /debug/pprof/).
func (s *Server) Handler() http.Handler { return s.mux }

// Handle mounts an extra handler on the server's mux (the drain test
// and embedders extending the service use it). It must be called
// before Serve.
func (s *Server) Handle(pattern string, h http.Handler) { s.mux.Handle(pattern, h) }

// httpError is an error with an HTTP status. Handlers return it to
// pick the response code; any other error maps to 500.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func errBadRequest(format string, args ...any) error {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func errNotFound(format string, args ...any) error {
	return &httpError{status: http.StatusNotFound, msg: fmt.Sprintf(format, args...)}
}

func errUnprocessable(format string, args ...any) error {
	return &httpError{status: http.StatusUnprocessableEntity, msg: fmt.Sprintf(format, args...)}
}

func errConflict(format string, args ...any) error {
	return &httpError{status: http.StatusConflict, msg: fmt.Sprintf(format, args...)}
}

// statusOf maps a handler error to its response status: an httpError's
// own, 413 for a body over MaxBodyBytes, and 500 for anything else.
func statusOf(err error) int {
	var he *httpError
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &he):
		return he.status
	case errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusInternalServerError
}

// eofBody is a request body that records whether it was read to its end.
type eofBody struct {
	io.ReadCloser
	eof bool
}

func (b *eofBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.eof = true
	}
	return n, err
}

// apiHandler computes one endpoint's response value; the middleware in
// api handles decoding limits, timeouts, recovery, and encoding.
type apiHandler func(r *http.Request) (any, error)

// rawJSON is a pre-encoded response body. A handler returning one tells
// the api middleware to write the bytes verbatim instead of re-encoding
// — the memoized-response path depends on this to serve byte-identical
// bodies without a serialization pass.
type rawJSON []byte

// api wraps an endpoint handler in the middleware stack, innermost
// first: JSON encoding and error mapping, panic-to-500 recovery, the
// worker semaphore, and the inflight gauge and per-endpoint RED
// instrumentation (response counters by status class, and the latency
// histogram the request's span feeds), which record the reply sent.
//
// A request has one deadline, RequestTimeout after it arrives: on its
// context, which the queue wait, the batch loop and the interpreter
// watch, and on its connection's reads, so a stalled body fails. The
// worker slot is freed before the reply is written, so a slow reader
// holds none. A handler that returns past the deadline gets 503
// {"error":"request timed out"}, whatever it returned, and the
// connection closes after the reply. So does a request whose body was
// not read to its end, such as one that failed to decode: its read
// deadline stays set, so net/http's drain of the rest of the body ends
// at the deadline too, and a client that stalls mid-body still gets
// its reply at once.
//
// Every request runs under a root span named "server.<endpoint>"
// carrying the request ID (accepted from traceparent / X-Request-ID or
// generated, and echoed back as X-Request-ID). The span is stored in
// the request context, so every pipeline stage underneath — compile,
// interpreter run, ingest merge — parents from it and the whole
// request is one tree in the trace. The tree is also captured in
// memory and, when the request ranks among the slowest seen, retained
// for GET /v1/debug/slow.
func (s *Server) api(name string, h apiHandler) http.Handler {
	s.endpoints = append(s.endpoints, name)
	errorsC := s.obs.Counter(obs.Labels("server_errors_total", "endpoint", name))
	panics := s.obs.Counter("server_panics_total")
	s.obs.SpanHistogram("server." + name) // exposed from the first scrape
	var classes [6]*obs.Counter
	for c := 2; c <= 5; c++ {
		classes[c] = s.obs.Counter(obs.Labels("server_responses_total",
			"endpoint", name, "class", fmt.Sprintf("%dxx", c)))
	}

	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		deadline := time.Now().Add(s.cfg.RequestTimeout)
		ctx, cancel := context.WithDeadline(r.Context(), deadline)
		defer cancel()
		// On w, not statusWriter, which does not unwrap to the
		// connection. A writer without one (a test recorder) returns
		// ErrNotSupported and keeps only the context deadline.
		rc := http.NewResponseController(w)
		_ = rc.SetReadDeadline(deadline)

		reqID := requestID(r)
		w.Header().Set("X-Request-ID", reqID)
		sw := &statusWriter{ResponseWriter: w}
		w = sw

		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		sp := s.obs.StartSpan("server."+name, obs.KV("req_id", reqID))
		capture := sp.Capture()
		defer func() {
			dur := sp.End()
			if c := sw.status / 100; c >= 2 && c <= 5 {
				classes[c].Add(1)
			}
			s.slow.offer(slowEntry{
				ReqID:    reqID,
				Endpoint: name,
				Status:   sw.status,
				DurUS:    dur.Microseconds(),
				capture:  capture,
			})
		}()
		r = r.WithContext(obs.ContextWithSpan(ctx, sp))
		body := &eofBody{ReadCloser: http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), eof: r.ContentLength == 0}
		r.Body = body

		// Bound concurrent pipeline work. A request never queues
		// indefinitely: when the semaphore is saturated it waits at most
		// QueueWait, then is shed with 429 + Retry-After so clients back
		// off instead of piling up. The un-contended path stays a single
		// non-blocking send (no timer allocation).
		var v any
		var err error
		select {
		case s.sem <- struct{}{}:
		default:
			t := time.NewTimer(s.cfg.QueueWait)
			select {
			case s.sem <- struct{}{}:
			case <-ctx.Done():
				err = ctx.Err() // answered as a timeout below
			case <-t.C:
				s.shed.Add(1)
				w.Header().Set("Retry-After", "1")
				err = &httpError{status: http.StatusTooManyRequests, msg: "server saturated: all workers busy; retry later"}
			}
			t.Stop()
		}
		if err == nil {
			v, err = func() (v any, err error) {
				defer func() {
					if p := recover(); p != nil {
						// The stack names source files: it goes on the
						// request's span, which /v1/debug/slow shows,
						// and not into the reply.
						panics.Add(1)
						sp.SetAttr("panic_stack", string(debug.Stack()))
						err = fmt.Errorf("internal error: %v", p)
					}
				}()
				return h(r)
			}()
			<-s.sem
		}
		// Clear the read deadline once the body is read to its end, then
		// judge by the clock as well as ctx: a background read that timed
		// out at the deadline cancels the connection's context for its
		// next request, perhaps only after this check, so any reply at
		// or past it closes the connection. A body not read to its end
		// (a decode error, a shed request) keeps the deadline, which
		// bounds net/http's drain of the rest after the reply, and its
		// connection closes.
		if body.eof {
			_ = rc.SetReadDeadline(time.Time{})
		} else {
			w.Header().Set("Connection", "close")
		}
		if ctx.Err() != nil || !time.Now().Before(deadline) {
			v, err = nil, &httpError{status: http.StatusServiceUnavailable, msg: "request timed out"}
			w.Header().Set("Connection", "close")
		}
		if err != nil {
			errorsC.Add(1)
			writeJSONError(w, statusOf(err), err.Error())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if raw, ok := v.(rawJSON); ok {
			if _, err := w.Write(raw); err != nil {
				errorsC.Add(1)
			}
			return
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			errorsC.Add(1)
		}
	})
}

func writeJSONError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// decode unmarshals the request body into v (strictly: unknown fields
// are errors, so typos in request shapes fail loudly instead of being
// silently ignored).
func decode(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return err // mapped to 413 by api
		}
		return errBadRequest("decoding request: %v", err)
	}
	return nil
}

// compileCached resolves a source through the unit cache, bumping the
// hit/miss counters. name labels ad-hoc sources (default "prog.c").
// ctx carries the request's span: a cache-miss compile attaches to the
// tree of the request that triggered it (the singleflight leader's,
// when waiters deduplicate onto an in-flight compile; a waiter's wait
// shows only in its own request span).
func (s *Server) compileCached(ctx context.Context, name string, src []byte) (*compiled, error) {
	if name == "" {
		name = "prog.c"
	}
	key := staticest.Fingerprint(src)
	c, missed, err := s.cache.get(key, func() (*staticest.Unit, error) {
		return staticest.CompileCtx(ctx, name, src, s.obs)
	})
	if missed {
		s.misses.Add(1)
	} else {
		s.hits.Add(1)
	}
	if err != nil {
		return nil, errUnprocessable("compile %s: %v", name, err)
	}
	return c, nil
}

// Serve accepts connections on ln until ctx is cancelled, then drains:
// in-flight requests get up to Config.DrainTimeout to complete before
// the listener's goroutines are torn down. A clean drain returns nil.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err // listener failed before shutdown was requested
	case <-ctx.Done():
	}
	dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	err := hs.Shutdown(dctx)
	s.sampleRuntime() // fresh runtime_* gauges for an exit-time exposition or Flush
	return err
}

// ListenAndServe listens on addr and calls Serve.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln)
}
