package main

import (
	"context"
	"errors"
	"math"
	"net"
	"net/http"
	"runtime/metrics"
	"syscall"
	"time"

	"staticest/internal/obs"
	"staticest/internal/server"
)

// liveServer is the production server on a loopback listener.
type liveServer struct {
	srv  *server.Server
	addr string
	stop func() error
}

// startServer builds the server with the default Config and serves it
// with Server.Serve on a loopback listener, as cmd/serve ships it (which
// also hands the server a fresh observer).
func startServer() (*liveServer, error) {
	s := server.New(server.Config{Obs: obs.New()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- s.Serve(ctx, ln) }()
	stop := func() error {
		cancel()
		return <-errc
	}
	return &liveServer{srv: s, addr: ln.Addr().String(), stop: stop}, nil
}

// serveTraced serves the same server on a second loopback listener whose
// handler tr wraps in server spans, with Server.Serve's http.Server
// settings.
func serveTraced(s *server.Server, tr *tracer) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: tr.wrap(s.Handler()), ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	stop := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		err := hs.Shutdown(ctx)
		if serr := <-errc; err == nil && !errors.Is(serr, http.ErrServerClosed) {
			err = serr
		}
		return err
	}
	return &liveServer{srv: s, addr: ln.Addr().String(), stop: stop}, nil
}

// usage is the process's resource use up to a moment; since turns two
// readings into the use between them.
type usage struct {
	cpu    time.Duration // user + system CPU of the process
	allocs uint64        // Go heap bytes allocated
	// gcCPU and busyCPU are the runtime's CPU-time estimates: time spent
	// in GC, and all CPU time available to Go minus idle time.
	gcCPU, busyCPU float64
	// pauses is the GC stop-the-world pause histogram.
	pauses  []uint64
	buckets []float64
}

var usageMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]metrics.Sample, len(usageMetrics))
	for i, name := range usageMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	h := s[4].Value.Float64Histogram()
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs:  s[0].Value.Uint64(),
		gcCPU:   s[1].Value.Float64(),
		busyCPU: s[2].Value.Float64() - s[3].Value.Float64(),
		pauses:  append([]uint64(nil), h.Counts...),
		buckets: h.Buckets,
	}
}

func (u usage) since(b usage) usage {
	d := usage{cpu: u.cpu - b.cpu, allocs: u.allocs - b.allocs, gcCPU: u.gcCPU - b.gcCPU,
		busyCPU: u.busyCPU - b.busyCPU, buckets: u.buckets, pauses: make([]uint64, len(u.pauses))}
	for i := range u.pauses {
		d.pauses[i] = u.pauses[i] - b.pauses[i]
	}
	return d
}

// gcShare is the share of the CPU time Go used that went to GC.
func (u usage) gcShare() float64 {
	if u.busyCPU <= 0 {
		return 0
	}
	return u.gcCPU / u.busyCPU
}

// pauseQuantile is the q-quantile GC pause in milliseconds, read as the
// upper bound of the histogram bucket it falls in; 0 when nothing paused.
func (u usage) pauseQuantile(q float64) float64 {
	var total uint64
	for _, c := range u.pauses {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, c := range u.pauses {
		cum += c
		if cum >= rank {
			hi := u.buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = u.buckets[i]
			}
			return hi * 1e3
		}
	}
	return 0
}

// liveHeap returns the heap bytes the last GC found live; call it right
// after runtime.GC.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
