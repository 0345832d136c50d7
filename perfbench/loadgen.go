package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptrace"
	"sync"
	"time"
)

// call is one request the benchmark sends. Bodies are encoded while the
// inputs are generated, so a timed phase only copies bytes.
type call struct {
	kind   string // estimate, batch, upload, profile, optimize
	method string
	path   string
	body   []byte
	// item indexes the workload's inputs: a hot source, a batch, or a
	// (program, input) pair.
	item int
	// seq numbers the batches of batch-cold in send order.
	seq int64
}

// client sends calls over at most conns keep-alive connections.
type client struct {
	base string
	tr   *http.Transport
	hc   *http.Client
}

func newClient(addr string, conns int) *client {
	tr := &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{base: "http://" + addr, tr: tr, hc: &http.Client{Transport: tr}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// do sends c and reads the whole response body into buf. reqID, when
// set, travels as the request ID header; reused, when non-nil, reports
// whether the request went out on a kept-alive connection.
func (c *client) do(cl *call, buf *bytes.Buffer, reqID string, reused *bool) (int, error) {
	ctx := context.Background()
	if reused != nil {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			GotConn: func(info httptrace.GotConnInfo) { *reused = info.Reused },
		})
	}
	req, err := http.NewRequestWithContext(ctx, cl.method, c.base+cl.path, bytes.NewReader(cl.body))
	if err != nil {
		return 0, err
	}
	if cl.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if reqID != "" {
		req.Header.Set(reqHeader, reqID)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// runClosed runs conns callers until deadline; each sends its next
// request only after the previous reply. send performs one request for
// caller w.
func runClosed(deadline time.Time, conns int, send func(w int)) {
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				send(w)
			}
		}(w)
	}
	wg.Wait()
}

// arrival is one open-loop request: its send time as an offset from the
// phase start, and what to send.
type arrival struct {
	at   time.Duration
	call *call
}

// openResult is one open-loop request's timing.
type openResult struct {
	// lag is how late the generator released the request after its
	// scheduled time.
	lag time.Duration
	// latency runs from the scheduled time to the reply, so a stall is
	// charged to every request that was due during it.
	latency time.Duration
}

// clock is the open loop's time source; tests substitute a fake one.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// runOpen releases each arrival at its scheduled time to at most conns
// workers. The generator sleeps to absolute times and never waits for a
// worker, so a late wake-up or a busy server delays requests without
// dropping any: every arrival is sent, and those released late send at
// once. send performs one request on worker w and returns when its reply
// completed.
func runOpen(clk clock, sched []arrival, conns int, send func(w int, a *arrival) time.Time) []openResult {
	res := make([]openResult, len(sched))
	// Sized to the number of sends, so releasing a request never blocks.
	jobs := make(chan int, len(sched))
	start := clk.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range jobs {
				done := send(w, &sched[i])
				res[i].latency = done.Sub(start.Add(sched[i].at))
			}
		}(w)
	}
	for i := range sched {
		due := start.Add(sched[i].at)
		clk.SleepUntil(due)
		if lag := clk.Now().Sub(due); lag > 0 {
			res[i].lag = lag
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return res
}
