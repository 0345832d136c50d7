package main

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is an open-loop clock whose sleeps return at once; stall adds
// extra lateness to the n-th sleep, as a descheduled generator would.
type fakeClock struct {
	mu    sync.Mutex
	now   time.Time
	stall map[int]time.Duration
	calls int
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.now.Before(t) {
		c.now = t
	}
	c.now = c.now.Add(c.stall[c.calls])
	c.calls++
}

func TestOpenLoopLagAccounting(t *testing.T) {
	const ms = time.Millisecond
	clk := &fakeClock{now: time.Unix(0, 0), stall: map[int]time.Duration{2: 35 * ms}}
	var sched []arrival
	for i := 0; i < 10; i++ {
		sched = append(sched, arrival{at: time.Duration(i) * 10 * ms, call: &call{item: i}})
	}
	var mu sync.Mutex
	sent := 0
	res := runOpen(clk, sched, 2, func(w int, a *arrival) time.Time {
		mu.Lock()
		sent++
		mu.Unlock()
		return clk.Now().Add(ms) // 1 ms of service
	})
	if sent != len(sched) {
		t.Fatalf("sent %d of %d arrivals: a late generator must not drop any", sent, len(sched))
	}
	// The generator woke 35 ms late for the arrival due at 20 ms; the
	// arrivals due during the stall go out at once, each as late as the
	// stall left it.
	want := []time.Duration{0, 0, 35 * ms, 25 * ms, 15 * ms, 5 * ms, 0, 0, 0, 0}
	for i, r := range res {
		if r.lag != want[i] {
			t.Errorf("arrival %d: lag %v, want %v", i, r.lag, want[i])
		}
		// Latency runs from the scheduled time, so it carries the lag.
		if r.latency < r.lag+ms {
			t.Errorf("arrival %d: latency %v below lag %v plus service", i, r.latency, r.lag)
		}
	}
}

func TestOpenLoopBoundsConcurrency(t *testing.T) {
	sched := make([]arrival, 50)
	for i := range sched {
		sched[i].call = &call{}
	}
	var mu sync.Mutex
	inflight, most := 0, 0
	runOpen(realClock{}, sched, 2, func(int, *arrival) time.Time {
		mu.Lock()
		inflight++
		most = max(most, inflight)
		mu.Unlock()
		time.Sleep(time.Millisecond)
		mu.Lock()
		inflight--
		mu.Unlock()
		return time.Now()
	})
	if most > 2 {
		t.Errorf("%d requests in flight, want at most 2 connections' worth", most)
	}
}
