package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"time"

	"staticest/internal/gen"
)

// workload is one seeded traffic mix. Its inputs are generated when it
// is built, before any server exists; the server receives only the
// requests.
type workload interface {
	// warm sends the set-up requests to a fresh server: the hot-set
	// compiles and response memos, and for pgo-loop also the unit
	// registrations, bytecode lowerings and probe plans. The replies of
	// the first set-up become the references later replies must equal.
	warm(cl *client, first bool) error
	// callers is how many closed-loop callers or open-loop senders the
	// workload runs, each on its own connection: at most nproc.
	callers(nproc int) int
	// next returns closed-loop caller w's next request; open-loop
	// workloads return nil.
	next(w int) *call
	// schedule returns an open-loop phase's arrivals; closed-loop
	// workloads return nil.
	schedule(d time.Duration) ([]arrival, error)
	// check judges one reply of a timed phase using only cheap checks
	// (status, byte equality), keeping what verify needs.
	check(c *call, status int, body []byte) error
	// checkCache judges the server's cache hits and misses over one timed
	// phase against the path the workload is built to exercise.
	checkCache(hits, misses int64) error
	// verify runs the checks that wait until the timed phases are over.
	// It returns the requests it sent itself, and the failures it found
	// among those and the timed replies.
	verify(cl *client) (attempted, failed int, errs []error)
	// replaySetup replays the set-up work of layers that only run during
	// set-up (bytecode lowering, probe planning), each set-up request as
	// its own root span, keeping the fastest of reps repetitions. It runs
	// before any replay and prepares the state replays need.
	replaySetup(r *replayer, reps int) ([]span, error)
	// replay re-executes one sampled request's layers under parent.
	replay(r *replayer, c *call, parent int64)
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"estimate-hit", "batch-cold", "pgo-loop"}

func newWorkload(name string, seed int64, nproc int) (workload, error) {
	switch name {
	case "estimate-hit":
		return newEstimateHit(seed, nproc)
	case "batch-cold":
		return newBatchCold(seed)
	case "pgo-loop":
		return newPGOLoop(seed, nproc)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

func jsonCall(kind, path string, item int, req any) (call, error) {
	b, err := json.Marshal(req)
	if err != nil {
		return call{}, fmt.Errorf("encoding %s request: %w", kind, err)
	}
	return call{kind: kind, method: http.MethodPost, path: path, body: b, item: item}, nil
}

// stratified draws n generated programs whose sizes span the generator's
// size distribution evenly: of n*k draws that pass keep, sorted by size,
// it returns the middle one of each run of k. Seeds then differ in their
// programs but hardly in how much source they carry.
func stratified(rng *rand.Rand, n, k int, keep func([]byte) bool) [][]byte {
	var drawn [][]byte
	for len(drawn) < n*k {
		if src := gen.Source(rng.Int63()); keep(src) {
			drawn = append(drawn, src)
		}
	}
	sort.SliceStable(drawn, func(a, b int) bool { return len(drawn[a]) < len(drawn[b]) })
	out := make([][]byte, n)
	for i := range out {
		out[i] = drawn[i*k+k/2]
	}
	return out
}

// expectOK sends c and returns the reply body when the status is 200.
func expectOK(cl *client, c *call) ([]byte, error) {
	var buf bytes.Buffer
	status, err := cl.do(c, &buf, "", nil)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", c.method, c.path, err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %.200s", c.method, c.path, status, buf.Bytes())
	}
	return buf.Bytes(), nil
}

// statusErr reports an unexpected reply status.
func statusErr(c *call, status int, body []byte) error {
	return fmt.Errorf("%s %s: status %d: %.200s", c.method, c.path, status, body)
}
