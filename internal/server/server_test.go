package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"staticest"
	"staticest/internal/obs"
	"staticest/internal/server"
)

// strchrSrc is the paper's running example — small, deterministic, and
// compiled in every test that needs an ad-hoc source.
const strchrSrc = `
#define NULL 0
char *my_strchr(char *str, int c) {
	while (*str) {
		if (*str == c)
			return str;
		str++;
	}
	return NULL;
}
int main(void) {
	my_strchr("abc", 'a');
	my_strchr("abc", 'b');
	return 0;
}
`

func newTestServer(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	if cfg.Obs == nil {
		cfg.Obs = obs.New()
	}
	s := server.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url string, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp.StatusCode, b
}

// TestEstimateSingleflight is the acceptance test for the compiled-unit
// cache: 32 concurrent identical estimate requests must trigger exactly
// one compile (server_cache_miss == 1) and produce byte-identical
// responses. Run under -race this also proves the cache and middleware
// are data-race free.
func TestEstimateSingleflight(t *testing.T) {
	o := obs.New()
	_, ts := newTestServer(t, server.Config{Obs: o, MaxConcurrent: 32})

	const n = 32
	body := `{"name":"strchr.c","source":` + jsonString(strchrSrc) + `}`

	var wg sync.WaitGroup
	start := make(chan struct{})
	statuses := make([]int, n)
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start // barrier: all requests fire together
			resp, err := http.Post(ts.URL+"/v1/estimate", "application/json",
				strings.NewReader(body))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			statuses[i] = resp.StatusCode
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < n; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, statuses[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d: response differs from request 0", i)
		}
	}
	if miss := o.Counter("server_cache_miss").Value(); miss != 1 {
		t.Errorf("server_cache_miss = %d, want exactly 1", miss)
	}
	if hit := o.Counter("server_cache_hit").Value(); hit != n-1 {
		t.Errorf("server_cache_hit = %d, want %d", hit, n-1)
	}
	if inflight := o.Gauge("server_inflight").Value(); inflight != 0 {
		t.Errorf("server_inflight = %v after all requests done, want 0", inflight)
	}
}

// TestGracefulDrain proves Serve waits for in-flight requests when its
// context is cancelled (the SIGTERM path) before returning.
func TestGracefulDrain(t *testing.T) {
	s := server.New(server.Config{Obs: obs.New(), DrainTimeout: 10 * time.Second})
	started := make(chan struct{})
	release := make(chan struct{})
	s.Handle("GET /slow", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		close(started)
		<-release
		io.WriteString(w, "drained-ok")
	}))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln) }()

	bodyc := make(chan string, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/slow")
		if err != nil {
			bodyc <- "error: " + err.Error()
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		bodyc <- string(b)
	}()

	<-started // the request is in flight
	cancel()  // "SIGTERM"

	// Serve must not return while the request is still being handled.
	select {
	case err := <-served:
		t.Fatalf("Serve returned (%v) before the in-flight request finished", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(release)
	if body := <-bodyc; body != "drained-ok" {
		t.Fatalf("in-flight request got %q, want %q", body, "drained-ok")
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v after drain, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after the drain completed")
	}
}

// TestRequestErrors exercises the failure modes of the API surface.
func TestRequestErrors(t *testing.T) {
	_, ts := newTestServer(t, server.Config{MaxBodyBytes: 2048})
	cases := []struct {
		name   string
		method string
		path   string
		body   string
		status int
	}{
		{"empty request", "POST", "/v1/estimate", `{}`, http.StatusBadRequest},
		{"bad json", "POST", "/v1/estimate", `{"source":`, http.StatusBadRequest},
		{"unknown field", "POST", "/v1/estimate", `{"sauce":"x"}`, http.StatusBadRequest},
		{"both program and source", "POST", "/v1/estimate",
			`{"program":"compress","source":"int main(void){return 0;}"}`, http.StatusBadRequest},
		{"unknown program", "POST", "/v1/estimate", `{"program":"doom"}`, http.StatusNotFound},
		{"compile error", "POST", "/v1/estimate", `{"source":"int main(void { return 0; }"}`,
			http.StatusUnprocessableEntity},
		{"oversized body", "POST", "/v1/estimate",
			`{"source":` + jsonString("int main(void){return 0;}"+strings.Repeat(" ", 4096)) + `}`,
			http.StatusRequestEntityTooLarge},
		{"batch bad json", "POST", "/v1/batch", `{"items":`, http.StatusBadRequest},
		{"batch unknown field", "POST", "/v1/batch", `{"item":[]}`, http.StatusBadRequest},
		{"bad instrumentation", "POST", "/v1/profile",
			`{"source":"int main(void){return 0;}","instrumentation":"quantum"}`, http.StatusBadRequest},
		{"input on inline source", "POST", "/v1/profile",
			`{"source":"int main(void){return 0;}","input":"ref"}`, http.StatusBadRequest},
		{"unknown input", "POST", "/v1/profile",
			`{"program":"compress","input":"nope"}`, http.StatusNotFound},
		{"realloc past the block", "POST", "/v1/profile",
			`{"source":"int main(void){char *p = (char*)malloc(10); p = (char*)realloc(p + 100, 20); return 0;}"}`,
			http.StatusUnprocessableEntity},
		{"bad freq source", "POST", "/v1/optimize",
			`{"source":"int main(void){return 0;}","freq_source":"vibes"}`, http.StatusBadRequest},
		{"profile source needs suite", "POST", "/v1/optimize",
			`{"source":"int main(void){return 0;}","freq_source":"profile"}`, http.StatusBadRequest},
		{"layout needs suite", "POST", "/v1/optimize",
			`{"source":"int main(void){return 0;}","reports":["layout"]}`, http.StatusBadRequest},
		{"explain without program", "GET", "/v1/explain", "", http.StatusBadRequest},
		{"explain unknown program", "GET", "/v1/explain?program=doom", "", http.StatusNotFound},
		{"explain bad cutoff", "GET", "/v1/explain?program=compress&cutoff=7", "", http.StatusBadRequest},
		{"method not allowed", "GET", "/v1/estimate", "", http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resp *http.Response
			var err error
			switch tc.method {
			case "POST":
				resp, err = http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
			default:
				resp, err = http.Get(ts.URL + tc.path)
			}
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, tc.status, b)
			}
			if tc.status != http.StatusMethodNotAllowed && !bytes.Contains(b, []byte(`"error"`)) {
				t.Errorf("error body %s does not carry an \"error\" field", b)
			}
		})
	}
}

// TestMetricsAndHealth checks the operational endpoints: the metrics
// exposition carries the serving series and /healthz reports cache
// occupancy.
func TestMetricsAndHealth(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	if status, b := post(t, ts.URL+"/v1/estimate", `{"source":`+jsonString(strchrSrc)+`}`); status != 200 {
		t.Fatalf("estimate: %d %s", status, b)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	for _, series := range []string{
		"server_cache_miss 1",
		`span_seconds_count{span="server.estimate"} 1`,
		"server_inflight 0",
	} {
		if !bytes.Contains(b, []byte(series)) {
			t.Errorf("/metrics missing %q:\n%s", series, b)
		}
	}

	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var health struct {
		Status      string `json:"status"`
		CachedUnits int    `json:"cached_units"`
	}
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.CachedUnits != 1 {
		t.Errorf("healthz = %+v, want ok with 1 cached unit", health)
	}
}

// TestRequestTimeout pins the 503 path: a run that cannot finish inside
// the request budget is cut off with the timeout body at the deadline,
// the run stops there and frees the only worker slot, so the next
// request is served on its first try, and the metrics, the span and
// /v1/debug/slow record the 503 the client got.
func TestRequestTimeout(t *testing.T) {
	s, ts := newTestServer(t, server.Config{RequestTimeout: 50 * time.Millisecond, MaxConcurrent: 1})
	spin := `
int main(void) {
	int i;
	int j;
	int acc;
	acc = 0;
	for (i = 0; i < 100000; i++)
		for (j = 0; j < 100000; j++)
			acc = acc + 1;
	return 0;
}
`
	status, b := post(t, ts.URL+"/v1/profile", `{"source":`+jsonString(spin)+`}`)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status %d (%s), want 503", status, b)
	}
	if !bytes.Contains(b, []byte("timed out")) {
		t.Fatalf("timeout body %q", b)
	}

	o := s.Observer()
	for class, want := range map[string]int64{"4xx": 0, "5xx": 1} {
		name := obs.Labels("server_responses_total", "endpoint", "profile", "class", class)
		if n := o.Counter(name).Value(); n != want {
			t.Errorf("%s = %d, want %d", name, n, want)
		}
	}
	if n := o.SpanHistogram("server.profile").Summarize().Count; n != 1 {
		t.Errorf("server.profile span count %d, want 1", n)
	}
	resp, err := http.Get(ts.URL + "/v1/debug/slow")
	if err != nil {
		t.Fatal(err)
	}
	var slow server.SlowResponse
	err = json.NewDecoder(resp.Body).Decode(&slow)
	resp.Body.Close()
	if err != nil || len(slow.Requests) != 1 {
		t.Fatalf("debug/slow: %+v, decode error %v; want the one profile request", slow, err)
	}
	if r := slow.Requests[0]; r.Endpoint != "profile" || r.Status != http.StatusServiceUnavailable {
		t.Errorf("debug/slow entry %+v, want profile with status 503", r)
	}

	// The timed-out run has stopped and released the only slot.
	if status, b := post(t, ts.URL+"/v1/estimate", `{"source":`+jsonString(strchrSrc)+`}`); status != http.StatusOK {
		t.Fatalf("estimate after the timeout: status %d, body %s; want 200", status, b)
	}
}

// prefixMates returns n programs whose fingerprints agree in digits 7
// and 8, the low byte of their eight-hex-digit prefix, found by search.
// A table split by fingerprint prefix into up to 256 parts puts them
// all in one part, so a test over them cannot pass by the luck of how
// keys spread.
func prefixMates(n int) []string {
	var srcs []string
	var want string
	for k := 0; len(srcs) < n; k++ {
		src := fmt.Sprintf("int main(void) { int i; for (i = 0; i < %d; i++) ; return 0; }\n", k)
		fp := staticest.Fingerprint([]byte(src))
		if want == "" {
			want = fp[6:8]
		}
		if fp[6:8] == want {
			srcs = append(srcs, src)
		}
	}
	return srcs
}

// TestCacheSizeBoundsEveryUnit pins CacheSize as the bound of the
// whole cache, at any GOMAXPROCS: N prefix mates fit a cache of N
// units, so estimating each twice compiles each once.
func TestCacheSizeBoundsEveryUnit(t *testing.T) {
	const n = 4
	o := obs.New()
	_, ts := newTestServer(t, server.Config{Obs: o, CacheSize: n})
	srcs := prefixMates(n)
	for round := 0; round < 2; round++ {
		for _, src := range srcs {
			if status, b := post(t, ts.URL+"/v1/estimate", `{"source":`+jsonString(src)+`}`); status != http.StatusOK {
				t.Fatalf("estimate: status %d, body %s", status, b)
			}
		}
	}
	if miss := o.Counter("server_cache_miss").Value(); miss != n {
		t.Errorf("server_cache_miss = %d, want %d (each source compiled once)", miss, n)
	}
}

// TestStalledBodyTimesOut pins the read deadline for a client that
// sends the headers and part of a body and then stops. If the handler
// waits on the body, its read fails at the request deadline and the
// client gets 503. If the handler replies before reading the body to
// its end, here on a decode error, the client gets that reply at once:
// the rest of the body is not drained with no deadline. Either way the
// only worker slot is free for the next request.
func TestStalledBodyTimesOut(t *testing.T) {
	for _, tc := range []struct {
		name, part string
		status     int
		msg        string
	}{
		{"read to the deadline", `{"source":`, http.StatusServiceUnavailable, "timed out"},
		{"early reply", "xxxxxxxxxx", http.StatusBadRequest, "decoding request"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t, server.Config{RequestTimeout: 100 * time.Millisecond, MaxConcurrent: 1})
			conn, err := net.Dial("tcp", ts.Listener.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(10 * time.Second)) // fail, not hang, if no reply comes
			fmt.Fprintf(conn, "POST /v1/estimate HTTP/1.1\r\nHost: test\r\n"+
				"Content-Type: application/json\r\nContent-Length: 1000\r\n\r\n%s", tc.part)
			resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
			if err != nil {
				t.Fatalf("stalled request got no reply: %v", err)
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.status || !bytes.Contains(b, []byte(tc.msg)) {
				t.Fatalf("stalled request: status %d, body %s; want %d %s", resp.StatusCode, b, tc.status, tc.msg)
			}
			if status, b := post(t, ts.URL+"/v1/estimate", `{"source":`+jsonString(strchrSrc)+`}`); status != http.StatusOK {
				t.Fatalf("estimate after the stalled request: status %d, body %s; want 200", status, b)
			}
		})
	}
}

func jsonString(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(fmt.Sprintf("marshaling string: %v", err))
	}
	return string(b)
}

// TestOversizeObjectRejected pins the compile-time size bounds at the
// API: a source declaring a 1 TiB global, a function of 2,049 blocks
// and a unit of 2,049 functions are each a compile error naming its
// limit on every endpoint, never an allocation. Running the first, or
// solving the dense Markov systems of the other two as they grow,
// would end the whole process with an out-of-memory fault that no
// handler can recover. The server keeps answering afterwards.
func TestOversizeObjectRejected(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	const main = "int main(void) { return 0; }"
	for _, tc := range []struct{ name, src, limit string }{
		{"1 TiB global", "char a[1099511627776]; " + main, "1073741824-byte object limit"},
		{"2049 blocks", "int a; int main(void) {\n" + strings.Repeat("if(a)a=1;\n", 1024) + "return 0; }",
			"2049 basic blocks exceed the 2048-block limit"},
		{"2049 functions", funcs(2048) + main,
			"2049 functions exceed the 2048-function limit"},
	} {
		huge := `{"source":` + jsonString(tc.src) + `}`
		for _, ep := range []string{"/v1/profile", "/v1/estimate"} {
			status, body := post(t, ts.URL+ep, huge)
			if status != http.StatusUnprocessableEntity || !strings.Contains(string(body), tc.limit) {
				t.Errorf("%s %s: status %d, body %s; want 422 naming the limit", tc.name, ep, status, body)
			}
		}

		status, body := post(t, ts.URL+"/v1/batch", `{"items":[`+huge+`]}`)
		var batch struct {
			Items []struct {
				Status int    `json:"status"`
				Error  string `json:"error"`
			} `json:"items"`
		}
		if err := json.Unmarshal(body, &batch); err != nil || status != http.StatusOK || len(batch.Items) != 1 {
			t.Fatalf("%s batch: status %d, body %s, decode error %v", tc.name, status, body, err)
		}
		if it := batch.Items[0]; it.Status != http.StatusUnprocessableEntity || !strings.Contains(it.Error, tc.limit) {
			t.Errorf("%s batch item: status %d, error %q; want 422 naming the limit", tc.name, it.Status, it.Error)
		}
		if status, body := post(t, ts.URL+"/v1/estimate", `{"source":`+jsonString(strchrSrc)+`}`); status != http.StatusOK {
			t.Fatalf("estimate after the rejected %s: status %d, body %s", tc.name, status, body)
		}
	}
}

// funcs returns n empty function definitions, f0 to f<n-1>.
func funcs(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "void f%d(void){}\n", i)
	}
	return b.String()
}
