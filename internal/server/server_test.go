package server_test

import (
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
		`server_requests_total{endpoint="estimate"} 1`,
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
// the request budget is cut off with the timeout body while the server
// keeps serving.
func TestRequestTimeout(t *testing.T) {
	_, ts := newTestServer(t, server.Config{
		RequestTimeout: 50 * time.Millisecond,
		MaxConcurrent:  4,
		// More interpreter work than the request budget allows, but
		// bounded: the abandoned handler finishes (and frees its
		// semaphore slot) shortly after the client's 503.
		MaxSteps: 20_000_000,
	})
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
	// The server keeps serving: once the abandoned run exhausts its
	// step budget, fresh requests go through again.
	deadline := time.Now().Add(10 * time.Second)
	for {
		status, b := post(t, ts.URL+"/v1/estimate", `{"source":`+jsonString(strchrSrc)+`}`)
		if status == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("post-timeout estimate never recovered: %d %s", status, b)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func jsonString(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(fmt.Sprintf("marshaling string: %v", err))
	}
	return string(b)
}

// TestOversizeObjectRejected pins the object-size bound at the API. A
// source declaring a 1 TiB global is a compile error naming the limit
// on every endpoint, never an allocation: running it would end the
// whole process with an out-of-memory fault that no handler can
// recover. The server keeps answering afterwards.
func TestOversizeObjectRejected(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	huge := `{"source":` + jsonString(`char a[1099511627776]; int main(void){ return 0; }`) + `}`
	const limit = "1073741824-byte object limit"

	status, body := post(t, ts.URL+"/v1/profile", huge)
	if status != http.StatusUnprocessableEntity || !strings.Contains(string(body), limit) {
		t.Errorf("profile: status %d, body %s; want 422 naming the limit", status, body)
	}
	if status, body := post(t, ts.URL+"/v1/estimate", `{"source":`+jsonString(strchrSrc)+`}`); status != http.StatusOK {
		t.Fatalf("estimate after the rejected profile: status %d, body %s", status, body)
	}
	status, body = post(t, ts.URL+"/v1/estimate", huge)
	if status != http.StatusUnprocessableEntity || !strings.Contains(string(body), limit) {
		t.Errorf("estimate: status %d, body %s; want 422 naming the limit", status, body)
	}

	status, body = post(t, ts.URL+"/v1/batch", `{"items":[`+huge+`]}`)
	var batch struct {
		Items []struct {
			Status int    `json:"status"`
			Error  string `json:"error"`
		} `json:"items"`
	}
	if err := json.Unmarshal(body, &batch); err != nil || status != http.StatusOK || len(batch.Items) != 1 {
		t.Fatalf("batch: status %d, body %s, decode error %v", status, body, err)
	}
	if it := batch.Items[0]; it.Status != http.StatusUnprocessableEntity || !strings.Contains(it.Error, limit) {
		t.Errorf("batch item: status %d, error %q; want 422 naming the limit", it.Status, it.Error)
	}
}
