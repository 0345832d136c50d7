package server_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"staticest"
	"staticest/internal/obs"
	"staticest/internal/probes"
	"staticest/internal/server"
)

// sparseVector compiles src out-of-band and produces the sparse probe
// vector a fleet member would upload. Compilation and probe planning
// are deterministic, so the plan here matches the one the server
// builds for the same source.
func sparseVector(t testing.TB, name, src string) *probes.Vector {
	t.Helper()
	u, err := staticest.Compile(name, []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	plan := u.PlanProbes()
	res, err := u.Run(staticest.RunOptions{
		Instrumentation: staticest.SparseInstrumentation,
		Plan:            plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Probes
}

// strchrVector is the strchr example's probe vector and fingerprint.
func strchrVector(t testing.TB) (*probes.Vector, string) {
	t.Helper()
	return sparseVector(t, "strchr.c", strchrSrc), staticest.Fingerprint([]byte(strchrSrc))
}

func ingestBody(t *testing.T, fields map[string]any) string {
	t.Helper()
	b, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestIngestLoop drives the whole PGO loop over HTTP: upload sparse
// vectors, read the live aggregate back through stats, and see
// /v1/optimize serve from the crowd-sourced profile (with the static
// fallback for cold fingerprints).
func TestIngestLoop(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	vec, fp := strchrVector(t)

	// First contact ships the source; the unit registers and merges.
	status, body := post(t, ts.URL+"/v1/profiles/ingest", ingestBody(t, map[string]any{
		"name": "strchr.c", "source": strchrSrc,
		"upload_id": "u1", "label": "run1", "counts": vec.Counts,
	}))
	if status != http.StatusOK {
		t.Fatalf("first ingest: status %d: %s", status, body)
	}
	var ir server.IngestResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Fingerprint != fp || ir.Uploads != 1 {
		t.Fatalf("first receipt = %+v, want fingerprint %.12s uploads 1", ir, fp)
	}

	// Later fleet members upload against the bare fingerprint.
	status, body = post(t, ts.URL+"/v1/profiles/ingest", ingestBody(t, map[string]any{
		"fingerprint": fp, "upload_id": "u2", "label": "run2", "counts": vec.Counts,
	}))
	if status != http.StatusOK {
		t.Fatalf("second ingest: status %d: %s", status, body)
	}

	// Stats: the unit is live with two uploads in merge order.
	resp, err := http.Get(ts.URL + "/v1/profiles/stats?fingerprint=" + fp + "&agreement=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Units) != 1 {
		t.Fatalf("stats units = %d, want 1", len(sr.Units))
	}
	unit := sr.Units[0]
	if unit.Program != "strchr.c" || unit.Uploads != 2 {
		t.Fatalf("stats unit = %+v, want strchr.c with 2 uploads", unit)
	}
	if fmt.Sprint(unit.MergeOrder) != "[run1 run2]" {
		t.Errorf("merge order %v, want [run1 run2]", unit.MergeOrder)
	}
	sources := map[string]bool{}
	for _, row := range unit.Agreement {
		sources[row.Source] = true
		if row.InlineOverlap < 0 || row.InlineOverlap > 1 {
			t.Errorf("agreement %s: overlap %v out of [0,1]", row.Source, row.InlineOverlap)
		}
	}
	for _, want := range []string{"loop", "smart", "markov"} {
		if !sources[want] {
			t.Errorf("agreement rows missing source %q (have %v)", want, sources)
		}
	}

	// Optimize from the live aggregate: warm fingerprint, no fallback.
	status, body = post(t, ts.URL+"/v1/optimize",
		`{"name":"strchr.c","source":`+jsonString(strchrSrc)+`,"freq_source":"live","reports":["inline"]}`)
	if status != http.StatusOK {
		t.Fatalf("optimize live: status %d: %s", status, body)
	}
	var or server.OptimizeResponse
	if err := json.Unmarshal(body, &or); err != nil {
		t.Fatal(err)
	}
	if or.FreqSource != "live" || or.Fallback != "" || or.Uploads != 2 {
		t.Fatalf("warm optimize = {source %s, fallback %q, uploads %d}, want live//2",
			or.FreqSource, or.Fallback, or.Uploads)
	}
	if or.Inline == nil {
		t.Fatal("warm optimize returned no inline report")
	}

	// Cold fingerprint: live falls back to static estimates.
	status, body = post(t, ts.URL+"/v1/optimize",
		`{"program":"compress","freq_source":"live","reports":["inline"]}`)
	if status != http.StatusOK {
		t.Fatalf("optimize cold: status %d: %s", status, body)
	}
	var cold server.OptimizeResponse
	if err := json.Unmarshal(body, &cold); err != nil {
		t.Fatal(err)
	}
	if cold.FreqSource != "live" || cold.Fallback != "smart" || cold.Uploads != 0 {
		t.Fatalf("cold optimize = {source %s, fallback %q, uploads %d}, want live/smart/0",
			cold.FreqSource, cold.Fallback, cold.Uploads)
	}
}

// TestIngestValidation pins the defensive contract at the HTTP layer:
// unknown fingerprints 404, replayed upload IDs 409, malformed vectors
// 422 with a distinct reject counter — and none of them disturb the
// live aggregate.
func TestIngestValidation(t *testing.T) {
	o := obs.New()
	_, ts := newTestServer(t, server.Config{Obs: o})
	vec, fp := strchrVector(t)
	ingestURL := ts.URL + "/v1/profiles/ingest"

	// Seed one good upload so later cases have an aggregate to poison.
	if status, body := post(t, ingestURL, ingestBody(t, map[string]any{
		"name": "strchr.c", "source": strchrSrc,
		"upload_id": "good", "label": "seed", "counts": vec.Counts,
	})); status != http.StatusOK {
		t.Fatalf("seed ingest: status %d: %s", status, body)
	}

	cases := []struct {
		name       string
		body       string
		wantStatus int
		counter    string
	}{
		{"unknown fingerprint", ingestBody(t, map[string]any{
			"fingerprint": "0123456789abcdef", "counts": vec.Counts,
		}), http.StatusNotFound, "unknown_fingerprint"},
		{"no identity", ingestBody(t, map[string]any{
			"counts": vec.Counts,
		}), http.StatusBadRequest, ""},
		{"replayed upload id", ingestBody(t, map[string]any{
			"fingerprint": fp, "upload_id": "good", "counts": vec.Counts,
		}), http.StatusConflict, "duplicate"},
		{"shape mismatch", ingestBody(t, map[string]any{
			"fingerprint": fp, "upload_id": "shaped", "counts": vec.Counts[:len(vec.Counts)-1],
		}), http.StatusUnprocessableEntity, "shape"},
		{"invalid escape", ingestBody(t, map[string]any{
			"fingerprint": fp, "upload_id": "escaped", "counts": vec.Counts,
			"escapes": []map[string]int{{"func": 42, "block": 0}},
		}), http.StatusUnprocessableEntity, "invalid"},
		{"fingerprint source mismatch", ingestBody(t, map[string]any{
			"fingerprint": "ffff", "name": "strchr.c", "source": strchrSrc,
			"counts": vec.Counts,
		}), http.StatusUnprocessableEntity, ""},
	}
	for _, tc := range cases {
		var before int64
		if tc.counter != "" {
			before = o.Counter(obs.Labels("ingest_rejects_total", "reason", tc.counter)).Value()
		}
		status, body := post(t, ingestURL, tc.body)
		if status != tc.wantStatus {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, status, tc.wantStatus, body)
		}
		if tc.counter != "" {
			after := o.Counter(obs.Labels("ingest_rejects_total", "reason", tc.counter)).Value()
			if after != before+1 {
				t.Errorf("%s: reject counter %q went %d -> %d, want +1",
					tc.name, tc.counter, before, after)
			}
		}
	}

	// The aggregate is exactly one upload deep — nothing above merged.
	resp, err := http.Get(ts.URL + "/v1/profiles/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Units) != 1 || sr.Units[0].Uploads != 1 {
		t.Fatalf("stats after rejection storm = %+v, want one unit with 1 upload", sr.Units)
	}
	if got := o.Counter("ingest_uploads_total").Value(); got != 1 {
		t.Errorf("ingest_uploads_total = %d, want 1", got)
	}
}

// TestLiveUnitLimit pins CacheSize as the bound of live units: with
// room for two, the third distinct ingested source is refused with 507
// and counted, /healthz reads two live units, and the first two still
// accept uploads.
func TestLiveUnitLimit(t *testing.T) {
	o := obs.New()
	_, ts := newTestServer(t, server.Config{Obs: o, CacheSize: 2})
	upload := func(k int) (int, string) {
		src := fmt.Sprintf("int main(void) { return %d; }\n", k)
		status, body := post(t, ts.URL+"/v1/profiles/ingest", ingestBody(t, map[string]any{
			"name": "u.c", "source": src, "counts": sparseVector(t, "u.c", src).Counts,
		}))
		return status, string(body)
	}
	for k := 0; k < 2; k++ {
		if status, body := upload(k); status != http.StatusOK {
			t.Fatalf("ingest %d: status %d: %s", k, status, body)
		}
	}
	status, body := upload(2)
	if want := `{"error":"live-unit limit of 2 reached"}`; status != http.StatusInsufficientStorage ||
		strings.TrimSpace(body) != want {
		t.Errorf("third source: status %d, body %s; want 507 %s", status, body, want)
	}
	if got := o.Counter(obs.Labels("ingest_rejects_total", "reason", "live_limit")).Value(); got != 1 {
		t.Errorf(`ingest_rejects_total{reason="live_limit"} = %d, want 1`, got)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		LiveUnits int `json:"live_units"`
	}
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil || health.LiveUnits != 2 {
		t.Errorf("/healthz live_units = %d (err %v), want 2", health.LiveUnits, err)
	}
	// The debug snapshot and the stats list count the same live units.
	var debug struct {
		Ingest struct {
			Units int `json:"units"`
		} `json:"ingest"`
	}
	getJSON(t, ts.URL+"/v1/debug/status", &debug)
	var stats server.StatsResponse
	getJSON(t, ts.URL+"/v1/profiles/stats", &stats)
	if debug.Ingest.Units != health.LiveUnits || len(stats.Units) != health.LiveUnits {
		t.Errorf("live units: /v1/debug/status %d, stats list %d, /healthz %d; want all equal",
			debug.Ingest.Units, len(stats.Units), health.LiveUnits)
	}
	for k := 0; k < 2; k++ {
		if status, body := upload(k); status != http.StatusOK {
			t.Errorf("upload to live unit %d: status %d: %s", k, status, body)
		}
	}
}

// TestIngestedUnitStaysCached pins that a unit with a live aggregate is
// one resident copy outside the LRU: in a one-unit cache, ingesting A
// and then estimating B must not evict A, so A's next estimate is a
// hit (two compiles, not three) and its stats still resolve. A and B
// are prefix mates, so the outcome cannot rest on which part of a
// prefix-split table each lands in.
func TestIngestedUnitStaysCached(t *testing.T) {
	o := obs.New()
	_, ts := newTestServer(t, server.Config{Obs: o, CacheSize: 1})
	srcs := prefixMates(2)
	a, b := srcs[0], srcs[1]

	if status, body := post(t, ts.URL+"/v1/profiles/ingest", ingestBody(t, map[string]any{
		"name": "a.c", "source": a, "counts": sparseVector(t, "a.c", a).Counts,
	})); status != http.StatusOK {
		t.Fatalf("ingest A: status %d: %s", status, body)
	}
	for _, src := range []string{b, a} {
		if status, body := post(t, ts.URL+"/v1/estimate", `{"source":`+jsonString(src)+`}`); status != http.StatusOK {
			t.Fatalf("estimate: status %d: %s", status, body)
		}
	}
	if miss := o.Counter("server_cache_miss").Value(); miss != 2 {
		t.Errorf("server_cache_miss = %d, want 2 (A and B each compiled once)", miss)
	}
	resp, err := http.Get(ts.URL + "/v1/profiles/stats?fingerprint=" + staticest.Fingerprint([]byte(a)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("stats of A: status %d, want 200", resp.StatusCode)
	}
}

// getJSON decodes the JSON reply of GET url into v.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}
