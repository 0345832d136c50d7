package server_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"staticest/internal/obs"
	"staticest/internal/server"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGoldenEndpoints pins each endpoint's exact JSON: the wire format
// is API surface, so an accidental field rename, reordering, or
// numeric drift fails here. Regenerate with -update after intentional
// changes. The pipeline is deterministic end to end (compilation,
// estimation, interpretation), so byte-exact goldens are stable.
func TestGoldenEndpoints(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})

	// The ingest cases upload a real sparse probe vector; planning and
	// the interpreter are deterministic, so the vector — and therefore
	// every response below — is stable.
	vec, fp := strchrVector(t)
	counts, err := json.Marshal(vec.Counts)
	if err != nil {
		t.Fatal(err)
	}

	// A three-item mixed batch: a valid inline source, a compile error
	// (dropped paren), and a suite program — pinning per-item error
	// isolation and index ordering in one golden.
	batchMixed := `{"items":[` +
		`{"name":"strchr.c","source":` + jsonString(strchrSrc) + `},` +
		`{"source":"int main(void { return 0; }"},` +
		`{"program":"compress","top":3}` +
		`]}`
	oversize := `{"items":[` +
		strings.Repeat(`{"source":"int main(void){return 0;}"},`, 256) +
		`{"source":"int main(void){return 0;}"}]}`

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		status int // expected response status; 0 means 200
	}{
		{"estimate_strchr", "POST", "/v1/estimate",
			`{"name":"strchr.c","source":` + jsonString(strchrSrc) + `}`, 0},
		{"estimate_reuse_compress", "POST", "/v1/estimate",
			`{"program":"compress","top":5,"reuse":true}`, 0},
		{"profile_full_strchr", "POST", "/v1/profile",
			`{"name":"strchr.c","source":` + jsonString(strchrSrc) + `}`, 0},
		{"profile_sparse_strchr", "POST", "/v1/profile",
			`{"name":"strchr.c","source":` + jsonString(strchrSrc) + `,"instrumentation":"sparse"}`, 0},
		{"optimize_inline_strchr", "POST", "/v1/optimize",
			`{"name":"strchr.c","source":` + jsonString(strchrSrc) + `,"reports":["inline"]}`, 0},
		{"optimize_compress", "POST", "/v1/optimize",
			`{"program":"compress","freq_source":"smart","budget":32}`, 0},
		{"explain_compress", "GET", "/v1/explain?program=compress&top=5", "", 0},
		// The PGO loop, in order: two uploads, the stats view with
		// agreement rows, then optimize serving from the live aggregate
		// (and the static fallback for a cold fingerprint).
		{"ingest_strchr", "POST", "/v1/profiles/ingest",
			`{"name":"strchr.c","source":` + jsonString(strchrSrc) +
				`,"upload_id":"g1","label":"run1","counts":` + string(counts) + `}`, 0},
		{"ingest_strchr_again", "POST", "/v1/profiles/ingest",
			`{"fingerprint":"` + fp + `","upload_id":"g2","label":"run2","counts":` + string(counts) + `}`, 0},
		{"stats_list", "GET", "/v1/profiles/stats", "", 0},
		{"stats_strchr_agreement", "GET", "/v1/profiles/stats?fingerprint=" + fp + "&agreement=1", "", 0},
		{"optimize_live_strchr", "POST", "/v1/optimize",
			`{"name":"strchr.c","source":` + jsonString(strchrSrc) + `,"freq_source":"live","reports":["inline"]}`, 0},
		{"optimize_live_cold_compress", "POST", "/v1/optimize",
			`{"program":"compress","freq_source":"live","reports":["inline"]}`, 0},
		// Batch estimation: the mixed batch pins ordering and per-item
		// error isolation; the edge cases pin the whole-batch failures.
		{"batch_mixed", "POST", "/v1/batch", batchMixed, 0},
		{"batch_empty", "POST", "/v1/batch", `{"items":[]}`, http.StatusUnprocessableEntity},
		{"batch_oversize", "POST", "/v1/batch", oversize, http.StatusRequestEntityTooLarge},
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
			got, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			want := tc.status
			if want == 0 {
				want = http.StatusOK
			}
			if resp.StatusCode != want {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, want, got)
			}
			checkGolden(t, tc.name+".json", got)
		})
	}
}

// TestSuiteProfilesOnEntry pins that explain and optimize measure a
// suite program on its cache entry: explaining compress compiles it
// once, a later optimize with the profile-scored layout and spill
// reports is a cache hit on the same entry, and both replies equal
// their goldens.
func TestSuiteProfilesOnEntry(t *testing.T) {
	o := obs.New()
	_, ts := newTestServer(t, server.Config{Obs: o})
	hits, misses := o.Counter("server_cache_hit"), o.Counter("server_cache_miss")
	hitsBefore, missesBefore := hits.Value(), misses.Value()

	resp, err := http.Get(ts.URL + "/v1/explain?program=compress&top=5")
	if err != nil {
		t.Fatal(err)
	}
	explained, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("explain: status %d, err %v: %s", resp.StatusCode, err, explained)
	}
	status, optimized := post(t, ts.URL+"/v1/optimize", `{"program":"compress","freq_source":"smart","budget":32}`)
	if status != http.StatusOK {
		t.Fatalf("optimize: status %d: %s", status, optimized)
	}
	if got := misses.Value() - missesBefore; got != 1 {
		t.Errorf("server_cache_miss rose by %d, want 1 (compress compiled once)", got)
	}
	if got := hits.Value() - hitsBefore; got != 1 {
		t.Errorf("server_cache_hit rose by %d, want 1 (optimize found explain's entry)", got)
	}
	for _, g := range []struct {
		name string
		got  []byte
	}{{"explain_compress.json", explained}, {"optimize_compress.json", optimized}} {
		want, err := os.ReadFile(filepath.Join("testdata", g.name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.got, want) {
			t.Errorf("reply differs from %s:\n%s", g.name, g.got)
		}
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (re-run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("response differs from %s (re-run with -update after intentional changes)\ngot:\n%s\nwant:\n%s",
			path, got, want)
	}
}
