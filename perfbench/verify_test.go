package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"staticest"
	"staticest/internal/gen"
	"staticest/internal/server"
)

// post sends one request to a fresh production server and returns the
// reply body.
func post(t *testing.T, path string, req any) []byte {
	t.Helper()
	ts := httptest.NewServer(server.New(server.Config{}).Handler())
	defer ts.Close()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", path, resp.StatusCode, buf.Bytes())
	}
	return buf.Bytes()
}

func TestEstimateVerification(t *testing.T) {
	src := gen.Source(7)
	var req server.EstimateRequest
	req.Name, req.Source = "t.c", string(src)
	body := post(t, "/v1/estimate", req)
	want, err := expectEstimate("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkEstimate(body, want); err != nil {
		t.Fatalf("the server's estimate fails verification: %v", err)
	}

	// A corrupted reference body: one block frequency off.
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	fn := doc["functions"].([]any)[0].(map[string]any)
	freqs := fn["block_freq"].(map[string]any)["smart"].([]any)
	freqs[0] = freqs[0].(float64) + 1
	bad, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkEstimate(bad, want); err == nil {
		t.Fatal("a corrupted estimate body passed verification")
	}

	// Later replies must equal the first one byte for byte.
	w := &estimateHit{srcs: []source{{"t.c", src}}, refs: [][]byte{bad}, served: make([]atomic.Int64, 1)}
	if err := w.check(&call{item: 0}, http.StatusOK, body); err == nil {
		t.Fatal("a reply differing from the first reply passed the timed check")
	}
	if _, failed, errs := w.verify(nil); failed != 1 || len(errs) != 1 {
		t.Fatalf("verify with a corrupted reference: %d failed, errors %v; want the one reply failed", failed, errs)
	}
}

func TestProfileVerification(t *testing.T) {
	src := gen.Source(11)
	var req server.ProfileRequest
	req.Name, req.Source, req.Instrumentation = "t.c", string(src), "sparse"
	body := post(t, "/v1/profile", req)

	u, err := staticest.Compile("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := u.Run(staticest.RunOptions{MaxSteps: serverMaxSteps})
	if err != nil {
		t.Fatal(err)
	}
	fp := staticest.Fingerprint(src)
	want := profileResponse(u, fp, "", ref, ref.Profile, u.PlanProbes())
	if err := checkProfile(body, want); err != nil {
		t.Fatalf("the server's sparse profile fails verification against a full run: %v", err)
	}

	// A corrupted reference profile: one block count off.
	bad := ref.Profile.Clone()
	bad.BlockCounts[0][0]++
	want = profileResponse(u, fp, "", ref, bad, u.PlanProbes())
	if err := checkProfile(body, want); err == nil {
		t.Fatal("verification against a corrupted reference profile passed")
	}
}

func TestFirstDiffNamesThePath(t *testing.T) {
	w := map[string]any{"a": []any{1.0, 2.0}, "b": "x"}
	g := map[string]any{"a": []any{1.0, 3.0}, "b": "x"}
	if d := firstDiff(w, g, "$"); d != "$.a[1]: got 3, want 2" {
		t.Errorf("firstDiff = %q", d)
	}
	if d := firstDiff(w, w, "$"); d != "" {
		t.Errorf("firstDiff of equal values = %q", d)
	}
}
