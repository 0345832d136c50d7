package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

func sp(id, parent int64, name string, start, end int64) span {
	return span{ID: id, Parent: parent, Name: name, Start: start, End: end}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := sp(1, 0, "server", 0, 100)
	// [10,30] and [20,50] overlap: together they cover 40, not 50.
	kids := []span{sp(2, 1, "a", 10, 30), sp(3, 1, "b", 20, 50), sp(4, 1, "c", 60, 70)}
	if got := selfTime(parent, kids); got != 50 {
		t.Errorf("self = %d, want 50", got)
	}
	// A child inside another child adds nothing.
	kids = append(kids, sp(5, 1, "d", 12, 14))
	if got := selfTime(parent, kids); got != 50 {
		t.Errorf("self with a nested child = %d, want 50", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self without children = %d, want 100", got)
	}
}

func TestSelfTimeReplayedChildren(t *testing.T) {
	// Replayed layers run after the span they belong to; their union
	// still counts.
	parent := sp(1, 0, "server", 0, 100)
	kids := []span{sp(2, 1, "server.decode", 500, 530), sp(3, 1, "staticest.fingerprint", 530, 540)}
	if got := selfTime(parent, kids); got != 60 {
		t.Errorf("self = %d, want 60", got)
	}
	// More replayed work than the parent took is a negative self time.
	kids = append(kids, sp(4, 1, "x", 600, 700))
	if got := selfTime(parent, kids); got != -40 {
		t.Errorf("self = %d, want -40", got)
	}
}

func TestSelfTimesPartitionTheRequest(t *testing.T) {
	spans := []span{
		sp(1, 0, "transport", 0, 1000),
		sp(2, 1, "server", 100, 900),
		sp(3, 2, "cparse.parse", 2000, 2300),
		sp(4, 3, "clex.lex", 2300, 2400), // inner layer timed after its outer call
		sp(5, 2, "sem.analyze", 2400, 2500),
	}
	st := selfTimes(spans)
	want := map[string]int64{"transport": 200, "server": 400, "cparse.parse": 200, "clex.lex": 100, "sem.analyze": 100}
	var total int64
	for name, w := range want {
		if st[name] == nil || st[name].Self != w || st[name].Calls != 1 {
			t.Errorf("%s: %+v, want self %d over 1 call", name, st[name], w)
		}
		total += w
	}
	if total != 1000 {
		t.Errorf("self times sum to %d, want the client span's 1000", total)
	}
	if st["server"].Neg != 0 {
		t.Errorf("negative count %d, want 0", st["server"].Neg)
	}
}

func TestWrapParentsHandlerSpan(t *testing.T) {
	tr := newTracer()
	h := tr.wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	req := httptest.NewRequest(http.MethodPost, "/v1/estimate", nil)
	req.Header.Set(reqHeader, clientReqID(42))
	h.ServeHTTP(httptest.NewRecorder(), req)
	if len(tr.spans) != 1 || tr.spans[0].Parent != 42 || tr.spans[0].Name != "server" {
		t.Fatalf("spans = %+v, want one server span under 42", tr.spans)
	}
}
