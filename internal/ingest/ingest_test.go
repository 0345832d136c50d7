package ingest_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"staticest"
	"staticest/internal/ingest"
	"staticest/internal/obs"
	"staticest/internal/probes"
	"staticest/internal/profile"
)

// loopSrc iterates argv[1] times so different args produce genuinely
// different profiles for the aggregate to merge.
const loopSrc = `
int work(int n) {
	int i, s;
	s = 0;
	for (i = 0; i < n; i++) {
		if (i % 3 == 0)
			s = s + i;
		else
			s = s - 1;
	}
	return s;
}
int main(int argc, char **argv) {
	int n;
	n = 7;
	if (argc > 1)
		n = atoi(argv[1]);
	return work(n) & 15;
}
`

func compileLoop(t *testing.T) (*staticest.Unit, *probes.Plan, string) {
	t.Helper()
	u, err := staticest.Compile("loop.c", []byte(loopSrc))
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return u, u.PlanProbes(), staticest.Fingerprint([]byte(loopSrc))
}

// sparseVec runs the program under sparse instrumentation with one arg.
func sparseVec(t *testing.T, u *staticest.Unit, plan *probes.Plan, arg string) *probes.Vector {
	t.Helper()
	res, err := u.Run(staticest.RunOptions{
		Args:            []string{arg},
		Instrumentation: staticest.SparseInstrumentation,
		Plan:            plan,
	})
	if err != nil {
		t.Fatalf("sparse run %q: %v", arg, err)
	}
	return res.Probes
}

// TestIngestMatchesOfflineAggregate is the subsystem's core contract:
// ingesting k uploads and snapshotting equals reconstructing the same
// vectors locally and running them through profile.Aggregate — exactly,
// field for field.
func TestIngestMatchesOfflineAggregate(t *testing.T) {
	u, plan, fp := compileLoop(t)
	st := ingest.NewStore(nil)
	live := st.Register(fp, plan)

	args := []string{"3", "9", "27", "5"}
	var offline []*profile.Profile
	for i, arg := range args {
		vec := sparseVec(t, u, plan, arg)
		rec, err := staticest.Reconstruct(plan, vec)
		if err != nil {
			t.Fatalf("reconstruct %q: %v", arg, err)
		}
		rec.Label = arg
		offline = append(offline, rec)

		n, err := st.Ingest(live, ingest.Upload{
			ID:     fmt.Sprintf("u%d", i),
			Label:  arg,
			Vector: vec,
		})
		if err != nil {
			t.Fatalf("ingest %q: %v", arg, err)
		}
		if n != i+1 {
			t.Fatalf("merge count = %d, want %d", n, i+1)
		}

		snap, ok := st.Snapshot(live)
		if !ok {
			t.Fatal("no snapshot after ingest")
		}
		want, err := profile.Aggregate(offline)
		if err != nil {
			t.Fatal(err)
		}
		if diffs := staticest.DiffProfiles(want, snap.Profile); len(diffs) > 0 {
			t.Fatalf("after %d uploads, live aggregate differs from offline: %v", i+1, diffs[0])
		}
	}
	if got := st.MergeOrder(live); fmt.Sprint(got) != fmt.Sprint(args) {
		t.Errorf("merge order %v, want %v", got, args)
	}
}

// TestIngestRejections pins the defensive-validation contract: every
// malformed upload maps to its sentinel error, bumps a distinct reject
// counter, and leaves the aggregate untouched.
func TestIngestRejections(t *testing.T) {
	u, plan, fp := compileLoop(t)
	o := obs.New()
	st := ingest.NewStore(o)
	live := st.Register(fp, plan)

	good := sparseVec(t, u, plan, "4")
	if _, err := st.Ingest(live, ingest.Upload{ID: "first", Label: "4", Vector: good}); err != nil {
		t.Fatalf("good upload rejected: %v", err)
	}
	baseline, _ := st.Snapshot(live)

	upload := func(up ingest.Upload) func() error {
		return func() error { _, err := st.Ingest(live, up); return err }
	}
	cases := []struct {
		name     string
		ingest   func() error
		sentinel error
		counter  string
	}{
		{"unknown fingerprint", func() error { return st.RejectUnknown("deadbeef") },
			ingest.ErrUnknownFingerprint, "unknown_fingerprint"},
		{"duplicate id", upload(ingest.Upload{ID: "first", Vector: good}),
			ingest.ErrDuplicate, "duplicate"},
		{"nil vector", upload(ingest.Upload{ID: "nilvec"}),
			ingest.ErrInvalid, "invalid"},
		{"short vector", upload(ingest.Upload{ID: "short",
			Vector: &probes.Vector{Counts: make([]float64, plan.NumProbes-1)}}),
			ingest.ErrShape, "shape"},
		{"long vector", upload(ingest.Upload{ID: "long",
			Vector: &probes.Vector{Counts: make([]float64, plan.NumProbes+3)}}),
			ingest.ErrShape, "shape"},
		{"bad escape", upload(ingest.Upload{ID: "esc", Vector: &probes.Vector{
			Counts:  append([]float64(nil), good.Counts...),
			Escapes: []probes.Escape{{Func: 99, Block: 0}},
		}}), ingest.ErrInvalid, "invalid"},
	}
	for _, tc := range cases {
		before := o.Counter(obs.Labels("ingest_rejects_total", "reason", tc.counter)).Value()
		err := tc.ingest()
		if !errors.Is(err, tc.sentinel) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.sentinel)
		}
		after := o.Counter(obs.Labels("ingest_rejects_total", "reason", tc.counter)).Value()
		if after != before+1 {
			t.Errorf("%s: reject counter %q went %d -> %d, want +1", tc.name, tc.counter, before, after)
		}
	}

	snap, _ := st.Snapshot(live)
	if snap.Uploads != 1 || snap.Epoch != baseline.Epoch {
		t.Fatalf("aggregate modified by rejected uploads: %d uploads, epoch %d",
			snap.Uploads, snap.Epoch)
	}
	if diffs := staticest.DiffProfiles(baseline.Profile, snap.Profile); len(diffs) > 0 {
		t.Fatalf("aggregate poisoned by rejected upload: %v", diffs[0])
	}
	// A fresh ID with a valid vector is still accepted after the storm.
	if _, err := st.Ingest(live, ingest.Upload{ID: "second", Label: "4b", Vector: sparseVec(t, u, plan, "4")}); err != nil {
		t.Fatalf("valid upload after rejections: %v", err)
	}
	if got := o.Counter("ingest_uploads_total").Value(); got != 2 {
		t.Errorf("ingest_uploads_total = %d, want 2", got)
	}
}

// TestIngestConcurrentUploaders runs 32 goroutines ingesting while 4
// readers snapshot (the -race test the issue asks for), then verifies
// the final aggregate equals the offline profile.Aggregate of the same
// uploads in the recorded merge order — byte for byte.
func TestIngestConcurrentUploaders(t *testing.T) {
	u, plan, fp := compileLoop(t)
	st := ingest.NewStore(obs.New())
	live := st.Register(fp, plan)

	const uploaders = 32
	// Pre-run the sparse executions (the interpreter is the slow part);
	// ingestion itself is what we want contended.
	byLabel := make(map[string]*profile.Profile, uploaders)
	vecs := make(map[string]*probes.Vector, uploaders)
	for i := 0; i < uploaders; i++ {
		label := fmt.Sprintf("n%d", i+1)
		vec := sparseVec(t, u, plan, fmt.Sprint(i+1))
		rec, err := staticest.Reconstruct(plan, vec)
		if err != nil {
			t.Fatal(err)
		}
		rec.Label = label
		byLabel[label] = rec
		vecs[label] = vec
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < uploaders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			label := fmt.Sprintf("n%d", i+1)
			if _, err := st.Ingest(live, ingest.Upload{ID: label, Label: label, Vector: vecs[label]}); err != nil {
				t.Errorf("ingest %s: %v", label, err)
			}
		}(i)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if snap, ok := st.Snapshot(live); ok && snap.Profile.Cycles <= 0 {
					t.Error("live snapshot with non-positive cycle count")
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	close(stop)
	readers.Wait()

	order := st.MergeOrder(live)
	if len(order) != uploaders {
		t.Fatalf("merge order has %d entries, want %d", len(order), uploaders)
	}
	ordered := make([]*profile.Profile, len(order))
	for i, label := range order {
		ordered[i] = byLabel[label]
	}
	want, err := profile.Aggregate(ordered)
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := st.Snapshot(live)
	if diffs := staticest.DiffProfiles(want, snap.Profile); len(diffs) > 0 {
		t.Fatalf("concurrent live aggregate differs from offline merge-order aggregate: %v", diffs[0])
	}
	if snap.Uploads != uploaders {
		t.Fatalf("uploads = %d, want %d", snap.Uploads, uploaders)
	}
}
