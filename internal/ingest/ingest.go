// Package ingest is the serving side of the PGO loop: it accepts
// sparse probe vectors uploaded by a fleet, reconstructs each into the
// complete profile the run would have produced under full
// instrumentation (probes.Reconstruct), and merges it into a live
// per-unit cross-input aggregate (profile.Accumulator).
//
// The package keeps no table of units. Register returns a unit's live
// state, and the caller keeps it (the server, on the unit's cache
// entry) and hands it back with each upload. Within one unit the
// accumulator serializes merges on a short O(profile) critical
// section; reconstruction, the expensive step, runs outside every
// lock. Readers obtain aggregates through epoch-swap snapshots: one
// atomic load while no new uploads have landed.
//
// Every upload is validated before it can touch an aggregate: the
// vector length must match the unit's probe plan, escape records must
// be in range, and an upload ID may be consumed at most once (duplicate
// fleet retries are rejected, not double-counted). A caller that finds
// no unit for a fingerprint rejects the upload through RejectUnknown.
// Each rejection is counted under a distinct reason so a poisoning
// attempt is visible in /metrics.
package ingest

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"staticest/internal/obs"
	"staticest/internal/probes"
	"staticest/internal/profile"
)

// Rejection reasons, used as the reason label of ingest_rejects_total
// and wrapped in the errors Ingest returns.
var (
	// ErrUnknownFingerprint: no unit with that fingerprint is registered.
	ErrUnknownFingerprint = errors.New("unknown fingerprint")
	// ErrDuplicate: the upload ID was already consumed for this unit.
	ErrDuplicate = errors.New("duplicate upload")
	// ErrShape: the probe vector's length does not match the unit's plan.
	ErrShape = errors.New("probe vector shape mismatch")
	// ErrInvalid: the payload is structurally invalid (nil vector,
	// out-of-range escape records, or a profile the aggregate rejects).
	ErrInvalid = errors.New("invalid upload")
)

// Upload is one fleet-collected sparse run.
type Upload struct {
	// ID deduplicates fleet retries: a non-empty ID is consumed at most
	// once per unit. Empty IDs are never deduplicated.
	ID string
	// Label names the run's input; it becomes the profile label recorded
	// in the aggregate's merge order.
	Label string
	// Vector is the raw probe-counter output of the sparse run.
	Vector *probes.Vector
}

// Unit is one registered translation unit's live state: the plan its
// uploads are reconstructed under, its aggregate, and the upload IDs it
// has consumed. The fingerprint only labels errors and spans.
type Unit struct {
	fp   string
	plan *probes.Plan
	acc  *profile.Accumulator

	mu   sync.Mutex
	seen map[string]struct{} // consumed upload IDs
}

// Store validates, reconstructs and merges uploads into the units its
// caller keeps, and counts what it does.
type Store struct {
	obs *obs.Observer

	uploads *obs.Counter
	swaps   *obs.Counter
	units   *obs.Gauge
}

// rejectReasons enumerates every reason label reject is called with.
// NewStore pre-registers a counter per reason so the full
// ingest_rejects_total family is present in the exposition from the
// first scrape — a soak that rejected nothing still proves the series
// exist (scripts/fleet_soak.sh checks for them).
var rejectReasons = []string{"unknown_fingerprint", "invalid", "shape", "duplicate"}

// NewStore creates a store reporting to o (nil disables
// observability).
func NewStore(o *obs.Observer) *Store {
	s := &Store{
		obs:     o,
		uploads: o.Counter("ingest_uploads_total"),
		swaps:   o.Counter("ingest_epoch_swaps_total"),
		units:   o.Gauge("ingest_units"),
	}
	for _, reason := range rejectReasons {
		o.Counter(obs.Labels("ingest_rejects_total", "reason", reason))
	}
	return s
}

// Register makes a unit ingestible and returns its live state: uploads
// handed back with it are reconstructed under plan and merged into a
// fresh accumulator. The caller registers each unit once and keeps the
// state.
func (s *Store) Register(fp string, plan *probes.Plan) *Unit {
	s.units.Add(1)
	return &Unit{
		fp:   fp,
		plan: plan,
		acc:  profile.NewAccumulator(),
		seen: make(map[string]struct{}),
	}
}

// RejectUnknown counts an upload for a fingerprint that names no
// registered unit and returns its ErrUnknownFingerprint error.
func (s *Store) RejectUnknown(fp string) error {
	return s.reject("unknown_fingerprint", ErrUnknownFingerprint, "ingest %.12s", fp)
}

// reject counts one rejection under its reason label and wraps the
// sentinel error with context.
func (s *Store) reject(reason string, sentinel error, format string, args ...any) error {
	s.obs.Counter(obs.Labels("ingest_rejects_total", "reason", reason)).Add(1)
	return fmt.Errorf(format+": %w", append(args, sentinel)...)
}

// Ingest validates one upload, reconstructs its full profile, merges it
// into u's live aggregate, and returns the unit's merge count after it.
// Validation failures map to the sentinel errors above (check with
// errors.Is) and never modify the aggregate.
func (s *Store) Ingest(u *Unit, up Upload) (int, error) {
	return s.IngestCtx(context.Background(), u, up)
}

// IngestCtx is Ingest under request-scoped tracing: the upload's
// "ingest.merge" span (validation + reconstruction + merge, with
// reconstruction also timed as its own "probes.reconstruct" child)
// parents from ctx's span when one is present, so a served upload
// appears in its HTTP request's span tree.
func (s *Store) IngestCtx(ctx context.Context, u *Unit, up Upload) (int, error) {
	sp := obs.StartSpanFrom(ctx, s.obs, "ingest.merge", obs.KV("fp", short(u.fp)))
	defer sp.End()
	if up.Vector == nil {
		return 0, s.reject("invalid", ErrInvalid, "ingest %.12s: nil probe vector", u.fp)
	}
	if len(up.Vector.Counts) != u.plan.NumProbes {
		return 0, s.reject("shape", ErrShape,
			"ingest %.12s: vector has %d counters, plan wants %d",
			u.fp, len(up.Vector.Counts), u.plan.NumProbes)
	}
	if up.ID != "" {
		u.mu.Lock()
		_, dup := u.seen[up.ID]
		u.mu.Unlock()
		if dup {
			return 0, s.reject("duplicate", ErrDuplicate, "ingest %.12s: upload %q", u.fp, up.ID)
		}
	}

	// Reconstruction — the expensive step — runs outside every lock.
	rsp := sp.Child("probes.reconstruct")
	p, err := probes.Reconstruct(u.plan, up.Vector, nil)
	rsp.End()
	if err != nil {
		return 0, s.reject("invalid", ErrInvalid, "ingest %.12s: %v", u.fp, err)
	}
	p.Label = up.Label

	// Consume the ID and merge under the unit lock so a racing retry of
	// the same ID cannot double-merge between check and add.
	u.mu.Lock()
	if up.ID != "" {
		if _, dup := u.seen[up.ID]; dup {
			u.mu.Unlock()
			return 0, s.reject("duplicate", ErrDuplicate, "ingest %.12s: upload %q", u.fp, up.ID)
		}
		u.seen[up.ID] = struct{}{}
	}
	n, err := u.acc.Add(p)
	if err != nil {
		// The reconstructed profile mismatched the running aggregate's
		// shape; un-consume the ID since nothing was merged.
		if up.ID != "" {
			delete(u.seen, up.ID)
		}
		u.mu.Unlock()
		return 0, s.reject("shape", ErrShape, "ingest %.12s: %v", u.fp, err)
	}
	u.mu.Unlock()

	s.uploads.Add(1)
	return n, nil
}

// Snapshot returns u's live aggregate, or (nil, false) while nothing
// has been ingested. Epoch swaps triggered by this call are counted.
func (s *Store) Snapshot(u *Unit) (*profile.Snapshot, bool) {
	snap, swapped := u.acc.Snapshot()
	if swapped {
		s.swaps.Add(1)
	}
	return snap, snap != nil
}

// MergeOrder returns the labels of u's merged uploads in merge order.
func (s *Store) MergeOrder(u *Unit) []string {
	return u.acc.MergeOrder()
}

// short truncates a fingerprint to the 12-character prefix the
// ingest.merge span carries.
func short(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	return fp
}
