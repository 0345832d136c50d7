package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"staticest/internal/eval"
	"staticest/internal/ingest"
	"staticest/internal/opt"
	"staticest/internal/probes"
)

// This file is the serving side of the PGO loop: fleet clients upload
// sparse probe vectors (POST /v1/profiles/ingest), the store merges
// them into live per-unit aggregates, and /v1/profiles/stats reports
// each aggregate plus — on request — the decision-agreement rows the
// offline eval harness computes, recalculated from the live aggregate.

// --- POST /v1/profiles/ingest -----------------------------------------------

// IngestEscape mirrors probes.Escape in the wire format.
type IngestEscape struct {
	Func  int `json:"func"`
	Block int `json:"block"`
}

// IngestRequest uploads one sparse run. The unit is identified by
// fingerprint; a request may instead (or additionally) carry the
// source, which registers the unit on first contact — after that,
// fleet members upload vectors against the bare fingerprint.
type IngestRequest struct {
	sourceRef
	// Fingerprint identifies an already-registered (or cached) unit.
	Fingerprint string `json:"fingerprint,omitempty"`
	// UploadID deduplicates retries: a non-empty ID is accepted at most
	// once per unit (replays get 409).
	UploadID string `json:"upload_id,omitempty"`
	// Label names the run's input in the aggregate's merge order.
	Label string `json:"label,omitempty"`
	// Counts is the probe vector, indexed by the unit's plan.
	Counts []float64 `json:"counts"`
	// Escapes lists frames unwound by exit(), outermost first.
	Escapes []IngestEscape `json:"escapes,omitempty"`
}

// IngestResponse acknowledges one accepted upload.
type IngestResponse struct {
	Fingerprint string `json:"fingerprint"`
	Program     string `json:"program"`
	Uploads     int    `json:"uploads"`
	Epoch       uint64 `json:"epoch"`
}

// resolveIngestUnit maps an ingest request to its live unit's cache
// entry, registering the unit from inline source, suite name, or the
// compile cache as needed. A bare fingerprint the server has never
// seen is rejected and counted as unknown.
func (s *Server) resolveIngestUnit(ctx context.Context, req *IngestRequest) (*compiled, error) {
	if req.Program != "" || req.Source != "" {
		name, src, _, err := req.resolve()
		if err != nil {
			return nil, err
		}
		c, err := s.compileCached(ctx, name, src)
		if err != nil {
			return nil, err
		}
		if req.Fingerprint != "" && req.Fingerprint != c.fingerprint {
			return nil, errUnprocessable("fingerprint %.12s does not match the supplied source (%.12s)",
				req.Fingerprint, c.fingerprint)
		}
		return s.registerLive(ctx, c)
	}
	if req.Fingerprint == "" {
		return nil, errBadRequest(`ingest needs "fingerprint", "program", or "source"`)
	}
	c, ok := s.cache.lookup(req.Fingerprint)
	switch {
	case !ok:
		return nil, errNotFound("%v: upload the source once (or query it first)",
			s.ingest.RejectUnknown(req.Fingerprint))
	case c.live.Load() != nil:
		return c, nil
	}
	// A fingerprint the server has compiled before (estimate/optimize)
	// but never ingested: promote it from the compile cache.
	return s.registerLive(ctx, c)
}

// registerLive pins c in the unit cache, which registers its live
// aggregate, and returns the pinned copy: eviction cannot orphan a live
// aggregate, and every live unit resolves through the cache. Past
// CacheSize live units a new one is refused with 507: the limit does
// not clear by waiting, so it is not a 429 a client would retry.
func (s *Server) registerLive(ctx context.Context, c *compiled) (*compiled, error) {
	p, ok := s.cache.pin(c, c.probePlan(ctx))
	if !ok {
		s.liveRejects.Add(1)
		return nil, &httpError{status: http.StatusInsufficientStorage,
			msg: fmt.Sprintf("live-unit limit of %d reached", s.cfg.CacheSize)}
	}
	return p, nil
}

func (s *Server) handleIngest(r *http.Request) (any, error) {
	var req IngestRequest
	if err := decode(r, &req); err != nil {
		return nil, err
	}
	c, err := s.resolveIngestUnit(r.Context(), &req)
	if err != nil {
		return nil, err
	}
	vec := &probes.Vector{Counts: req.Counts}
	for _, e := range req.Escapes {
		vec.Escapes = append(vec.Escapes, probes.Escape{Func: e.Func, Block: e.Block})
	}
	n, err := s.ingest.IngestCtx(r.Context(), c.live.Load(),
		ingest.Upload{ID: req.UploadID, Label: req.Label, Vector: vec})
	switch {
	case err == nil:
	case errors.Is(err, ingest.ErrDuplicate):
		return nil, errConflict("%v", err)
	case errors.Is(err, ingest.ErrShape), errors.Is(err, ingest.ErrInvalid):
		return nil, errUnprocessable("%v", err)
	default:
		return nil, err
	}
	return &IngestResponse{
		Fingerprint: c.fingerprint,
		Program:     c.unit.Name,
		Uploads:     n,
		Epoch:       uint64(n),
	}, nil
}

// --- GET /v1/profiles/stats -------------------------------------------------

// AgreementRow is one source's decision agreement against the unit's
// live aggregate — the same metrics as the offline eval.OptReport,
// computed by the same code (eval.AgreementRows).
type AgreementRow struct {
	Source        string  `json:"source"`
	InlineOverlap float64 `json:"inline_top10"`
	InlineTau     float64 `json:"inline_tau"`
	SpillTau      float64 `json:"spill_tau"`
	FallThrough   float64 `json:"fall_through"`
}

// StatsUnit describes one live unit.
type StatsUnit struct {
	Fingerprint string `json:"fingerprint"`
	Program     string `json:"program"`
	Uploads     int    `json:"uploads"`
	Epoch       uint64 `json:"epoch"`
	Probes      int    `json:"probes"`
	// MergeOrder and Agreement are present only on single-unit queries
	// (?fingerprint=...).
	MergeOrder []string       `json:"merge_order,omitempty"`
	Agreement  []AgreementRow `json:"agreement,omitempty"`
}

// StatsResponse is the stats endpoint's reply.
type StatsResponse struct {
	Units []StatsUnit `json:"units"`
}

func (s *Server) handleStats(r *http.Request) (any, error) {
	q := r.URL.Query()
	fp := q.Get("fingerprint")
	if fp == "" {
		resp := &StatsResponse{Units: []StatsUnit{}}
		for _, c := range s.cache.liveUnits() {
			st := StatsUnit{
				Fingerprint: c.fingerprint,
				Program:     c.unit.Name,
				Probes:      c.probePlan(r.Context()).NumProbes,
			}
			if snap, ok := s.ingest.Snapshot(c.live.Load()); ok {
				st.Uploads, st.Epoch = snap.Uploads, snap.Epoch
			}
			resp.Units = append(resp.Units, st)
		}
		return resp, nil
	}

	var live *ingest.Unit
	c, ok := s.cache.lookup(fp)
	if ok {
		live = c.live.Load()
	}
	if live == nil {
		return nil, errNotFound("no live aggregate for fingerprint %.12s", fp)
	}
	snap, ok := s.ingest.Snapshot(live)
	if !ok {
		return nil, errNotFound("fingerprint %.12s is registered but has no uploads yet", fp)
	}
	unit := StatsUnit{
		Fingerprint: fp,
		Program:     c.unit.Name,
		Uploads:     snap.Uploads,
		Epoch:       snap.Epoch,
		Probes:      c.probePlan(r.Context()).NumProbes,
		MergeOrder:  s.ingest.MergeOrder(live),
	}
	if q.Get("agreement") != "" {
		rows, err := eval.AgreementRows(c.unit.Name, c.unit, c.estimates(r.Context()), snap.Profile)
		if err != nil {
			return nil, errUnprocessable("agreement for %.12s: %v", fp, err)
		}
		for _, row := range rows {
			if row.Source == "profile" || row.Source == "src-order" {
				continue // layout brackets; not estimate-vs-live agreement
			}
			unit.Agreement = append(unit.Agreement, AgreementRow{
				Source:        row.Source,
				InlineOverlap: row.InlineOverlap,
				InlineTau:     row.InlineTau,
				SpillTau:      row.SpillTau,
				FallThrough:   row.FallThrough,
			})
		}
	}
	return &StatsResponse{Units: []StatsUnit{unit}}, nil
}

// liveSource builds the "live" frequency source of a unit from its live
// aggregate, with the aggregate's upload count, or reports that the
// unit is cold: not live, or live with nothing ingested yet.
func (s *Server) liveSource(c *compiled) (*opt.Source, int, bool) {
	live := c.live.Load()
	if live == nil {
		return nil, 0, false
	}
	snap, ok := s.ingest.Snapshot(live)
	if !ok {
		return nil, 0, false
	}
	return opt.ProfileSource(c.unit.CFG, snap.Profile, opt.LiveSourceName), snap.Uploads, true
}
