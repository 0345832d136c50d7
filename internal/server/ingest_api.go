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

// resolveIngestUnit maps an ingest request to a registered live unit,
// registering it from inline source, suite name, or the compile cache
// as needed, and returns its fingerprint. A bare fingerprint the
// server has never seen is returned as is: the store rejects it and
// counts the rejection.
func (s *Server) resolveIngestUnit(ctx context.Context, req *IngestRequest) (string, error) {
	if req.Program != "" || req.Source != "" {
		name, src, _, err := req.resolve()
		if err != nil {
			return "", err
		}
		c, err := s.compileCached(ctx, name, src)
		if err != nil {
			return "", err
		}
		if req.Fingerprint != "" && req.Fingerprint != c.fingerprint {
			return "", errUnprocessable("fingerprint %.12s does not match the supplied source (%.12s)",
				req.Fingerprint, c.fingerprint)
		}
		if err := s.registerLive(ctx, c); err != nil {
			return "", err
		}
		return c.fingerprint, nil
	}
	if req.Fingerprint == "" {
		return "", errBadRequest(`ingest needs "fingerprint", "program", or "source"`)
	}
	// A fingerprint the server has compiled before (estimate/optimize)
	// but never ingested: promote it from the compile cache.
	if !s.ingest.Registered(req.Fingerprint) {
		if c, ok := s.cache.lookup(req.Fingerprint); ok {
			if err := s.registerLive(ctx, c); err != nil {
				return "", err
			}
		}
	}
	return req.Fingerprint, nil
}

// registerLive pins c in the unit cache, so eviction cannot orphan a
// live aggregate, and then registers it with the ingest store: every
// registered fingerprint resolves through the cache. Past CacheSize
// live units a new one is refused with 507: the limit does not clear
// by waiting, so it is not a 429 a client would retry.
func (s *Server) registerLive(ctx context.Context, c *compiled) error {
	if !s.cache.pin(c) {
		s.liveRejects.Add(1)
		return &httpError{status: http.StatusInsufficientStorage,
			msg: fmt.Sprintf("live-unit limit of %d reached", s.cfg.CacheSize)}
	}
	s.ingest.Register(c.fingerprint, c.unit.Name, c.probePlan(ctx))
	return nil
}

func (s *Server) handleIngest(r *http.Request) (any, error) {
	var req IngestRequest
	if err := decode(r, &req); err != nil {
		return nil, err
	}
	fp, err := s.resolveIngestUnit(r.Context(), &req)
	if err != nil {
		return nil, err
	}
	vec := &probes.Vector{Counts: req.Counts}
	for _, e := range req.Escapes {
		vec.Escapes = append(vec.Escapes, probes.Escape{Func: e.Func, Block: e.Block})
	}
	rcpt, err := s.ingest.IngestCtx(r.Context(), fp,
		ingest.Upload{ID: req.UploadID, Label: req.Label, Vector: vec})
	switch {
	case err == nil:
	case errors.Is(err, ingest.ErrUnknownFingerprint):
		return nil, errNotFound("%v: upload the source once (or query it first)", err)
	case errors.Is(err, ingest.ErrDuplicate):
		return nil, errConflict("%v", err)
	case errors.Is(err, ingest.ErrShape), errors.Is(err, ingest.ErrInvalid):
		return nil, errUnprocessable("%v", err)
	default:
		return nil, err
	}
	return &IngestResponse{
		Fingerprint: rcpt.Fingerprint,
		Program:     rcpt.Program,
		Uploads:     rcpt.Uploads,
		Epoch:       rcpt.Epoch,
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
		for _, st := range s.ingest.Stats() {
			resp.Units = append(resp.Units, StatsUnit{
				Fingerprint: st.Fingerprint,
				Program:     st.Program,
				Uploads:     st.Uploads,
				Epoch:       st.Epoch,
				Probes:      st.NumProbes,
			})
		}
		return resp, nil
	}

	if !s.ingest.Registered(fp) {
		return nil, errNotFound("no live aggregate for fingerprint %.12s", fp)
	}
	c, _ := s.cache.lookup(fp) // registered units are pinned
	snap, ok := s.ingest.Snapshot(fp)
	if !ok {
		return nil, errNotFound("fingerprint %.12s is registered but has no uploads yet", fp)
	}
	unit := StatsUnit{
		Fingerprint: fp,
		Program:     c.unit.Name,
		Uploads:     snap.Uploads,
		Epoch:       snap.Epoch,
		Probes:      c.probePlan(r.Context()).NumProbes,
		MergeOrder:  s.ingest.MergeOrder(fp),
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

// liveSource builds the "live" frequency source of a fingerprint, or
// reports that the fingerprint is cold.
func (s *Server) liveSource(c *compiled) (*opt.Source, bool) {
	snap, ok := s.ingest.Snapshot(c.fingerprint)
	if !ok {
		return nil, false
	}
	return opt.ProfileSource(c.unit.CFG, snap.Profile, opt.LiveSourceName), true
}
