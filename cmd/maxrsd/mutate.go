package main

import (
	"context"
	"encoding/json"
	"errors"
	"log"
	"net/http"
	"time"

	"maxrs"
)

// This file is maxrsd's mutation surface: POST /v1/datasets/{name}/insert
// and /delete buffer changes into the engine's delta layer (queries stay
// exact — the engine combines or re-solves as its influence bound
// allows), and the background compactor folds deltas into the base file
// once they grow past -deltacompact, off the query path.

// objectJSON is one object of an insert request.
type objectJSON struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
	W float64 `json:"w"`
}

type insertRequest struct {
	Objects []objectJSON `json:"objects"`
}

// insertResponse returns the engine-assigned ids of the inserted
// objects (the handles DELETE takes) and the resulting delta size.
type insertResponse struct {
	IDs     []uint64 `json:"ids"`
	Pending int      `json:"pending"`
}

type deleteRequest struct {
	IDs []uint64 `json:"ids"`
}

type deleteResponse struct {
	Removed int `json:"removed"`
	Pending int `json:"pending"`
}

// handleInsert buffers objects into a dataset's delta. The mutation runs
// under the same admission control and context plumbing as a query — a
// Delete scans the base file and either may trigger an inline
// compaction, so they are engine work, not metadata edits.
func (s *server) handleInsert(w http.ResponseWriter, r *http.Request) {
	var req insertRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxQueryBody)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, codeInvalidArgument, "bad request body: %v", err)
		return
	}
	if len(req.Objects) == 0 {
		httpError(w, http.StatusBadRequest, codeInvalidArgument, "insert needs at least one object")
		return
	}
	objs := make([]maxrs.Object, len(req.Objects))
	for i, o := range req.Objects {
		objs[i] = maxrs.Object{X: o.X, Y: o.Y, Weight: o.W}
	}
	s.mutate(w, r, func(ctx context.Context, ds *maxrs.Dataset) (any, error) {
		ids, err := ds.Insert(ctx, objs)
		if err != nil {
			return nil, err
		}
		return insertResponse{IDs: ids, Pending: ds.Pending()}, nil
	})
}

// handleDelete removes objects by id — base records and buffered inserts
// alike. The call is atomic: any unknown id fails the whole request with
// not_found and nothing is deleted.
func (s *server) handleDelete(w http.ResponseWriter, r *http.Request) {
	var req deleteRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxQueryBody)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, codeInvalidArgument, "bad request body: %v", err)
		return
	}
	if len(req.IDs) == 0 {
		httpError(w, http.StatusBadRequest, codeInvalidArgument, "delete needs at least one id")
		return
	}
	s.mutate(w, r, func(ctx context.Context, ds *maxrs.Dataset) (any, error) {
		removed, err := ds.Delete(ctx, req.IDs)
		if err != nil {
			return nil, err
		}
		return deleteResponse{Removed: len(removed), Pending: ds.Pending()}, nil
	})
}

// mutate runs one mutation against the named dataset under admission
// control. Cached results need no invalidation: the mutation bumps the
// dataset's sequence, and the cache fences every lookup on it
// (DESIGN.md §14.5).
func (s *server) mutate(w http.ResponseWriter, r *http.Request, fn func(context.Context, *maxrs.Dataset) (any, error)) {
	name := r.PathValue("name")
	entry, ok := s.lookup(name)
	if !ok {
		httpError(w, http.StatusNotFound, codeNotFound, "no dataset %q", name)
		return
	}
	ctx, leave, ok := s.enter(w, r, s.timeout)
	if !ok {
		return
	}
	defer leave()
	resp, err := fn(ctx, entry.ds)
	if err != nil {
		status, code := errStatus(err)
		httpError(w, status, code, "mutate: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// startCompactor launches the background delta compactor: every
// interval it folds any dataset whose pending-mutation count reached
// threshold into a fresh base file, off the query path (queries running
// meanwhile finish on the old base — it is reference-counted). Fenced by
// hardStop and tracked in s.bg: shutdown cancels and waits before the
// engine closes.
func (s *server) startCompactor(threshold int, interval time.Duration) {
	s.bg.Add(1)
	go func() {
		defer s.bg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.hardStop.Done():
				return
			case <-t.C:
			}
			s.mu.RLock()
			entries := make([]*dsEntry, 0, len(s.datasets))
			for _, e := range s.datasets {
				entries = append(entries, e)
			}
			s.mu.RUnlock()
			for _, e := range entries {
				if e.ds.Pending() < threshold {
					continue
				}
				// A released dataset (DELETE racing the tick) is not an
				// error worth logging; a cancelled compaction is shutdown.
				if err := e.ds.Compact(s.hardStop); err != nil &&
					s.hardStop.Err() == nil && !errors.Is(err, maxrs.ErrDatasetReleased) {
					log.Printf("maxrsd: background compaction: %v", err)
				}
			}
		}
	}()
}

// stopBackground cancels the background goroutines (and any in-flight
// queries — callers invoke it only at shutdown) and waits for them, so
// the engine can close without work still running on it.
func (s *server) stopBackground() {
	s.cancelQueries()
	s.bg.Wait()
}
