package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"maxrs/internal/dist"
)

// This file is maxrsd's half of the cluster protocol (DESIGN.md §13):
// the worker side serves POST /shard/solve — a self-contained shard
// solve shipped by a coordinator — and the coordinator side exposes the
// membership table over /cluster/workers so workers can join and leave
// a running cluster without a restart.

// maxShardBody bounds a /shard/solve body: a halo-extended partition's
// objects in JSON (same ceiling as a CSV upload).
const maxShardBody = maxUpload

// handleShardSolve answers one shard of a coordinator's distributed
// query. The shard request is self-contained (the worker holds no
// dataset state), so it runs through the same admission control, queue,
// drain handling, and context plumbing as a client query — a saturated
// worker sheds shards with 429 + Retry-After and the coordinator's
// retry layer reroutes them, rather than queueing unboundedly under a
// coordinator's fan-out.
func (s *server) handleShardSolve(w http.ResponseWriter, r *http.Request) {
	ctx, leave, ok := s.enter(w, r, s.timeout)
	if !ok {
		return
	}
	defer leave()
	r.Body = http.MaxBytesReader(w, r.Body, maxShardBody)
	req, err := dist.DecodeRequest(r)
	if err != nil {
		// In-flight damage is retryable — the coordinator's resend carries
		// clean bytes — while a genuinely malformed request is not.
		if errors.Is(err, dist.ErrBadChecksum) {
			httpError(w, http.StatusServiceUnavailable, codeUnavailable, "%v", err)
			return
		}
		httpError(w, http.StatusBadRequest, codeInvalidArgument, "%v", err)
		return
	}
	reply, err := s.eng.SolveShard(ctx, req)
	if err != nil {
		status, code := errStatus(err)
		httpError(w, status, code, "shard solve: %v", err)
		return
	}
	_ = dist.WriteReply(w, reply) // write errors mean the client is gone
}

// workerJSON is the /cluster/workers wire form of one member.
type workerJSON struct {
	Name     string `json:"name"`
	URL      string `json:"url"`
	Ready    bool   `json:"ready"`
	Failures int    `json:"failures,omitempty"`
}

type workerListResponse struct {
	Workers []workerJSON `json:"workers"`
}

func (s *server) handleListWorkers(w http.ResponseWriter, _ *http.Request) {
	ws := s.eng.Workers()
	out := workerListResponse{Workers: make([]workerJSON, 0, len(ws))}
	for _, wk := range ws {
		out.Workers = append(out.Workers, workerJSON{
			Name: wk.Name, URL: wk.URL, Ready: wk.Ready, Failures: wk.Failures,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleAddWorker registers (or re-registers) a worker at runtime —
// the endpoint a worker started with -join posts to.
func (s *server) handleAddWorker(w http.ResponseWriter, r *http.Request) {
	var req workerJSON
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxQueryBody)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, codeInvalidArgument, "bad request body: %v", err)
		return
	}
	if req.URL == "" {
		httpError(w, http.StatusBadRequest, codeInvalidArgument, "worker registration needs a url")
		return
	}
	if !s.eng.RegisterWorker(req.Name, req.URL) {
		httpError(w, http.StatusPreconditionFailed, codeInvalidArgument,
			"not a coordinator (start maxrsd with -peers or -coordinator)")
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"registered": req.URL})
}

func (s *server) handleRemoveWorker(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.eng.RemoveWorker(name) {
		httpError(w, http.StatusNotFound, codeNotFound, "no worker %q", name)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"removed": name})
}

// joinCluster announces this worker to a coordinator, retrying briefly:
// at startup the coordinator may not be listening yet, and a worker that
// gives up on the first connection refusal defeats the point of dynamic
// membership. The coordinator's prober takes over liveness from here.
func joinCluster(coordinator, name, advertise string) error {
	body, err := json.Marshal(workerJSON{Name: name, URL: advertise})
	if err != nil {
		return err
	}
	target := strings.TrimSuffix(coordinator, "/") + "/v1/cluster/workers"
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		if attempt > 0 {
			time.Sleep(time.Duration(attempt) * 500 * time.Millisecond)
		}
		resp, err := http.Post(target, "application/json", bytes.NewReader(body))
		if err != nil {
			lastErr = err
			continue
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode/100 == 2 {
			return nil
		}
		lastErr = fmt.Errorf("coordinator answered %s", resp.Status)
		if resp.StatusCode == http.StatusPreconditionFailed {
			break // the target is not a coordinator; retrying cannot help
		}
	}
	return fmt.Errorf("join %s: %w", coordinator, lastErr)
}
