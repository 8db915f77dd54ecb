package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"maxrs"
	"maxrs/internal/dist"
)

// server is the maxrsd serving layer: one shared concurrency-safe Engine,
// a named-dataset registry, a bounded worker pool, and an LRU result
// cache. All HTTP handlers are safe for concurrent use; the Engine's own
// concurrency contract (DESIGN.md §7) does the heavy lifting.
type server struct {
	eng     *maxrs.Engine
	sem     chan struct{} // one slot per concurrently executing query
	cache   *resultCache
	dataDir string // root for ?path= loads; empty disables them

	// queue bounds how many /query requests may wait for a worker beyond
	// the pool itself: once workers+queue requests are in flight, further
	// ones are shed immediately with 429 + Retry-After instead of queueing
	// unboundedly (each queued request pins a goroutine, a connection, and
	// a decoded body — unbounded queues turn overload into memory death).
	queue    int
	inflight atomic.Int64
	// timeout is the per-query ceiling (-timeout): a ?timeout= request
	// parameter may tighten it but never exceed it. 0 = no server ceiling.
	timeout time.Duration

	// ready/draining drive /readyz: not-ready until the engine is up
	// (markReady), and again once shutdown starts (startDrain) — so a load
	// balancer stops routing before the drain deadline cancels stragglers.
	ready    atomic.Bool
	draining atomic.Bool

	// hardStop is the server-wide cancellation: every query runs under a
	// context derived from both its request and hardStop, so a client
	// disconnect stops that query and cancelQueries stops all of them
	// (the graceful-shutdown straggler deadline).
	hardStop      context.Context
	cancelQueries context.CancelFunc

	// drainCh closes when startDrain fires, releasing every query still
	// queued for a worker: a queued query has done no work, its client
	// was already told (via /readyz) to go elsewhere, and holding it
	// through the drain would only delay shutdown. Executing queries are
	// unaffected until the drain deadline.
	drainCh   chan struct{}
	drainOnce sync.Once

	// deltaHits counts query responses solved through the engine's
	// combined base+delta path — the observable payoff of delta
	// maintenance under mutation load (/stats delta_hits).
	deltaHits atomic.Uint64

	// bg tracks background goroutines (the delta compactor); shutdown
	// cancels hardStop and waits on bg before closing the engine.
	bg sync.WaitGroup

	mu       sync.RWMutex
	datasets map[string]*dsEntry
	nextGen  atomic.Uint64
}

// dsEntry is a registered dataset. gen is unique per registration, so a
// deleted-and-reloaded dataset under the same name never hits stale cache
// entries (cache keys embed the generation).
type dsEntry struct {
	ds  *maxrs.Dataset
	gen uint64
}

func newServer(eng *maxrs.Engine, workers, cacheSize int) *server {
	if workers < 1 {
		workers = 1
	}
	hardStop, cancel := context.WithCancel(context.Background())
	return &server{
		eng:           eng,
		sem:           make(chan struct{}, workers),
		cache:         newResultCache(cacheSize),
		queue:         4 * workers,
		hardStop:      hardStop,
		cancelQueries: cancel,
		drainCh:       make(chan struct{}),
		datasets:      make(map[string]*dsEntry),
	}
}

// markReady flips /readyz to 200: the engine is up and serving.
func (s *server) markReady() { s.ready.Store(true) }

// startDrain flips /readyz to 503 ahead of shutdown, so load balancers
// stop routing new queries while in-flight ones drain, and releases
// every query still queued for a worker (see drainCh).
func (s *server) startDrain() {
	s.draining.Store(true)
	s.drainOnce.Do(func() { close(s.drainCh) })
}

// errDraining rejects a queued query once the drain starts.
var errDraining = errors.New("server draining; retry against another replica")

// retryAfterSeconds derives the 429 Retry-After hint from the actual
// backlog: a saturated pool with an empty queue clears in about one
// query's time (1s floor), and every poolful of queued work adds another
// second. Capped at 30s so a transient spike never parks clients for
// minutes. A hardcoded hint herds every shed client back simultaneously;
// a load-derived one spreads them over the time the backlog needs.
func (s *server) retryAfterSeconds() int {
	pool := int64(cap(s.sem))
	excess := s.inflight.Load() - pool // queries waiting beyond the pool
	if excess < 0 {
		excess = 0
	}
	secs := 1 + excess/pool
	if secs > 30 {
		secs = 30
	}
	return int(secs)
}

// shed refuses one request with 429 + a load-derived Retry-After.
func (s *server) shed(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	httpError(w, http.StatusTooManyRequests, codeSaturated,
		"server saturated: %d queries executing or queued; retry later", s.inflight.Load())
}

// admit claims an admission slot: at most workers+queue /query requests
// may be in flight (executing or waiting for a worker). Returns false
// when the request must be shed.
func (s *server) admit() bool {
	if s.inflight.Add(1) > int64(cap(s.sem)+s.queue) {
		s.inflight.Add(-1)
		return false
	}
	return true
}

// done returns an admission slot.
func (s *server) done() { s.inflight.Add(-1) }

// queryContext derives one query's context: cancelled when the client
// disconnects, when the per-query timeout (if any) expires, and when the
// server's straggler cancellation fires during shutdown. The returned
// stop must be called when the query finishes to release the AfterFunc.
func (s *server) queryContext(r *http.Request, timeout time.Duration) (context.Context, context.CancelFunc) {
	var (
		ctx    context.Context
		cancel context.CancelFunc
	)
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(r.Context(), timeout)
	} else {
		ctx, cancel = context.WithCancel(r.Context())
	}
	unhook := context.AfterFunc(s.hardStop, cancel)
	return ctx, func() {
		unhook()
		cancel()
	}
}

// queryTimeout resolves one request's effective timeout: ?timeout= when
// given (a positive Go duration), clamped to the server's -timeout
// ceiling; the ceiling alone otherwise. 0 = unbounded.
func (s *server) queryTimeout(r *http.Request) (time.Duration, error) {
	d := s.timeout
	if v := r.URL.Query().Get("timeout"); v != "" {
		pd, err := time.ParseDuration(v)
		if err != nil || pd <= 0 {
			return 0, fmt.Errorf("bad timeout=%q: want a positive duration (e.g. 500ms)", v)
		}
		if d == 0 || pd < d {
			d = pd
		}
	}
	return d, nil
}

// openDataPath opens a ?path= request confined to the configured
// -datadir. os.OpenInRoot refuses every escape, including symlinks
// pointing outside the root — a lexical path check would not.
func (s *server) openDataPath(path string) (*os.File, error) {
	if s.dataDir == "" {
		return nil, errors.New("server-local loads disabled (start maxrsd with -datadir)")
	}
	return os.OpenInRoot(s.dataDir, path)
}

func (s *server) handler() http.Handler {
	// Every route lives under /v1/ (the cluster-internal paths in
	// internal/dist name the /v1/ forms directly).
	routes := []struct {
		method, path string
		h            http.HandlerFunc
	}{
		{"GET", "/livez", s.handleLivez},
		{"GET", "/readyz", s.handleReadyz},
		{"GET", "/stats", s.handleStats},
		{"GET", "/datasets", s.handleListDatasets},
		{"PUT", "/datasets/{name}", s.handlePutDataset},
		{"DELETE", "/datasets/{name}", s.handleDeleteDataset},
		{"POST", "/datasets/{name}/insert", s.handleInsert},
		{"POST", "/datasets/{name}/delete", s.handleDelete},
		{"POST", "/query", s.handleQuery},
		// Cluster protocol (DESIGN.md §13): every maxrsd can serve shards —
		// worker is a role per request, not a build — and the membership
		// endpoints answer usefully only on a coordinator.
		{"POST", "/shard/solve", s.handleShardSolve},
		{"GET", "/cluster/workers", s.handleListWorkers},
		{"POST", "/cluster/workers", s.handleAddWorker},
		{"DELETE", "/cluster/workers/{name}", s.handleRemoveWorker},
	}
	mux := http.NewServeMux()
	for _, rt := range routes {
		mux.HandleFunc(rt.method+" /v1"+rt.path, rt.h)
	}
	return mux
}

// Error codes of the uniform /v1 error envelope. Clients branch on the
// code, not the HTTP status or the message text.
const (
	codeInvalidArgument = "invalid_argument"
	codeNotFound        = "not_found"
	codeSaturated       = "saturated"
	codeTimeout         = "timeout"
	codeCancelled       = "cancelled"
	codeUnavailable     = "unavailable"
	codeInternal        = "internal"
)

// retryableCode reports whether a code names a transient condition a
// client may retry verbatim (elsewhere or later) — load, deadlines and
// shutdown, as opposed to requests that are wrong or name nothing.
func retryableCode(code string) bool {
	switch code {
	case codeSaturated, codeTimeout, codeCancelled, codeUnavailable:
		return true
	}
	return false
}

// errorJSON is the body of the uniform error envelope:
// {"error":{"code":...,"message":...,"retryable":...}}.
type errorJSON struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	Retryable bool   `json:"retryable"`
}

// httpError writes the uniform JSON error envelope.
func httpError(w http.ResponseWriter, status int, code string, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]errorJSON{"error": {
		Code:      code,
		Message:   fmt.Sprintf(format, args...),
		Retryable: retryableCode(code),
	}})
}

// errStatus maps an engine/handler error onto its HTTP status and
// envelope code. The deadline arm must precede the cancellation one:
// a timed-out query's error matches both.
func errStatus(err error) (int, string) {
	switch {
	case errors.Is(err, maxrs.ErrInvalidQuery), errors.Is(err, errUnknownOp):
		return http.StatusBadRequest, codeInvalidArgument
	case errors.Is(err, maxrs.ErrUnknownID), errors.Is(err, maxrs.ErrDatasetReleased):
		return http.StatusNotFound, codeNotFound
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, codeTimeout
	case errors.Is(err, maxrs.ErrQueryCancelled):
		// A disconnected client never reads this; a shutdown-cancelled
		// straggler gets an honest "try elsewhere".
		return http.StatusServiceUnavailable, codeCancelled
	}
	return http.StatusInternalServerError, codeInternal
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	// Marshal before writing the header: a value JSON cannot represent
	// must surface as an error in the uniform envelope, not as a silent
	// empty 200 (Encode-after-WriteHeader would fail mid-response).
	data, err := json.Marshal(v)
	if err != nil {
		httpError(w, http.StatusInternalServerError, codeInternal, "response not representable in JSON: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(append(data, '\n'))
}

// handleLivez is liveness: the process is up and serving HTTP. It stays
// 200 through draining — restarting a server because it is shutting down
// gracefully would defeat the drain.
func (s *server) handleLivez(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// handleReadyz is readiness: 200 only while the engine is up and the
// server is not draining, so load balancers route queries elsewhere
// before shutdown cancels stragglers.
func (s *server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if !s.ready.Load() || s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]bool{"ready": false})
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ready": true})
}

type statsResponse struct {
	Reads       uint64 `json:"reads"`
	Writes      uint64 `json:"writes"`
	Total       uint64 `json:"total"`
	BlocksInUse int    `json:"blocks_in_use"`
	Datasets    int    `json:"datasets"`
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	// CacheReuseHits counts containment (semantic) reuse: requests
	// served from a cached TopK of the same (generation, w, h) family
	// rather than an exact key match.
	CacheReuseHits uint64 `json:"cache_reuse_hits"`
	CacheEntries   int    `json:"cache_entries"`
	// DeltaHits counts queries answered through the engine's combined
	// base+delta path: pending mutations solved in memory and merged
	// with the cached base optimum instead of a full re-solve.
	DeltaHits uint64 `json:"delta_hits"`
	// Workers/WorkersReady size the membership table on a coordinator
	// (omitted on plain servers and workers).
	Workers      int `json:"workers,omitempty"`
	WorkersReady int `json:"workers_ready,omitempty"`
	// NetCalls counts worker calls made by distributed queries.
	NetCalls uint64 `json:"net_calls,omitempty"`
	// Pipeline counts the transfers that rode the background prefetch /
	// write-behind path — a subset of reads/writes, never extra.
	Pipeline pipelineStatsJSON `json:"pipeline"`
	// Faults holds the engine's fault-handling counters: retries and
	// checksum verification failures on block transfers.
	Faults faultStatsJSON `json:"faults"`
	// Storage describes the physical layer below the transfer counters:
	// the backend and codec in use plus the physical bytes moved.
	Storage storageStatsJSON `json:"storage"`
}

// pipelineStatsJSON is the prefetch/write-behind coverage block.
type pipelineStatsJSON struct {
	Reads  uint64 `json:"reads"`
	Writes uint64 `json:"writes"`
}

// faultStatsJSON is the fault/retry counter block of /stats.
type faultStatsJSON struct {
	ReadRetries      uint64 `json:"read_retries"`
	WriteRetries     uint64 `json:"write_retries"`
	ChecksumFailures uint64 `json:"checksum_failures"`
}

// storageStatsJSON is the physical-storage block shared by /stats and
// the GET /datasets listing: which backend/codec serve blocks and the
// physical bytes they moved (measured exactly under a slot store,
// derived as transfers × block size otherwise).
type storageStatsJSON struct {
	Backend          string `json:"backend"`
	Codec            string `json:"codec"`
	PhysReadBytes    uint64 `json:"phys_read_bytes"`
	PhysWriteBytes   uint64 `json:"phys_write_bytes"`
	BlocksCompressed uint64 `json:"blocks_compressed"`
	BlocksRaw        uint64 `json:"blocks_raw"`
	Measured         bool   `json:"measured"`
}

func (s *server) storageStats() storageStatsJSON {
	info := s.eng.StorageInfo()
	p := s.eng.PhysIO()
	return storageStatsJSON{
		Backend:          info.Backend,
		Codec:            info.Codec,
		PhysReadBytes:    p.ReadBytes,
		PhysWriteBytes:   p.WriteBytes,
		BlocksCompressed: p.BlocksCompressed,
		BlocksRaw:        p.BlocksRaw,
		Measured:         p.Measured,
	}
}

// cacheStatsJSON is the cache counter block shared by /stats consumers
// and the GET /datasets listing.
type cacheStatsJSON struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	ReuseHits uint64 `json:"reuse_hits"`
	Entries   int    `json:"entries"`
}

func (s *server) cacheStats() cacheStatsJSON {
	hits, misses, reuse, size := s.cache.stats()
	return cacheStatsJSON{Hits: hits, Misses: misses, ReuseHits: reuse, Entries: size}
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := s.eng.Stats()
	cs := s.cacheStats()
	s.mu.RLock()
	n := len(s.datasets)
	s.mu.RUnlock()
	out := statsResponse{
		Reads: st.Reads, Writes: st.Writes, Total: st.Total(),
		BlocksInUse: s.eng.BlocksInUse(), Datasets: n,
		CacheHits: cs.Hits, CacheMisses: cs.Misses,
		CacheReuseHits: cs.ReuseHits, CacheEntries: cs.Entries,
		DeltaHits: s.deltaHits.Load(),
		NetCalls:  s.eng.NetFaultStats().Calls,
		Storage:   s.storageStats(),
	}
	out.Pipeline.Reads, out.Pipeline.Writes = s.eng.PipelineStats()
	fs := s.eng.FaultStats()
	out.Faults = faultStatsJSON{
		ReadRetries:      fs.ReadRetries,
		WriteRetries:     fs.WriteRetries,
		ChecksumFailures: fs.ChecksumFailures,
	}
	for _, wk := range s.eng.Workers() {
		out.Workers++
		if wk.Ready {
			out.WorkersReady++
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// datasetStatsJSON mirrors maxrs.DatasetStats — the statistics collected
// in the loader's streaming pass.
type datasetStatsJSON struct {
	N        int64   `json:"n"`
	Bytes    int64   `json:"bytes"`
	Blocks   int64   `json:"blocks"`
	MinX     float64 `json:"min_x"`
	MaxX     float64 `json:"max_x"`
	MinY     float64 `json:"min_y"`
	MaxY     float64 `json:"max_y"`
	MinW     float64 `json:"min_w"`
	MaxW     float64 `json:"max_w"`
	MeanW    float64 `json:"mean_w"`
	Resident bool    `json:"resident"`
}

func fromDatasetStats(st maxrs.DatasetStats) datasetStatsJSON {
	return datasetStatsJSON{
		N: st.N, Bytes: st.Bytes, Blocks: st.Blocks,
		MinX: st.MinX, MaxX: st.MaxX, MinY: st.MinY, MaxY: st.MaxY,
		MinW: st.MinW, MaxW: st.MaxW, MeanW: st.MeanW,
		Resident: st.Resident,
	}
}

type datasetInfo struct {
	Name    string `json:"name"`
	Objects int    `json:"objects"`
	Blocks  int    `json:"blocks"`
	// Shards is the dataset's shard-count override (0 = the engine's
	// -shards default applies).
	Shards int `json:"shards,omitempty"`
	// Pending is the dataset's buffered (uncompacted) mutation count;
	// Mutations and Compactions are its lifetime counters.
	Pending     int    `json:"pending,omitempty"`
	Mutations   uint64 `json:"mutations,omitempty"`
	Compactions uint64 `json:"compactions,omitempty"`
	// Stats are the effective dataset statistics the planner works from
	// (pending mutations folded in).
	Stats *datasetStatsJSON `json:"stats,omitempty"`
}

// datasetListResponse is the GET /datasets envelope: the datasets with
// their load-time stats, the result cache's hit/miss/reuse counters, and
// the physical-storage block their blocks live under.
type datasetListResponse struct {
	Datasets []datasetInfo    `json:"datasets"`
	Cache    cacheStatsJSON   `json:"cache"`
	Storage  storageStatsJSON `json:"storage"`
}

func (s *server) handleListDatasets(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	infos := make([]datasetInfo, 0, len(s.datasets))
	for name, e := range s.datasets {
		st := fromDatasetStats(e.ds.Stats())
		infos = append(infos, datasetInfo{
			Name: name, Objects: e.ds.Len(), Blocks: e.ds.Blocks(), Shards: e.ds.Shards(),
			Pending: e.ds.Pending(), Mutations: e.ds.Mutations(), Compactions: e.ds.Compactions(),
			Stats: &st,
		})
	}
	s.mu.RUnlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	writeJSON(w, http.StatusOK, datasetListResponse{
		Datasets: infos, Cache: s.cacheStats(), Storage: s.storageStats(),
	})
}

// maxUpload bounds a CSV upload body (256 MiB).
const maxUpload = 256 << 20

// handlePutDataset loads a dataset from the request body (CSV, streamed
// straight to the engine's disk) or, with ?path=, from a CSV file under
// the server's -datadir (disabled when no -datadir is configured, and
// confined to it — HTTP clients must not be able to read arbitrary
// server files). With ?shards=K, queries on the dataset run K-way
// sharded (DESIGN.md §9), overriding the server's -shards default. An
// existing dataset under the same name is replaced atomically: queries
// running against the old one finish on its (reference-counted) blocks.
func (s *server) handlePutDataset(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	shards := 0
	if v := r.URL.Query().Get("shards"); v != "" {
		k, err := strconv.Atoi(v)
		if err != nil || k < 0 {
			httpError(w, http.StatusBadRequest, codeInvalidArgument, "bad shards=%q: want an integer ≥ 0", v)
			return
		}
		shards = k
	}
	var src io.Reader = http.MaxBytesReader(w, r.Body, maxUpload)
	if path := r.URL.Query().Get("path"); path != "" {
		f, err := s.openDataPath(path)
		if err != nil {
			code, ec := http.StatusBadRequest, codeInvalidArgument
			if s.dataDir == "" {
				code, ec = http.StatusForbidden, codeUnavailable
			}
			httpError(w, code, ec, "open %s: %v", path, err)
			return
		}
		defer f.Close()
		src = f
	}
	ds, err := s.eng.LoadCSV(r.Context(), src)
	if err != nil {
		httpError(w, http.StatusBadRequest, codeInvalidArgument, "load: %v", err)
		return
	}
	if err := ds.SetShards(shards); err != nil {
		_ = ds.Release()
		httpError(w, http.StatusBadRequest, codeInvalidArgument, "shards: %v", err)
		return
	}
	entry := &dsEntry{ds: ds, gen: s.nextGen.Add(1)}
	s.mu.Lock()
	old := s.datasets[name]
	s.datasets[name] = entry
	s.mu.Unlock()
	if old != nil {
		_ = old.ds.Release() // safe while in-flight queries still hold it
	}
	st := fromDatasetStats(ds.Stats())
	writeJSON(w, http.StatusCreated, datasetInfo{
		Name: name, Objects: ds.Len(), Blocks: ds.Blocks(), Shards: shards, Stats: &st,
	})
}

func (s *server) handleDeleteDataset(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.Lock()
	entry, ok := s.datasets[name]
	delete(s.datasets, name)
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, codeNotFound, "no dataset %q", name)
		return
	}
	if err := entry.ds.Release(); err != nil {
		httpError(w, http.StatusInternalServerError, codeInternal, "release: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

type queryRequest struct {
	Dataset  string  `json:"dataset"`
	Op       string  `json:"op"` // maxrs | maxcrs | topk
	W        float64 `json:"w"`
	H        float64 `json:"h"`
	Diameter float64 `json:"diameter"` // maxcrs
	K        int     `json:"k"`        // topk
}

// pointJSON, rectJSON and queryResult.Score carry answers, which can be
// non-finite: a dataset of only negative weights has an unbounded optimal
// region of score 0, and a sum can overflow. They travel as dist.Float,
// whose JSON form spells those values as strings.
type pointJSON struct {
	X dist.Float `json:"x"`
	Y dist.Float `json:"y"`
}

type statsJSON struct {
	Reads  uint64 `json:"reads"`
	Writes uint64 `json:"writes"`
	Total  uint64 `json:"total"`
}

// shardStatJSON is one shard's slice of a sharded query's cost, plus —
// for distributed queries — the attribution of where and how the shard
// was solved: which worker answered, how many network attempts it took,
// and whether the shard was hedged or fell back to the coordinator's
// halo replica.
type shardStatJSON struct {
	Objects  int64     `json:"objects"`
	Stats    statsJSON `json:"stats"`
	Worker   string    `json:"worker,omitempty"`
	Attempts int       `json:"attempts,omitempty"`
	Hedged   bool      `json:"hedged,omitempty"`
	FellBack bool      `json:"fell_back,omitempty"`
	// Remote is the worker-reported I/O of the remote solve (the local
	// Stats cover only the coordinator-side partition traffic).
	Remote *statsJSON `json:"remote_stats,omitempty"`
	Error  string     `json:"error,omitempty"`
}

// costJSON is a cost-model prediction (block transfers).
type costJSON struct {
	Reads  int64 `json:"reads"`
	Writes int64 `json:"writes"`
	Total  int64 `json:"total"`
	Exact  bool  `json:"exact,omitempty"`
}

func fromPredicted(c maxrs.PredictedCost) costJSON {
	return costJSON{Reads: c.Reads, Writes: c.Writes, Total: c.Total(), Exact: c.Exact}
}

// deltaPlanJSON reports how a query on a dataset with pending mutations
// was executed: "combined" solved the delta in memory against the cached
// base optimum, "fused" re-solved the materialized effective dataset.
type deltaPlanJSON struct {
	Pending    int    `json:"pending"`
	Inserts    int    `json:"inserts"`
	Deletes    int    `json:"deletes"`
	Path       string `json:"path,omitempty"`
	BaseCached bool   `json:"base_cached,omitempty"`
}

// planJSON is the materialized execution decision of a query.
type planJSON struct {
	Algorithm string         `json:"algorithm"`
	Shards    int            `json:"shards,omitempty"`
	Auto      bool           `json:"auto,omitempty"`
	Delta     *deltaPlanJSON `json:"delta,omitempty"`
	Predicted costJSON       `json:"predicted"`
}

func fromPlan(p maxrs.Plan) planJSON {
	out := planJSON{
		Algorithm: p.Algorithm.String(),
		Shards:    p.Shards,
		Auto:      p.Auto,
		Predicted: fromPredicted(p.Predicted),
	}
	if d := p.Delta; d != nil {
		out.Delta = &deltaPlanJSON{
			Pending: d.Pending, Inserts: d.Inserts, Deletes: d.Deletes,
			Path: d.Path, BaseCached: d.BaseCached,
		}
	}
	return out
}

// rectJSON is an axis-aligned region (of optimal center positions).
type rectJSON struct {
	MinX dist.Float `json:"min_x"`
	MinY dist.Float `json:"min_y"`
	MaxX dist.Float `json:"max_x"`
	MaxY dist.Float `json:"max_y"`
}

type queryResult struct {
	Location pointJSON  `json:"location"`
	Score    dist.Float `json:"score"`
	// Region is the full set of optimal center positions (rectangle ops
	// only).
	Region *rectJSON `json:"region,omitempty"`
	Stats  statsJSON `json:"stats"`
	// Plan is the execution decision the query ran under, with its
	// predicted cost next to the measured Stats.
	Plan *planJSON `json:"plan,omitempty"`
	// FallbackReason is non-empty when the query silently did less than
	// requested (e.g. a maxcrs query on a sharded dataset).
	FallbackReason string `json:"fallback_reason,omitempty"`
	// Shards is the per-shard breakdown of Stats for sharded queries
	// (datasets loaded with ?shards=K or a -shards server default);
	// omitted for unsharded queries.
	Shards []shardStatJSON `json:"shards,omitempty"`
	// Distributed marks a query whose shards were fanned out to worker
	// maxrsd instances (-peers / -coordinator).
	Distributed bool `json:"distributed,omitempty"`
}

type queryResponse struct {
	Dataset string `json:"dataset"`
	Op      string `json:"op"`
	Cached  bool   `json:"cached"`
	// Reused marks a semantic containment hit: the response was served
	// from a cached TopK of the same (dataset generation, w, h) family
	// rather than an exact key match.
	Reused  bool          `json:"reused,omitempty"`
	Results []queryResult `json:"results"`
}

func fromResult(r maxrs.Result) queryResult {
	pl := fromPlan(r.Plan)
	out := queryResult{
		Location:       pointJSON{X: dist.Float(r.Location.X), Y: dist.Float(r.Location.Y)},
		Score:          dist.Float(r.Score),
		Region:         &rectJSON{MinX: dist.Float(r.Region.MinX), MinY: dist.Float(r.Region.MinY), MaxX: dist.Float(r.Region.MaxX), MaxY: dist.Float(r.Region.MaxY)},
		Stats:          statsJSON{Reads: r.Stats.Reads, Writes: r.Stats.Writes, Total: r.Stats.Total()},
		Plan:           &pl,
		FallbackReason: r.FallbackReason,
		Distributed:    r.Distributed,
	}
	for _, sh := range r.ShardStats {
		j := shardStatJSON{
			Objects:  sh.Objects,
			Stats:    statsJSON{Reads: sh.Stats.Reads, Writes: sh.Stats.Writes, Total: sh.Stats.Total()},
			Worker:   sh.Worker,
			Attempts: sh.Attempts,
			Hedged:   sh.Hedged,
			FellBack: sh.FellBack,
		}
		if rs := sh.RemoteStats; rs.Total() > 0 {
			st := statsJSON{Reads: rs.Reads, Writes: rs.Writes, Total: rs.Total()}
			j.Remote = &st
		}
		if sh.Err != nil {
			j.Error = sh.Err.Error()
		}
		out.Shards = append(out.Shards, j)
	}
	return out
}

// acquire claims a worker slot, honoring client disconnects while
// queued. A drain releases queued queries immediately: they have done no
// work, /readyz already told their balancer to go elsewhere, and holding
// them through the drain would only delay shutdown (executing queries
// keep their slots until the drain deadline).
func (s *server) acquire(ctx context.Context) error {
	// A closed drainCh and a free slot race in select; check the drain
	// first so the rejection is deterministic once startDrain returns.
	select {
	case <-s.drainCh:
		return errDraining
	default:
	}
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-s.drainCh:
		return errDraining
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *server) release() { <-s.sem }

// enter is the admission path of every handler that runs engine work
// (queries, explains, mutations, shipped shards). Beyond the worker pool plus the
// bounded queue a request is shed at once — a saturated server answers
// 429 in microseconds instead of letting every queued request pin a
// connection until its client gives up. An admitted request gets one
// context for the queue wait and the work itself: a client that
// disconnects while queued never occupies a worker, and one that
// disconnects mid-solve stops burning the engine within one
// block-transfer's work (DESIGN.md §10). A failed queue wait answers 504
// timeout past the deadline and 503 unavailable otherwise (drain,
// disconnect, shutdown cancel). ok = false means the response is
// written; otherwise the caller must call leave when the work is done.
func (s *server) enter(w http.ResponseWriter, r *http.Request, timeout time.Duration) (ctx context.Context, leave func(), ok bool) {
	if !s.admit() {
		s.shed(w)
		return nil, nil, false
	}
	ctx, stop := s.queryContext(r, timeout)
	if err := s.acquire(ctx); err != nil {
		stop()
		s.done()
		status, code := http.StatusServiceUnavailable, codeUnavailable
		if errors.Is(err, context.DeadlineExceeded) {
			status, code = http.StatusGatewayTimeout, codeTimeout
		}
		httpError(w, status, code, "queue wait: %v", err)
		return nil, nil, false
	}
	return ctx, func() {
		s.release()
		stop()
		s.done()
	}, true
}

// maxQueryBody bounds a /query request body; real queries are a few
// hundred bytes.
const maxQueryBody = 1 << 20

func (s *server) lookup(name string) (*dsEntry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.datasets[name]
	return e, ok
}

func cacheKey(gen uint64, req queryRequest) string {
	return fmt.Sprintf("%d|%s|%g|%g|%g|%d", gen, req.Op, req.W, req.H, req.Diameter, req.K)
}

// familyKey names the containment-reuse family of the rectangle queries:
// every (generation, w, h) family shares one greedy result sequence, so
// a cached TopK(k') answers MaxRS and any TopK(k ≤ k') of the family.
// The generation keeps reuse inside one dataset registration.
func familyKey(gen uint64, req queryRequest) string {
	return fmt.Sprintf("%d|rect|%g|%g", gen, req.W, req.H)
}

// donorInfo decides whether a solved response may donate containment
// hits, and what it covers: a TopK covers its k (or everything, when it
// ran the dataset dry), a MaxRS with a positive score covers k = 1
// (TopK rounds stop at nonpositive scores, so a nonpositive MaxRS
// answer must not masquerade as a TopK round).
func donorInfo(gen uint64, req queryRequest, resp queryResponse) (family string, k int, exhausted bool) {
	switch req.Op {
	case "topk":
		return familyKey(gen, req), req.K, len(resp.Results) < req.K
	case "maxrs":
		if len(resp.Results) == 1 && resp.Results[0].Score > 0 {
			return familyKey(gen, req), 1, false
		}
	}
	return "", 0, false
}

// reuseWant maps a request onto the containment lookup: how many greedy
// rounds it needs from a donor (0 = not a reusable shape).
func reuseWant(req queryRequest) int {
	switch req.Op {
	case "maxrs":
		return 1
	case "topk":
		if req.K >= 1 {
			return req.K
		}
	}
	return 0
}

// adaptDonor shapes a donor response into an answer for req: the first
// result for MaxRS (provided the donor has one), the first k for TopK.
// The per-result stats and plans are the donor's recorded ones.
func adaptDonor(donor queryResponse, req queryRequest, want int) (queryResponse, bool) {
	resp := donor
	resp.Op = req.Op
	resp.Dataset = req.Dataset
	resp.Cached, resp.Reused = true, true
	if req.Op == "maxrs" && len(donor.Results) < 1 {
		return queryResponse{}, false
	}
	if want < len(donor.Results) {
		resp.Results = donor.Results[:want:want]
	}
	return resp, true
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxQueryBody)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, codeInvalidArgument, "bad request body: %v", err)
		return
	}
	entry, ok := s.lookup(req.Dataset)
	if !ok {
		httpError(w, http.StatusNotFound, codeNotFound, "no dataset %q", req.Dataset)
		return
	}
	// Validate before serving from cache: a malformed request is a 400
	// even when an identical well-formed one was answered before.
	timeout, err := s.queryTimeout(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, codeInvalidArgument, "%v", err)
		return
	}
	// ?explain=1 plans the query without executing it and is never
	// cached. Planning a query size for the first time runs the cost
	// model's scale-model solves, CPU work like a small query, so explain
	// goes through admission control like a cache miss.
	if r.URL.Query().Get("explain") == "1" {
		s.handleExplain(w, r, req, timeout)
		return
	}
	// Cache lookups are fenced on the dataset's mutation sequence:
	// entries solved before a mutation are never served directly — their
	// next access re-executes (cheap when the engine's combined
	// base+delta path applies) and re-puts them fresh.
	if resp, ok := s.cache.get(cacheKey(entry.gen, req), entry.ds.Mutations()); ok {
		resp.Cached = true
		writeJSON(w, http.StatusOK, resp)
		return
	}
	// Semantic containment reuse: a cached TopK(k') of the same
	// (generation, w, h) family answers MaxRS and TopK(k ≤ k') without
	// touching the engine (DESIGN.md §12.6).
	if want := reuseWant(req); want > 0 {
		if donor, ok := s.cache.reuse(familyKey(entry.gen, req), want, entry.ds.Mutations()); ok {
			if resp, ok := adaptDonor(donor, req, want); ok {
				writeJSON(w, http.StatusOK, resp)
				return
			}
		}
	}
	// Admission control: cache misses beyond the worker pool plus the
	// bounded queue are shed immediately (see enter). Cache hits (above)
	// bypass admission; serving them costs no engine work. The per-query
	// timeout covers the queue wait too: time spent queued is time the
	// client is already waiting.
	ctx, leave, ok := s.enter(w, r, timeout)
	if !ok {
		return
	}
	defer leave()
	// Re-resolve after the queue wait: the dataset may have been replaced
	// (PUT over the same name) while this request was queued, and the new
	// entry — not a released old one — must serve it.
	entry, ok = s.lookup(req.Dataset)
	if !ok {
		httpError(w, http.StatusNotFound, codeNotFound, "no dataset %q", req.Dataset)
		return
	}
	// The dataset can still be replaced or deleted between the lookup and
	// the engine call; ErrDatasetReleased then means "stale entry" — retry
	// against the current registration, 404 only if the name is truly gone.
	// The solve-time mutation sequence is read BEFORE the solve: a
	// mutation landing mid-solve leaves the entry tagged older than the
	// dataset, so it revalidates on its next access — never the unsound
	// direction (sequences only grow; no later lookup can carry seq).
	var resp queryResponse
	var seq uint64
	for {
		seq = entry.ds.Mutations()
		resp, err = s.runQuery(ctx, entry, req)
		if err == nil || !errors.Is(err, maxrs.ErrDatasetReleased) {
			break
		}
		fresh, ok := s.lookup(req.Dataset)
		if !ok || fresh.gen == entry.gen {
			httpError(w, http.StatusNotFound, codeNotFound, "no dataset %q", req.Dataset)
			return
		}
		entry = fresh
	}
	if err != nil {
		// Failed queries are never cached: the next attempt recomputes
		// rather than replaying a failure (or worse, a partial result).
		status, code := errStatus(err)
		httpError(w, status, code, "query: %v", err)
		return
	}
	s.countDeltaHits(resp)
	family, k, exhausted := donorInfo(entry.gen, req, resp)
	s.cache.put(cacheKey(entry.gen, req), resp, family, k, exhausted, seq)
	writeJSON(w, http.StatusOK, resp)
}

// countDeltaHits bumps the delta_hits counter for responses whose solve
// took the engine's combined base+delta path.
func (s *server) countDeltaHits(resp queryResponse) {
	for _, qr := range resp.Results {
		if qr.Plan != nil && qr.Plan.Delta != nil && qr.Plan.Delta.Path == "combined" {
			s.deltaHits.Add(1)
			return
		}
	}
}

// explainResponse is the ?explain=1 answer: the plan the query would
// run, its predicted cost, the dataset statistics it was derived from,
// and the full candidate table — all without executing anything.
type explainResponse struct {
	Dataset        string           `json:"dataset"`
	Op             string           `json:"op"`
	Plan           planJSON         `json:"plan"`
	FallbackReason string           `json:"fallback_reason,omitempty"`
	Stats          datasetStatsJSON `json:"dataset_stats"`
	Candidates     []candidateJSON  `json:"candidates"`
}

// candidateJSON is one row of the planner's candidate table.
type candidateJSON struct {
	Algorithm string   `json:"algorithm"`
	Shards    int      `json:"shards,omitempty"`
	Predicted costJSON `json:"predicted"`
	Eligible  bool     `json:"eligible"`
	Chosen    bool     `json:"chosen,omitempty"`
	Note      string   `json:"note,omitempty"`
}

// handleExplain answers ?explain=1 for the rectangle ops: the plan of
// the underlying object solve (for topk, that is one greedy round). It
// takes an admission slot like a query and caches nothing.
func (s *server) handleExplain(w http.ResponseWriter, r *http.Request, req queryRequest, timeout time.Duration) {
	switch req.Op {
	case "maxrs", "topk":
	default:
		httpError(w, http.StatusBadRequest, codeInvalidArgument, "explain supports op maxrs and topk, not %q", req.Op)
		return
	}
	ctx, leave, ok := s.enter(w, r, timeout)
	if !ok {
		return
	}
	defer leave()
	// Re-resolve after the queue wait, as a query does.
	entry, ok := s.lookup(req.Dataset)
	if !ok {
		httpError(w, http.StatusNotFound, codeNotFound, "no dataset %q", req.Dataset)
		return
	}
	ex, err := s.eng.Explain(ctx, entry.ds, req.W, req.H)
	if err != nil {
		status, code := errStatus(err)
		httpError(w, status, code, "explain: %v", err)
		return
	}
	out := explainResponse{
		Dataset:        req.Dataset,
		Op:             req.Op,
		Plan:           fromPlan(ex.Plan),
		FallbackReason: ex.FallbackReason,
		Stats:          fromDatasetStats(ex.Stats),
		Candidates:     make([]candidateJSON, len(ex.Candidates)),
	}
	for i, c := range ex.Candidates {
		out.Candidates[i] = candidateJSON{
			Algorithm: c.Algorithm.String(),
			Shards:    c.Shards,
			Predicted: fromPredicted(c.Predicted),
			Eligible:  c.Eligible,
			Chosen:    c.Chosen,
			Note:      c.Note,
		}
	}
	writeJSON(w, http.StatusOK, out)
}

var errUnknownOp = errors.New("unknown op (want maxrs, maxcrs or topk)")

// runQuery dispatches one query against a resolved dataset entry under
// ctx: cancellation (client disconnect, request deadline, server
// shutdown) aborts the engine work, not just the response write.
func (s *server) runQuery(ctx context.Context, entry *dsEntry, req queryRequest) (queryResponse, error) {
	resp := queryResponse{Dataset: req.Dataset, Op: req.Op}
	switch req.Op {
	case "maxrs":
		res, err := s.eng.MaxRS(ctx, entry.ds, req.W, req.H)
		if err != nil {
			return resp, err
		}
		resp.Results = []queryResult{fromResult(res)}
	case "maxcrs":
		res, err := s.eng.MaxCRS(ctx, entry.ds, req.Diameter)
		if err != nil {
			return resp, err
		}
		pl := fromPlan(res.Plan)
		resp.Results = []queryResult{{
			Location:       pointJSON{X: dist.Float(res.Location.X), Y: dist.Float(res.Location.Y)},
			Score:          dist.Float(res.Score),
			Stats:          statsJSON{Reads: res.Stats.Reads, Writes: res.Stats.Writes, Total: res.Stats.Total()},
			Plan:           &pl,
			FallbackReason: res.FallbackReason,
		}}
	case "topk":
		results, err := s.eng.TopK(ctx, entry.ds, req.W, req.H, req.K)
		if err != nil {
			return resp, err
		}
		resp.Results = make([]queryResult, len(results))
		for i, res := range results {
			resp.Results[i] = fromResult(res)
		}
	default:
		return resp, fmt.Errorf("%w: %q", errUnknownOp, req.Op)
	}
	return resp, nil
}
