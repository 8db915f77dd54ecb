package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"maxrs"
)

// maxrsdProc is one running maxrsd.
type maxrsdProc struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	done chan error
}

// startMaxrsd starts bin with flags on a free loopback port and waits
// until /v1/readyz answers 200. Its stderr goes to logPath, each line
// also to onLine when set. The process is killed if this one dies.
func startMaxrsd(ctx context.Context, bin string, flags, env []string, logPath string, onLine func(string)) (*maxrsdProc, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, flags...)...)
	cmd.Env = append(os.Environ(), env...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start maxrsd: %w", err)
	}
	p := &maxrsdProc{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			fmt.Fprintln(logf, sc.Text())
			if onLine != nil {
				onLine(sc.Text())
			}
		}
		// Wait only after the pipe is drained, as exec requires.
		p.done <- errors.Join(cmd.Wait(), logf.Close())
	}()
	if err := p.waitReady(ctx); err != nil {
		_ = p.stop()
		return nil, err
	}
	return p, nil
}

// waitReady polls /v1/readyz every 5 ms.
func (p *maxrsdProc) waitReady(ctx context.Context) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-p.done:
			p.done <- err
			return fmt.Errorf("maxrsd exited before ready: %v", err)
		default:
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.base+"/v1/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := http.DefaultClient.Do(req); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		time.Sleep(5 * time.Millisecond)
	}
	return errors.New("maxrsd not ready after 30s")
}

// stop asks maxrsd to drain and exit, kills it if it has not within 10
// s, and waits for it.
func (p *maxrsdProc) stop() error {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-p.done:
		return err
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		return fmt.Errorf("maxrsd did not exit on SIGTERM: %v", <-p.done)
	}
}

// serveRun drives maxrsd with a closed loop of HTTP clients and keeps its
// own model of the dataset's effective set.
type serveRun struct {
	spec   serveSpec
	cfg    config
	objs   []maxrs.Object
	csv    []byte
	sched  []request
	srv    *maxrsdProc
	client *http.Client
	tr     tracing

	mu      sync.Mutex
	live    map[uint64]maxrs.Object // inserted and not yet deleted, by id
	batches [][]uint64              // live insert batches, oldest first

	// before/after are /v1/stats around the measured phase.
	before, after serverStats
}

// serveSample is one measured request.
type serveSample struct {
	i      int
	op     string
	side   float64
	ms     float64
	cached bool
	traced bool
	err    error
}

const datasetName = "ux"

func runServe(ctx context.Context, spec serveSpec, cfg config, tr tracing) (*outcome, error) {
	r := &serveRun{
		spec: spec, cfg: cfg, tr: tr,
		objs:  spec.objects(cfg.seed),
		sched: spec.schedule(cfg.seed, scheduleLen),
		live:  map[uint64]maxrs.Object{},
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: spec.clients,
			MaxConnsPerHost:     spec.clients,
		}},
	}
	defer r.client.CloseIdleConnections()
	r.csv = appendCSV(nil, r.objs)
	var (
		env    []string
		onLine func(string)
	)
	if tr != nil {
		env, onLine = tr.maxrsdEnv()
	}
	defer func() {
		if r.srv != nil {
			_ = r.srv.stop()
		}
	}()
	setup, err := r.setUp(ctx, env, onLine)
	if err != nil {
		return nil, err
	}

	res := &outcome{Metrics: metricSet{}, Extra: metricSet{}}
	warm := cfg.warmup(spec.warmup())
	send := func(traced bool) func(int) serveSample {
		return func(i int) serveSample { return r.request(ctx, i, traced && tracedOp(i)) }
	}
	warmSamples, _ := phase(ctx, spec.clients, 0, warm, 0, send(false))
	if r.before, err = r.stats(ctx); err != nil {
		return nil, err
	}
	if tr != nil {
		tr.begin()
	}
	rss, err := watchRSS(r.srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	allocs := newAllocCounter()
	b0, o0 := allocs.read()
	samples, elapsed := phase(ctx, spec.clients, warm, cfg.ops, seconds(cfg.seconds), send(tr != nil))
	b1, o1 := allocs.read()
	peak, err := rss.finish()
	if err != nil {
		return nil, err
	}
	if r.after, err = r.stats(ctx); err != nil {
		return nil, err
	}
	if len(samples) == 0 {
		return nil, errors.New("no request completed")
	}
	for _, s := range append(warmSamples, samples...) {
		checkInto(res, s.err == nil, "request %d (%s %g): %v", s.i, s.op, s.side, s.err)
	}
	if err := r.checkQuiesced(ctx, res); err != nil {
		return nil, err
	}
	more, err := r.setUpAfter(ctx, env, onLine)
	if err != nil {
		return nil, err
	}
	setup = append(setup, more...)

	n := float64(len(samples))
	var qlat []float64
	for _, s := range samples {
		if s.op != "insert" && s.op != "delete" {
			qlat = append(qlat, s.ms)
		}
	}
	sorted := sortedCopy(qlat)
	m := res.Metrics
	m.set("setup_s", "s", median(setup))
	m.set("ops_per_s", "ops/s", n/elapsed.Seconds())
	m.set("query_ms.p50", "ms", quantile(sorted, 0.5))
	m.set("query_ms.p90", "ms", quantile(sorted, 0.9))
	m.set("io_per_query", "transfers", float64(r.after.Total-r.before.Total)/n)
	m.set("phys_bytes_per_query", "bytes",
		float64(r.after.Storage.PhysRead+r.after.Storage.PhysWrite-r.before.Storage.PhysRead-r.before.Storage.PhysWrite)/n)
	m.set("alloc_bytes_per_query", "bytes", float64(b1-b0)/n)
	m.set("allocs_per_query", "allocs", float64(o1-o0)/n)
	m.set("peak_rss_mb", "MiB", peak)
	res.Extra.set("samples", "ops", n)
	res.Extra.set("query_samples", "ops", float64(len(qlat)))
	if tr != nil {
		layers, err := tr.serve(ctx, r, samples)
		if err != nil {
			return nil, err
		}
		res.useLayers(layers)
	}
	stopErr := r.srv.stop()
	r.srv = nil
	checkInto(res, stopErr == nil, "maxrsd exit: %v", stopErr)
	return res, nil
}

// setUp times the set-ups that precede the measured phase (see
// config.setups), keeping the last server for the run. env and onLine
// are startMaxrsd's.
func (r *serveRun) setUp(ctx context.Context, env []string, onLine func(string)) ([]float64, error) {
	untimed, before, _ := r.cfg.setups()
	var times []float64
	for rep := 0; rep < untimed+before; rep++ {
		if r.srv != nil {
			err := r.srv.stop()
			r.srv = nil
			if err != nil {
				return nil, err
			}
		}
		srv, secs, err := r.setUpOnce(ctx, rep, env, onLine)
		if err != nil {
			return nil, err
		}
		r.srv = srv
		if rep >= untimed {
			times = append(times, secs)
		}
	}
	return times, nil
}

// setUpAfter times the set-ups that follow the measured phase, each on a
// server of its own.
func (r *serveRun) setUpAfter(ctx context.Context, env []string, onLine func(string)) ([]float64, error) {
	untimed, before, after := r.cfg.setups()
	var times []float64
	for rep := 0; rep < after; rep++ {
		srv, secs, err := r.setUpOnce(ctx, untimed+before+rep, env, onLine)
		if err != nil {
			return nil, err
		}
		if err := srv.stop(); err != nil {
			return nil, err
		}
		times = append(times, secs)
	}
	return times, nil
}

// setUpOnce starts a maxrsd and PUTs the dataset, returning the seconds
// from process start to /v1/readyz, plus the PUT.
func (r *serveRun) setUpOnce(ctx context.Context, rep int, env []string, onLine func(string)) (*maxrsdProc, float64, error) {
	logPath := filepath.Join(r.cfg.work, fmt.Sprintf("maxrsd-%s-%d.log", r.cfg.workload, rep))
	t0 := time.Now()
	srv, err := startMaxrsd(ctx, r.cfg.maxrsd, r.spec.flags, env, logPath, onLine)
	if err != nil {
		return nil, 0, err
	}
	if err := r.put(ctx, srv, datasetName, r.csv); err != nil {
		return nil, 0, errors.Join(err, srv.stop())
	}
	return srv, time.Since(t0).Seconds(), nil
}

// request runs schedule entry i.
func (r *serveRun) request(ctx context.Context, i int, traced bool) serveSample {
	q := r.sched[i]
	s := serveSample{i: i, op: q.op, side: q.side, traced: traced}
	var end func()
	if traced {
		end = r.tr.span(int64(i), "http."+q.op)
	}
	t0 := time.Now()
	switch q.op {
	case "insert":
		s.err = r.insert(ctx, q.inserts)
	case "delete":
		s.err = r.deleteOldest(ctx)
	default:
		var qr queryReply
		qr, s.err = r.query(ctx, q.op, q.side)
		s.cached = qr.Cached
	}
	s.ms = ms(time.Since(t0))
	if end != nil {
		end()
	}
	return s
}

// queryReply is the part of maxrsd's /v1/query answer the benchmark reads.
type queryReply struct {
	Cached  bool `json:"cached"`
	Results []struct {
		Score float64 `json:"score"`
	} `json:"results"`
}

func (r *serveRun) query(ctx context.Context, op string, side float64) (queryReply, error) {
	body := map[string]any{"dataset": datasetName, "op": op, "w": side, "h": side}
	switch op {
	case "topk":
		body["k"] = topK
	case "maxcrs":
		body = map[string]any{"dataset": datasetName, "op": op, "diameter": side}
	}
	var qr queryReply
	if err := r.call(ctx, http.MethodPost, "/v1/query", body, &qr); err != nil {
		return qr, err
	}
	if len(qr.Results) == 0 {
		return qr, errors.New("no results")
	}
	return qr, nil
}

func (r *serveRun) insert(ctx context.Context, objs []maxrs.Object) error {
	type obj struct {
		X float64 `json:"x"`
		Y float64 `json:"y"`
		W float64 `json:"w"`
	}
	body := struct {
		Objects []obj `json:"objects"`
	}{}
	for _, o := range objs {
		body.Objects = append(body.Objects, obj{o.X, o.Y, o.Weight})
	}
	var reply struct {
		IDs []uint64 `json:"ids"`
	}
	if err := r.call(ctx, http.MethodPost, "/v1/datasets/"+datasetName+"/insert", body, &reply); err != nil {
		return err
	}
	if len(reply.IDs) != len(objs) {
		return fmt.Errorf("insert returned %d ids for %d objects", len(reply.IDs), len(objs))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, id := range reply.IDs {
		r.live[id] = objs[k]
	}
	r.batches = append(r.batches, reply.IDs)
	return nil
}

// deleteOldest deletes the oldest live insert batch.
func (r *serveRun) deleteOldest(ctx context.Context) error {
	r.mu.Lock()
	if len(r.batches) == 0 {
		r.mu.Unlock()
		return errors.New("no inserted batch left to delete")
	}
	ids := r.batches[0]
	r.batches = r.batches[1:]
	r.mu.Unlock()
	var reply struct {
		Removed int `json:"removed"`
	}
	body := map[string][]uint64{"ids": ids}
	if err := r.call(ctx, http.MethodPost, "/v1/datasets/"+datasetName+"/delete", body, &reply); err != nil {
		return err
	}
	if reply.Removed != len(ids) {
		return fmt.Errorf("delete of %d ids removed %d objects", len(ids), reply.Removed)
	}
	r.mu.Lock()
	for _, id := range ids {
		delete(r.live, id)
	}
	r.mu.Unlock()
	return nil
}

func (r *serveRun) put(ctx context.Context, srv *maxrsdProc, name string, csv []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, srv.base+"/v1/datasets/"+name, bytes.NewReader(csv))
	if err != nil {
		return err
	}
	return r.do(req, http.StatusCreated, nil)
}

// call sends a JSON request and decodes a 200 reply into out.
func (r *serveRun) call(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, r.srv.base+path, rd)
	if err != nil {
		return err
	}
	return r.do(req, http.StatusOK, out)
}

func (r *serveRun) do(req *http.Request, want int, out any) error {
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return &statusError{code: resp.StatusCode, msg: fmt.Sprintf("%s %s: status %d: %s",
			req.Method, req.URL.Path, resp.StatusCode, bytes.TrimSpace(b))}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(b, out)
}

// statusError is a reply with an unexpected HTTP status; a 429 is a
// request the server shed.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return e.msg }

// serverStats is the part of /v1/stats the benchmark reads.
type serverStats struct {
	Reads       uint64 `json:"reads"`
	Writes      uint64 `json:"writes"`
	Total       uint64 `json:"total"`
	BlocksInUse int    `json:"blocks_in_use"`
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	ReuseHits   uint64 `json:"cache_reuse_hits"`
	DeltaHits   uint64 `json:"delta_hits"`
	Pipeline    struct {
		Reads  uint64 `json:"reads"`
		Writes uint64 `json:"writes"`
	} `json:"pipeline"`
	Storage struct {
		PhysRead         uint64 `json:"phys_read_bytes"`
		PhysWrite        uint64 `json:"phys_write_bytes"`
		BlocksCompressed uint64 `json:"blocks_compressed"`
		BlocksRaw        uint64 `json:"blocks_raw"`
	} `json:"storage"`
}

func (r *serveRun) stats(ctx context.Context) (serverStats, error) {
	var st serverStats
	err := r.call(ctx, http.MethodGet, "/v1/stats", nil, &st)
	return st, err
}

// datasetInfo is one entry of GET /v1/datasets.
type datasetInfo struct {
	Name        string `json:"name"`
	Objects     int    `json:"objects"`
	Blocks      int    `json:"blocks"`
	Compactions uint64 `json:"compactions"`
}

func (r *serveRun) dataset(ctx context.Context) (datasetInfo, error) {
	var list struct {
		Datasets []datasetInfo `json:"datasets"`
	}
	if err := r.call(ctx, http.MethodGet, "/v1/datasets", nil, &list); err != nil {
		return datasetInfo{}, err
	}
	for _, d := range list.Datasets {
		if d.Name == datasetName {
			return d, nil
		}
	}
	return datasetInfo{}, fmt.Errorf("dataset %q not listed", datasetName)
}

// effective returns the model's effective set: the loaded objects plus
// every live insert.
func (r *serveRun) effective() []maxrs.Object {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]maxrs.Object(nil), r.objs...)
	ids := make([]uint64, 0, len(r.live))
	for id := range r.live {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	for _, id := range ids {
		out = append(out, r.live[id])
	}
	return out
}

// checkQuiesced runs after every client has stopped: the server's object
// count and MaxRS answers at every side must match the model, and no
// blocks may be held beyond the dataset's.
func (r *serveRun) checkQuiesced(ctx context.Context, res *outcome) error {
	eff := r.effective()
	info, err := r.dataset(ctx)
	if err != nil {
		return err
	}
	checkInto(res, info.Objects == len(eff), "maxrsd holds %d objects, model %d", info.Objects, len(eff))
	inMem := &maxrs.Options{Algorithm: maxrs.InMemory}
	for _, side := range r.spec.sides {
		want, err := maxrs.MaxRS(ctx, eff, side, side, inMem)
		if err != nil {
			return err
		}
		qr, err := r.query(ctx, "maxrs", side)
		checkInto(res, err == nil && qr.Results[0].Score == want.Score,
			"quiesced maxrs side %g: got %v (err %v), model %g", side, scoreOf(qr), err, want.Score)
	}
	st, err := r.stats(ctx)
	if err != nil {
		return err
	}
	if info, err = r.dataset(ctx); err != nil {
		return err
	}
	leaked := st.BlocksInUse - info.Blocks
	res.Extra.set("leaked_blocks", "blocks", float64(leaked))
	checkInto(res, leaked == 0, "maxrsd holds %d blocks beyond the dataset's", leaked)
	return nil
}

func scoreOf(qr queryReply) string {
	if len(qr.Results) == 0 {
		return "none"
	}
	return strconv.FormatFloat(qr.Results[0].Score, 'g', -1, 64)
}
