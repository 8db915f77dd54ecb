package main

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// config is one workload run's settings, from the command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	// ops > 0 is the smoke mode: exactly ops measured operations, no
	// warm-up and one set-up, instead of a timed run.
	ops    int
	trace  bool
	work   string // scratch directory: engine files, maxrsd logs
	out    string // result and trace files
	maxrsd string // maxrsd binary
}

// setupReps is how many set-ups a run times, reporting the median: one
// set-up lasts milliseconds, too short to time steadily.
const setupReps = 16

// setups splits a run's set-ups: one untimed, so no timed set-up pays
// for cold code and first-touch memory, then half the timed ones before
// the measured phase and half after it. This machine's single-thread
// speed switches between two levels nearly 2× apart, holding each for
// seconds; set-ups bunched at the start of a run caught whichever level
// held then. Smoke mode sets up once.
func (c config) setups() (untimed, before, after int) {
	if c.ops > 0 {
		return 0, 1, 0
	}
	return 1, setupReps / 2, setupReps - setupReps/2
}

func (c config) warmup(n int) int {
	if c.ops > 0 {
		return 0
	}
	return n
}

// scheduleLen bounds a run's schedule; no workload gets near it within
// the longest run the contract allows.
const scheduleLen = 20000

// closedLoop runs do(client, i) over schedule indices from `from` on,
// with `clients` goroutines that each wait for their previous operation
// before taking the next — callers that wait for a reply, as the
// program's real callers do. It stops handing out work after limit
// operations or, with limit 0, once d has passed (an operation started
// before then runs to completion), and returns the wall time.
func closedLoop(ctx context.Context, clients, from, limit int, d time.Duration, do func(client, i int)) time.Duration {
	var next atomic.Int64
	next.Store(int64(from))
	end := from + limit
	if limit == 0 || end > scheduleLen {
		end = scheduleLen
	}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && (limit > 0 || time.Now().Before(deadline)) {
				i := int(next.Add(1) - 1)
				if i >= end {
					return
				}
				do(c, i)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// phase runs schedule entries from `from` on through do in a closed
// loop (see closedLoop) and returns the results in schedule order.
func phase[S any](ctx context.Context, clients, from, limit int, d time.Duration, do func(i int) S) ([]S, time.Duration) {
	type result struct {
		i int
		s S
	}
	perClient := make([][]result, clients)
	elapsed := closedLoop(ctx, clients, from, limit, d, func(c, i int) {
		perClient[c] = append(perClient[c], result{i, do(i)})
	})
	var all []result
	for _, rs := range perClient {
		all = append(all, rs...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].i < all[b].i })
	out := make([]S, len(all))
	for k, r := range all {
		out[k] = r.s
	}
	return out, elapsed
}
