package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric names to values.
type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// outcome is what one workload run reports: the contract's result line
// plus the fields a result file adds for -compare.
type outcome struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Trace     int       `json:"trace"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
	// Extra holds numbers printed for people but not gated: the failed
	// fraction (0 in every accepted run), sample counts, and the
	// untraced-vs-traced comparison of a traced run.
	Extra metricSet `json:"extra,omitempty"`
	// Problems lists every failed check, one line each.
	Problems []string `json:"problems,omitempty"`
}

// useLayers makes a traced run's per-layer metrics the reported ones;
// the end-to-end metrics of its half-traced operations move to Extra.
func (o *outcome) useLayers(layers metricSet) {
	for k, v := range o.Metrics {
		o.Extra[k] = v
	}
	o.Metrics = layers
	o.Trace = 1
}

// resultLine is the contract's last stdout line: exactly these keys.
func (o *outcome) resultLine() ([]byte, error) {
	return json.Marshal(struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{o.Correct, o.Attempted, o.Failed, o.Metrics})
}

// printTable writes every metric by name with its unit, sorted.
func printTable(w io.Writer, title string, m metricSet) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s\n", title)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// quantile returns the q-quantile of sorted xs by linear interpolation
// between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// quartiles returns Q1, median, Q3 by the method of Python's
// statistics.quantiles(xs, n=4) (the "exclusive" default), so spreads
// printed here match the ones computed from the result files elsewhere.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	m := n + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*m - j*4)
		out[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return out[0], out[1], out[2]
}

// median of xs (NaN when empty).
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// peakRSSMiB reads VmHWM, the resident-set high-water mark, of a process.
func peakRSSMiB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// rssWatch samples a process's resident-set peak window by window: each
// read of VmHWM is followed by a reset (writing 5 to clear_refs), so
// every value is the peak of one window. A single whole-run peak moved
// by a third between identical runs with the timing of garbage
// collections; the median of the window peaks does not.
type rssWatch struct {
	pid  int
	stop chan struct{}
	done chan struct{}
	vals []float64
	err  error
}

// rssWindow is the length of one window.
const rssWindow = time.Second

func watchRSS(pid int) (*rssWatch, error) {
	w := &rssWatch{pid: pid, stop: make(chan struct{}), done: make(chan struct{})}
	if err := w.reset(); err != nil {
		return nil, err
	}
	go func() {
		defer close(w.done)
		t := time.NewTicker(rssWindow)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				if err := w.sample(); err != nil {
					w.err = err
					return
				}
			}
		}
	}()
	return w, nil
}

func (w *rssWatch) reset() error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", w.pid), []byte("5"), 0)
}

func (w *rssWatch) sample() error {
	v, err := peakRSSMiB(w.pid)
	if err != nil {
		return err
	}
	w.vals = append(w.vals, v)
	return w.reset()
}

// finish stops the watch, closes the last window and returns the median
// window peak.
func (w *rssWatch) finish() (float64, error) {
	close(w.stop)
	<-w.done
	if w.err != nil {
		return 0, w.err
	}
	if err := w.sample(); err != nil {
		return 0, err
	}
	return median(w.vals), nil
}

// allocCounter reads the process's cumulative heap allocations without
// stopping the world.
type allocCounter struct{ s []metrics.Sample }

func newAllocCounter() *allocCounter {
	return &allocCounter{s: []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}}
}

func (a *allocCounter) read() (bytes, objects uint64) {
	metrics.Read(a.s)
	return a.s[0].Value.Uint64(), a.s[1].Value.Uint64()
}
