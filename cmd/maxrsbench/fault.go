package main

import (
	"errors"
	"fmt"
	"time"

	"maxrs/internal/core"
	"maxrs/internal/em"
	"maxrs/internal/experiments"
	"maxrs/internal/workload"
)

// faultVariant is one measured configuration.
type faultVariant struct {
	name  string
	retry bool
	armed bool    // install an injector (with the variant's rate)
	rate  float64 // transient read+write fault probability per transfer
}

var faultVariants = []faultVariant{
	{name: "plain"},
	{name: "hardened/armed", retry: true, armed: true},
	{name: "recover/0.1%", retry: true, armed: true, rate: 0.001},
	{name: "recover/1%", retry: true, armed: true, rate: 0.01},
}

// faultRetryPolicy is the hardened variants' policy. The backoff is kept
// short so recovery costs the run little sleep.
var faultRetryPolicy = em.RetryPolicy{
	MaxRetries: 8,
	BaseDelay:  50 * time.Microsecond,
	MaxDelay:   time.Millisecond,
}

// closeJoin closes d on an error path, folding its Close error into err.
func closeJoin(d *em.Disk, err error) error {
	return errors.Join(err, d.Close())
}

// runFault is the -exp=fault mode: the hardening-overhead and
// fault-recovery record (DESIGN.md §11). It answers two questions with one
// run. First, what do a retry policy and an armed-but-silent fault
// injector cost at zero fault rate — the answer must be zero block
// transfers, asserted internally and gated by the -baseline comparator via
// the "(block transfers)" series. Second, does the hardened stack recover
// at 0.1% and 1% transient fault rates — faults must fire, every one must
// be retried into success, and the answer and transfer count must not
// move. The injected and retry counts are recorded as ungated series: they
// describe the fault plan, not the paper's metric.
func runFault(cfg gridConfig) ([]experiments.Series, error) {
	objs := workload.Uniform(cfg.seed, cfg.objects, 4*float64(cfg.objects))
	queryEdge := 4 * float64(cfg.objects) / 1000

	fmt.Fprintf(cfg.out, "fault: %d uniform objects, M=%dKB, B=%d, query %gx%g, parallelism %d\n",
		cfg.objects, cfg.memory/1024, experiments.DefaultBlockSize, queryEdge, queryEdge, cfg.par)
	fmt.Fprintf(cfg.out, "%-16s %12s %10s %10s\n", "variant", "io/op", "injected", "retries")

	type measured struct {
		io       uint64
		injected uint64 // transients fired by the injector
		retries  uint64 // read+write retry attempts
		region   [4]float64
		sum      float64
	}
	results := make([]measured, len(faultVariants))

	for vi, v := range faultVariants {
		d, err := em.NewDisk(experiments.DefaultBlockSize)
		if err != nil {
			return nil, err
		}
		if v.retry {
			d.SetRetryPolicy(faultRetryPolicy)
		}
		if v.armed {
			d.InjectFaults(em.FaultPlan{
				Seed:               cfg.seed,
				TransientReadRate:  v.rate,
				TransientWriteRate: v.rate,
			})
		}
		env := em.Env{Disk: d, M: cfg.memory}
		f, err := workload.Write(d, objs)
		if err != nil {
			return nil, closeJoin(d, err)
		}
		solver, err := core.NewSolver(env, core.Config{Parallelism: cfg.par})
		if err != nil {
			return nil, closeJoin(d, err)
		}
		d.ResetStats()
		res, err := solver.SolveObjects(f, queryEdge, queryEdge)
		if err != nil {
			return nil, closeJoin(d, fmt.Errorf("fault: %s: %w", v.name, err))
		}
		stats := d.Stats()
		fs := d.FaultStats()
		if err := d.Close(); err != nil {
			return nil, err
		}
		m := measured{
			io:       stats.Total(),
			injected: fs.InjectedTransient,
			retries:  fs.ReadRetries + fs.WriteRetries,
			region:   [4]float64{res.Region.X.Lo, res.Region.X.Hi, res.Region.Y.Lo, res.Region.Y.Hi},
			sum:      res.Sum,
		}
		results[vi] = m
		fmt.Fprintf(cfg.out, "%-16s %12d %10d %10d\n",
			v.name, m.io, m.injected, m.retries)
	}

	// Invariants (DESIGN.md §11). 1: every variant — including those that
	// recovered from injected faults — returns the same answer.
	for vi := 1; vi < len(results); vi++ {
		if results[vi].region != results[0].region || results[vi].sum != results[0].sum {
			return nil, fmt.Errorf("fault: %s result differs from %s",
				faultVariants[vi].name, faultVariants[0].name)
		}
	}
	// 2: io/op is identical across every variant. The counters count
	// successful transfers only, so neither hardening nor recovered
	// transient faults may change the counted schedule.
	for vi := 1; vi < len(results); vi++ {
		if results[vi].io != results[0].io {
			return nil, fmt.Errorf("fault: io/op %d (%s) != %d (%s)",
				results[vi].io, faultVariants[vi].name, results[0].io, faultVariants[0].name)
		}
	}
	// 3: the recovery variants actually exercised the fault path — faults
	// fired and every one of them was retried into success.
	for vi, v := range faultVariants {
		if v.rate == 0 {
			if results[vi].injected != 0 || results[vi].retries != 0 {
				return nil, fmt.Errorf("fault: %s fired %d faults / %d retries at rate 0",
					v.name, results[vi].injected, results[vi].retries)
			}
			continue
		}
		if results[vi].injected == 0 {
			return nil, fmt.Errorf("fault: %s injected no faults at rate %g", v.name, v.rate)
		}
		if results[vi].retries < results[vi].injected {
			return nil, fmt.Errorf("fault: %s retried %d < %d injected",
				v.name, results[vi].retries, results[vi].injected)
		}
	}
	fmt.Fprintf(cfg.out, "results identical, io/op hardening- and fault-invariant, recovery exercised ✓\n")

	names := make([]string, len(faultVariants))
	for i, v := range faultVariants {
		names[i] = v.name
	}
	// Only the transfer-count series carries the "(block transfers)"
	// marker, so only it is gated by the -baseline comparator.
	return []experiments.Series{
		variantSeries("fault: I/O per query (block transfers)", names, results, func(m measured) float64 { return float64(m.io) }),
		variantSeries("fault: injected transients per query", names, results, func(m measured) float64 { return float64(m.injected) }),
		variantSeries("fault: retries per query", names, results, func(m measured) float64 { return float64(m.retries) }),
	}, nil
}
