// Command maxrs solves MaxRS/MaxCRS instances from CSV object files.
//
// Input format: one object per line, "x,y[,weight]" (weight defaults to 1).
// Lines starting with '#' are skipped.
//
// Examples:
//
//	maxrs -in points.csv -w 1000 -h 1000
//	maxrs -in points.csv -circle -d 1000
//	maxrs -in points.csv -w 500 -h 500 -k 3 -algorithm exact
//	datagen -dist ne | maxrs -w 1000 -h 1000
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"maxrs"
)

func main() {
	var (
		in     = flag.String("in", "-", "input CSV file (default stdin)")
		w      = flag.Float64("w", 1000, "rectangle width d1")
		h      = flag.Float64("h", 1000, "rectangle height d2")
		circle = flag.Bool("circle", false, "solve MaxCRS (circular range) instead of MaxRS")
		d      = flag.Float64("d", 1000, "circle diameter (with -circle)")
		k      = flag.Int("k", 1, "number of results (MaxkRS greedy top-k)")
		algo   = flag.String("algorithm", "exact", "exact | inmemory")
		block  = flag.Int("block", 4096, "EM block size in bytes")
		mem    = flag.Int("mem", 1<<20, "EM memory budget in bytes")
		stats  = flag.Bool("stats", true, "print I/O statistics")
	)
	flag.Parse()

	// Ctrl-C cancels the in-flight solve through the engine's ctx path —
	// it stops within one block-transfer's work instead of running the
	// full instance to completion. Once the first signal lands, default
	// handling is restored (AfterFunc → stop), so a second Ctrl-C kills
	// the process outright even in the phases that are not ctx-aware.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop)

	objs, err := readObjects(*in)
	if err != nil {
		fatal(err)
	}
	// The load phases don't poll ctx internally; honor a Ctrl-C that
	// arrived during them at the phase boundary.
	if err := ctx.Err(); err != nil {
		fatal(err)
	}
	alg, err := parseAlgorithm(*algo)
	if err != nil {
		fatal(err)
	}
	engine, err := maxrs.NewEngine(&maxrs.Options{
		BlockSize: *block,
		Memory:    *mem,
		Algorithm: alg,
	})
	if err != nil {
		fatal(err)
	}
	defer engine.Close()
	ds, err := engine.Load(ctx, objs)
	if err != nil {
		fatal(err)
	}
	if err := ctx.Err(); err != nil {
		fatal(err)
	}
	engine.ResetStats()

	switch {
	case *circle:
		res, err := engine.MaxCRS(ctx, ds, *d)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("MaxCRS (ApproxMaxCRS, diameter %g): center=(%g, %g) weight=%g (≥ %.0f%% of optimum)\n",
			*d, res.Location.X, res.Location.Y, res.Score, 100*res.LowerBoundRatio)
	case *k > 1:
		results, err := engine.TopK(ctx, ds, *w, *h, *k)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("MaxkRS (%g x %g, k=%d):\n", *w, *h, *k)
		for i, r := range results {
			fmt.Printf("  #%d center=(%g, %g) weight=%g\n", i+1, r.Location.X, r.Location.Y, r.Score)
		}
	default:
		res, err := engine.MaxRS(ctx, ds, *w, *h)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("MaxRS (%s, %g x %g): center=(%g, %g) weight=%g\n",
			alg, *w, *h, res.Location.X, res.Location.Y, res.Score)
		fmt.Printf("  optimal region: x in [%g, %g), y in [%g, %g)\n",
			res.Region.MinX, res.Region.MaxX, res.Region.MinY, res.Region.MaxY)
	}
	if *stats {
		s := engine.Stats()
		fmt.Printf("I/O: %d block transfers (%d reads, %d writes), N=%d\n",
			s.Total(), s.Reads, s.Writes, ds.Len())
	}
}

func parseAlgorithm(s string) (maxrs.Algorithm, error) {
	switch strings.ToLower(s) {
	case "exact", "exactmaxrs":
		return maxrs.ExactMaxRS, nil
	case "inmemory", "mem":
		return maxrs.InMemory, nil
	default:
		return 0, fmt.Errorf("unknown algorithm %q: want exact | inmemory (the paper's naive and aSB-tree baselines run in maxrsbench -exp=fig12)", s)
	}
}

func readObjects(path string) ([]maxrs.Object, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	var objs []maxrs.Object
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, ",")
		if len(parts) < 2 {
			return nil, fmt.Errorf("line %d: want x,y[,weight], got %q", lineNo, line)
		}
		x, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad x: %w", lineNo, err)
		}
		y, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad y: %w", lineNo, err)
		}
		wt := 1.0
		if len(parts) >= 3 {
			wt, err = strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: bad weight: %w", lineNo, err)
			}
		}
		objs = append(objs, maxrs.Object{X: x, Y: y, Weight: wt})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return objs, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "maxrs:", err)
	os.Exit(1)
}
