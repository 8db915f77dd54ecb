package maxrs

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"maxrs/internal/em"
	"maxrs/internal/plan"
	"maxrs/internal/rec"
)

// maxCSVLine bounds one input line of LoadCSV (1 MiB) — far beyond any
// well-formed "x,y,weight" line, small enough to keep memory bounded on
// hostile input.
const maxCSVLine = 1 << 20

// LoadCSV streams objects from r directly onto the engine's disk without
// materializing them in memory, so datasets far larger than RAM can be
// loaded under an OnDisk engine. The format is one object per line,
// "x,y[,weight]" (weight defaults to 1); blank lines and lines starting
// with '#' are skipped. Coordinates and weights must be finite (NaN and
// ±Inf are rejected with the offending line number, as are lines longer
// than 1 MiB). Cancelling ctx (or exceeding its deadline) aborts the
// load at block-transfer granularity and returns an error matching both
// ErrQueryCancelled and the context error. On every error path — partial
// blocks included — nothing stays allocated.
func (e *Engine) LoadCSV(ctx context.Context, r io.Reader) (_ *Dataset, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, wrapCancel(err)
	}
	f := em.NewFile(e.env.Disk)
	defer func() {
		if err != nil {
			err = wrapCancel(errors.Join(err, f.Release()))
		}
	}()
	// The context binds the writer, not the file (see Load).
	w, err := em.OpenRecordWriter(e.env.WithContext(ctx), f, rec.ObjectCodec{})
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxCSVLine)
	n := 0
	lineNo := 0
	col := plan.NewCollector(e.opts.BlockSize, e.opts.Memory)
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		o, err := parseObjectLine(line)
		if err != nil {
			return nil, fmt.Errorf("maxrs: line %d: %w", lineNo, err)
		}
		if err := w.Write(o); err != nil {
			return nil, err
		}
		col.Add(o.X, o.Y, o.W)
		n++
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			// The scanner stopped on the line after the last delivered one.
			return nil, fmt.Errorf("maxrs: line %d: longer than %d bytes: %w",
				lineNo+1, maxCSVLine, err)
		}
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return e.newDataset(f, n, col.Finalize()), nil
}

func parseObjectLine(line string) (rec.Object, error) {
	parts := strings.Split(line, ",")
	if len(parts) < 2 || len(parts) > 3 {
		return rec.Object{}, fmt.Errorf("want x,y[,weight], got %q", line)
	}
	x, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
	if err != nil {
		return rec.Object{}, fmt.Errorf("bad x: %w", err)
	}
	y, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	if err != nil {
		return rec.Object{}, fmt.Errorf("bad y: %w", err)
	}
	wt := 1.0
	if len(parts) == 3 {
		wt, err = strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
		if err != nil {
			return rec.Object{}, fmt.Errorf("bad weight: %w", err)
		}
	}
	if err := checkObject(x, y, wt); err != nil {
		return rec.Object{}, fmt.Errorf("%w in %q", err, line)
	}
	return rec.Object{X: x, Y: y, W: wt}, nil
}
