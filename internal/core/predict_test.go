package core_test

import (
	"fmt"
	"testing"

	"maxrs/internal/core"
	"maxrs/internal/em"
	"maxrs/internal/plan"
	"maxrs/internal/workload"
)

// TestResidencyBoundaryPredicted: the planner prices the two datasets of
// TestResidencyBoundary, 49 and 50 objects, on themselves — the scale
// model of a dataset that fits its sample is the query — so both the
// resident root's prediction and the dividing root's are exact and equal
// the measured counts.
func TestResidencyBoundaryPredicted(t *testing.T) {
	const w, h = 150, 150
	const blockSize, memory = 256, 4096 // 99 piece events: 49 rectangles stay resident
	objs := workload.Uniform(28, 50, 1000)
	for _, n := range []int{49, 50} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			env := em.MustNewEnv(blockSize, memory)
			f, err := workload.Write(env.Disk, objs[:n])
			if err != nil {
				t.Fatal(err)
			}
			env.Disk.ResetStats()
			s, err := core.NewSolver(env, core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.SolveObjects(f, w, h); err != nil {
				t.Fatal(err)
			}
			st := env.Disk.Stats()

			col := plan.NewCollector(blockSize, memory)
			for _, o := range objs[:n] {
				col.Add(o.X, o.Y, o.W)
			}
			pred := plan.Estimate(col.Finalize(), plan.Settings{W: w, H: h}, plan.Strategy{Algorithm: plan.ExactMaxRS})
			if !pred.Exact || pred.Reads != int64(st.Reads) || pred.Writes != int64(st.Writes) {
				t.Fatalf("predicted %+v, measured %v: want an exact match", pred, st)
			}
		})
	}
}
