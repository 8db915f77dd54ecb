package maxrs_test

import (
	"context"
	"fmt"

	"maxrs"
)

// The smallest MaxRS program: find the best 4×4 placement.
func ExampleMaxRS() {
	objs := []maxrs.Object{
		{X: 1, Y: 1, Weight: 1},
		{X: 2, Y: 2, Weight: 1},
		{X: 3, Y: 1, Weight: 1},
		{X: 40, Y: 40, Weight: 1},
	}
	res, err := maxrs.MaxRS(context.Background(), objs, 4, 4, nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("covered weight: %.0f\n", res.Score)
	// Output: covered weight: 3
}

// MaxCRS approximates the best circular placement with a guaranteed
// fraction of the optimum.
func ExampleMaxCRS() {
	objs := []maxrs.Object{
		{X: 0, Y: 0, Weight: 2},
		{X: 1, Y: 0, Weight: 2},
		{X: 0, Y: 1, Weight: 2},
		{X: 90, Y: 90, Weight: 1},
	}
	res, err := maxrs.MaxCRS(context.Background(), objs, 4, nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("weight %.0f (guaranteed ≥ %.0f%% of optimum)\n",
		res.Score, 100*res.LowerBoundRatio)
	// Output: weight 6 (guaranteed ≥ 25% of optimum)
}

// An Engine gives control over the EM model and reports the I/O cost —
// the metric the paper's evaluation is built on.
func ExampleEngine_MaxRS() {
	engine, err := maxrs.NewEngine(&maxrs.Options{
		BlockSize: 4096,
		Memory:    1 << 20,
	})
	if err != nil {
		panic(err)
	}
	objs := make([]maxrs.Object, 0, 1000)
	for i := 0; i < 1000; i++ {
		objs = append(objs, maxrs.Object{X: float64(i % 50), Y: float64(i / 50), Weight: 1})
	}
	ds, err := engine.Load(context.Background(), objs)
	if err != nil {
		panic(err)
	}
	engine.ResetStats()
	res, err := engine.MaxRS(context.Background(), ds, 10, 10)
	if err != nil {
		panic(err)
	}
	fmt.Printf("best 10x10 covers %.0f of %d points\n", res.Score, ds.Len())
	// Output: best 10x10 covers 100 of 1000 points
}

// TopK plans several placements over disjoint object subsets (MaxkRS).
func ExampleEngine_TopK() {
	engine, err := maxrs.NewEngine(nil)
	if err != nil {
		panic(err)
	}
	var objs []maxrs.Object
	for i := 0; i < 5; i++ { // cluster A: 5 points
		objs = append(objs, maxrs.Object{X: float64(i), Y: 0, Weight: 1})
	}
	for i := 0; i < 3; i++ { // cluster B: 3 points
		objs = append(objs, maxrs.Object{X: 100 + float64(i), Y: 0, Weight: 1})
	}
	ds, err := engine.Load(context.Background(), objs)
	if err != nil {
		panic(err)
	}
	results, err := engine.TopK(context.Background(), ds, 10, 10, 2)
	if err != nil {
		panic(err)
	}
	for i, r := range results {
		fmt.Printf("#%d: weight %.0f\n", i+1, r.Score)
	}
	// Output:
	// #1: weight 5
	// #2: weight 3
}

// Dataset.SetShards splits one dataset's queries into vertical shards
// solved independently and merged exactly; the engine's Options.Shards
// is the default for every other dataset.
func ExampleDataset_SetShards() {
	engine, err := maxrs.NewEngine(nil)
	if err != nil {
		panic(err)
	}
	defer engine.Close()
	objs := make([]maxrs.Object, 0, 1000)
	for i := 0; i < 1000; i++ {
		objs = append(objs, maxrs.Object{X: float64(i % 50), Y: float64(i / 50), Weight: 1})
	}
	ds, err := engine.Load(context.Background(), objs)
	if err != nil {
		panic(err)
	}
	unsharded, err := engine.MaxRS(context.Background(), ds, 10, 10)
	if err != nil {
		panic(err)
	}
	if err := ds.SetShards(4); err != nil {
		panic(err)
	}
	sharded, err := engine.MaxRS(context.Background(), ds, 10, 10)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d shards: weight %.0f, unsharded %.0f\n", sharded.Shards, sharded.Score, unsharded.Score)
	// Output: 4 shards: weight 100, unsharded 100
}
