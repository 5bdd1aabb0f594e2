// Quickstart: run the Co-plot method end to end on a small hand-written
// data matrix — five workloads described by four variables — and read the
// three outputs the method gives you: the 2-D observation map, the
// variable arrows with their maximal correlations, and the coefficient
// of alienation.
package main

import (
	"context"
	"fmt"
	"log"

	"coplot/internal/core"
	"coplot/internal/mds"
)

func main() {
	// A miniature workload table: median runtime, median parallelism,
	// median inter-arrival gap, and load. "batch" sites have long jobs
	// and sparse arrivals; "inter" sites the opposite.
	ds := &core.Dataset{
		Observations: []string{"batchA", "batchB", "mixed", "interA", "interB", "huge"},
		Variables:    []string{"runtime", "parallel", "gap", "load"},
		X: [][]float64{
			{950, 2, 300, 0.60},
			{800, 3, 260, 0.65},
			{120, 8, 120, 0.55},
			{15, 4, 30, 0.05},
			{12, 3, 25, 0.04},
			{400, 64, 200, 0.70},
		},
	}

	res, err := core.AnalyzeContext(context.Background(), ds, core.Options{MDS: mds.Options{Seed: 1}})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Print(res.ASCIIMap(78, 22))
	fmt.Printf("\ncoefficient of alienation: %.3f (below 0.15 is good)\n", res.Alienation)
	fmt.Println("\nvariable arrows (cosine of angle ~ correlation between variables):")
	for _, a := range res.Arrows {
		fmt.Printf("  %-9s direction (% .2f, % .2f), max correlation %.2f\n",
			a.Name, a.DX, a.DY, a.Corr)
	}

	// Co-plot reads: an observation is above average in a variable when
	// its point projects positively on the variable's arrow.
	for _, obs := range []string{"batchA", "interA"} {
		p, err := res.Projection(obs, "runtime")
		if err != nil {
			log.Fatal(err)
		}
		side := "above"
		if p < 0 {
			side = "below"
		}
		fmt.Printf("%s is %s average runtime (projection % .2f)\n", obs, side, p)
	}

	// Variables whose arrows nearly coincide are highly correlated.
	clusters := core.ClusterArrows(res.Arrows, 0.5)
	fmt.Printf("\n%d variable clusters:\n", len(clusters))
	for i, c := range clusters {
		fmt.Printf("  cluster %d:", i+1)
		for _, a := range c {
			fmt.Printf(" %s", a.Name)
		}
		fmt.Println()
	}
}
