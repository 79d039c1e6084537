package vm

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// iterPageRankSrc is the corpus PageRank with the iteration count as a
// parameter, so two runs differ only in their number of body supersteps.
const iterPageRankSrc = `
param iters : int = 30;
init {
  local vl : float = 1.0 / graphSize;
  local pr : float = if |#out| > 0 then vl / |#out| else 0.0
};
iter i {
  let sum : float = + [ u.pr | u <- #in ] in
  vl = 0.15 + 0.85 * (sum / graphSize);
  pr = if |#out| > 0 then vl / |#out| else 0.0
} until {
  i >= iters
}`

// TestAllocsPerIterationIndependentOfVertexCount: a ΔV PageRank iteration
// (dV mode, two workers) allocates the same on a 1k-vertex and an
// 8k-vertex graph. The evaluator, its let stack and the per-group site
// tables are all per-machine or on the stack, so nothing is allocated per
// vertex.
func TestAllocsPerIterationIndependentOfVertexCount(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	prog, err := core.Compile(iterPageRankSrc, core.Options{Mode: core.Incremental})
	if err != nil {
		t.Fatal(err)
	}
	perIter := func(scale int) float64 {
		g := graph.RMAT(scale, 8, 0.57, 0.19, 0.19, true, 7)
		g.BuildReverse()
		steps := map[float64]int{}
		run := func(iters float64) func() {
			return func() {
				res, err := Run(prog, g, RunOptions{Workers: 2, Combine: true, Params: map[string]float64{"iters": iters}})
				if err != nil {
					t.Fatal(err)
				}
				steps[iters] = res.Stats.Supersteps
			}
		}
		const short, long = 2, 6
		a := testing.AllocsPerRun(8, run(short))
		b := testing.AllocsPerRun(8, run(long))
		if steps[long]-steps[short] != long-short {
			t.Fatalf("scale %d: %d and %d supersteps for %d and %d iterations; the runs must differ by %d body supersteps",
				scale, steps[short], steps[long], short, long, long-short)
		}
		return (b - a) / (long - short)
	}
	// A per-vertex allocation costs hundreds per iteration at 1k vertices
	// and eight times that at 8k. What is left is the master's per-superstep
	// globals plus, in some runs, one more allocation per run that does not
	// grow with the graph (it shows as 0.25 per iteration here); half an
	// allocation of slack absorbs it.
	small, large := perIter(10), perIter(13)
	if math.Abs(small-large) > 0.5 || large > 2 {
		t.Fatalf("allocs per iteration: %.3f on 1k vertices, %.3f on 8k vertices; want the same small constant", small, large)
	}
	t.Logf("allocs per ΔV PageRank iteration: %.3f on 1k vertices, %.3f on 8k", small, large)
}
