package main

import (
	"io"
	"testing"
	"time"
)

// The counters below must repeat exactly for a fixed seed: they count
// work, not time, so any drift means the inputs or the program stopped
// being deterministic. Each workload runs twice, traced, on small inputs.
func TestExactCountersRepeat(t *testing.T) {
	cases := []struct {
		name    string
		prepare func(e *env) (runner, error)
		exact   []string
	}{
		{"batch-dv", func(e *env) (runner, error) {
			return newBatchRunner(e, batchSizes{scale: 10, edgeFactor: 8, ccN: 2000, ccK: 4, workers: 2, setups: 2, pregelRuns: 1})
		}, []string{"msgs_per_job", "wire_bytes_per_superstep", "graph.bytes_per_arc", "core.msg_reduction_pagerank"}},
		{"serve-stream", func(e *env) (runner, error) {
			return newServeRunner(e, serveSizes{scale: 10, edgeFactor: 8, workers: 2, setups: 1, batchSize: 16,
				removeEvery: 5, minBatches: 20, maxBatches: 60, readKeys: 64})
		}, []string{"msgs_per_job", "wire_bytes_per_superstep", "graph.bytes_per_arc", "serve.repaired_ratio"}},
		{"shard-mesh", func(e *env) (runner, error) {
			return newShardRunner(e, shardSizes{scale: 10, edgeFactor: 8, prIterations: 10, workers: 4, setups: 1, inprocRuns: 1})
		}, []string{"msgs_per_job", "wire_bytes_per_superstep", "graph.bytes_per_arc", "transport.bytes_per_superstep"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			first := exactRun(t, c.prepare)
			second := exactRun(t, c.prepare)
			for _, k := range c.exact {
				if first[k] == 0 {
					t.Errorf("%s is 0", k)
				}
				if first[k] != second[k] {
					t.Errorf("%s: %v then %v", k, first[k], second[k])
				}
			}
		})
	}
}

// exactRun runs one traced pass with its extras and returns the end-to-end
// and per-layer values together.
func exactRun(t *testing.T, prepare func(e *env) (runner, error)) map[string]float64 {
	t.Helper()
	e := &env{seed: 7, seconds: 200 * time.Millisecond, dir: t.TempDir(), log: io.Discard}
	r, err := prepare(e)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	p, err := r.pass(e, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.extras(e, tr, p); err != nil {
		t.Fatal(err)
	}
	if p.failed != 0 || p.attempted == 0 {
		t.Fatalf("%d of %d operations failed", p.failed, p.attempted)
	}
	out := map[string]float64{}
	for k, v := range p.e2e {
		out[k] = v
	}
	for k, v := range p.layers {
		out[k] = v
	}
	return out
}
