package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/algorithms"
	"repro/internal/bench"
	"repro/internal/graph"
	"repro/internal/pregel"
	"repro/internal/pregel/transport"
)

// shardSizes fixes the shard-mesh inputs.
type shardSizes struct {
	scale, edgeFactor int // unweighted directed R-MAT
	prIterations      int
	workers           int // total over both shards
	setups            int
	inprocRuns        int // in-process baseline runs per algorithm in traced runs
}

var shardDefault = shardSizes{scale: 16, edgeFactor: 16, prIterations: 30, workers: 4, setups: 30, inprocRuns: 3}

const shards = 2

// shardAlgo is one handwritten algorithm of the mix. run returns the merged
// run statistics and read, which reads the engine's values (whole on every
// shard after the final all-gather) as float64s, as dvshard does before it
// digests or dumps them.
type shardAlgo struct {
	name string
	run  func(g *graph.Graph, opts algorithms.RunOptions) (read func() []float64, st *pregel.Stats, err error)
}

type shardRunner struct {
	sz     shardSizes
	path   string
	algos  []shardAlgo
	digest map[string]string // in-process reference digests
}

func prepareShard(e *env) (runner, error) { return newShardRunner(e, shardDefault) }

func newShardRunner(e *env, sz shardSizes) (*shardRunner, error) {
	r := &shardRunner{sz: sz, path: filepath.Join(e.dir, "shard.dvg"), digest: map[string]string{}}
	g := graph.RMAT(sz.scale, sz.edgeFactor, 0.57, 0.19, 0.19, true, e.seed)
	if err := graph.WriteGraphFile(r.path, g); err != nil {
		return nil, err
	}
	src := maxOutDegree(g)
	r.algos = []shardAlgo{
		{"pagerank", func(g *graph.Graph, o algorithms.RunOptions) (func() []float64, *pregel.Stats, error) {
			eng, st, err := algorithms.RunPageRank(g, sz.prIterations, o)
			if err != nil {
				return nil, st, err
			}
			return func() []float64 { return floats(eng.Values(), func(v algorithms.PRState) float64 { return v.PR }) }, st, nil
		}},
		{"sssp", func(g *graph.Graph, o algorithms.RunOptions) (func() []float64, *pregel.Stats, error) {
			eng, st, err := algorithms.RunSSSP(g, src, o)
			if err != nil {
				return nil, st, err
			}
			return func() []float64 { return floats(eng.Values(), func(v algorithms.SSSPState) float64 { return v.Dist }) }, st, nil
		}},
		{"cc", func(g *graph.Graph, o algorithms.RunOptions) (func() []float64, *pregel.Stats, error) {
			eng, st, err := algorithms.RunCC(g, o)
			if err != nil {
				return nil, st, err
			}
			return func() []float64 {
				return floats(eng.Values(), func(v algorithms.CCState) float64 { return float64(v.Comp) })
			}, st, nil
		}},
	}
	// The reference digests: the same algorithms with the same total
	// worker count in one engine, loaded from the same file.
	ref, err := graph.ReadGraphFile(r.path, graph.LoadFlat)
	if err != nil {
		return nil, err
	}
	for _, a := range r.algos {
		read, _, err := a.run(ref, algorithms.RunOptions{Workers: sz.workers, Combine: true})
		if err != nil {
			return nil, fmt.Errorf("in-process %s: %w", a.name, err)
		}
		r.digest[a.name] = digest(read())
	}
	return r, nil
}

func floats[V any](vals []V, f func(V) float64) []float64 {
	out := make([]float64, len(vals))
	for i, v := range vals {
		out[i] = f(v)
	}
	return out
}

func digest(vals []float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vals {
		bits := math.Float64bits(v)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// meshState is one set-up: each shard's own copy of the graph, loaded flat
// as dvshard loads it, and its end of the unix-socket mesh.
type meshState struct {
	g    [shards]*graph.Graph
	tr   [shards]*transport.Socket
	load [shards]time.Duration
	dial [shards]time.Duration
}

func (m *meshState) close() {
	if m == nil {
		return
	}
	for _, t := range m.tr {
		if t != nil {
			t.Close()
		}
	}
}

// setup loads the graph and forms the mesh, both shards concurrently as
// two dvshard processes would. The dial is reported as measured: with the
// mesh's fixed 50 ms retry poll it is bimodal (see DESIGN.md).
func (r *shardRunner) setup(e *env, tr *tracer, root, idx int) (*meshState, error) {
	m := &meshState{}
	var addrs []string
	for i := 0; i < shards; i++ {
		addrs = append(addrs, "unix:"+filepath.Join(e.dir, fmt.Sprintf("m%d-%d.sock", idx, i)))
	}
	var errs [shards]error
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t0 := time.Now()
			id := tr.open("graph", "graph.ReadGraphFile", root)
			g, err := graph.ReadGraphFile(r.path, graph.LoadFlat)
			tr.close(id, nil)
			m.load[i] = time.Since(t0)
			if err != nil {
				errs[i] = err
				return
			}
			m.g[i] = g
			t1 := time.Now()
			id = tr.open("transport", "transport.DialMesh", root)
			m.tr[i], errs[i] = transport.DialMesh(transport.SocketConfig{
				Shard: i, Count: shards, Addrs: addrs, Fingerprint: g.Fingerprint(), Timeout: 30 * time.Second,
			})
			tr.close(id, nil)
			m.dial[i] = time.Since(t1)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			m.close()
			return nil, err
		}
	}
	return m, nil
}

func (r *shardRunner) pass(e *env, tr *tracer) (*phase, error) {
	p := newPhase()
	var setups, loads, dials []float64
	var m *meshState
	for i := 0; i < r.sz.setups; i++ {
		m.close()
		root := tr.open("bench", "shard-mesh.setup", 0)
		t0 := time.Now()
		var err error
		if m, err = r.setup(e, tr, root, i); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		tr.close(root, nil)
		for s := 0; s < shards; s++ {
			loads = append(loads, m.load[s].Seconds())
			dials = append(dials, m.dial[s].Seconds())
		}
	}
	defer m.close()
	// The dial is bimodal (about 50 ms apart) and each mode comes up in
	// about half of the set-ups, so a median would report whichever mode
	// won the run. The mean moves with the share of slow dials instead,
	// which is what a readiness-based mesh set-up will change.
	p.e2e["setup_s"] = mean(setups)
	p.layers["graph.load_s"] = median(loads)
	p.layers["transport.dial_s"] = median(dials)
	p.layers["graph.bytes_per_arc"] = ratio(float64(m.g[0].ArcBytes()), float64(m.g[0].NumArcs()))

	bench.SettleHeap()
	rss := bench.StartRSSSampler(5 * time.Millisecond)
	start := time.Now()
	var lat, steps, reads []float64
	perAlgo := map[string][]float64{}
	stepsOf := map[string]int64{}
	var jobs int
	var msgs, supersteps, combined, cross, active, frames0, bytes0, wire int64
	var runErr error
loop:
	for time.Since(start) < e.seconds {
		for _, a := range r.algos {
			j, err := r.job(e, p, tr, m, a)
			if err != nil {
				runErr = err
				break loop
			}
			jobs++
			lat = append(lat, j.wall.Seconds())
			reads = append(reads, j.read.Seconds())
			perAlgo[a.name] = append(perAlgo[a.name], j.wall.Seconds())
			s := j.stats
			stepsOf[a.name] = int64(s.Supersteps)
			msgs += s.MessagesSent
			supersteps += int64(s.Supersteps)
			combined += s.CombinedMessages
			cross += s.CrossWorker
			active += s.TotalActive
			for _, ss := range s.Steps {
				steps = append(steps, ss.Duration.Seconds())
			}
			frames0 += j.frames[0]
			bytes0 += j.bytes[0]
			wire += j.bytes[0] + j.bytes[1]
		}
	}
	p.e2e["peak_rss_bytes"] = float64(rss.Stop())
	if runErr != nil {
		return nil, runErr
	}
	// As in batch-dv, throughput comes from each algorithm's median job
	// time and superstep time from the median of every superstep's time.
	var roundTime float64
	for _, a := range r.algos {
		roundTime += median(perAlgo[a.name])
	}
	p.e2e["jobs_per_s"] = float64(len(r.algos)) / roundTime
	p.e2e["msgs_per_job"] = float64(msgs) / float64(jobs)
	p.e2e["superstep_s"] = median(steps)
	p.e2e["wire_bytes_per_superstep"] = float64(wire) / float64(supersteps)
	p.e2e["visible_s_p50"] = quantile(lat, 0.5)
	p.e2e["visible_s_p90"] = quantile(lat, 0.9)
	p.e2e["read_s_p50"] = median(reads)
	p.report["read_s_p99"] = quantile(reads, 0.99)
	p.layers["transport.frames_per_superstep"] = float64(frames0) / float64(supersteps)
	p.layers["transport.bytes_per_superstep"] = float64(bytes0) / float64(supersteps)
	p.layers["pregel.step_s_p50"] = median(steps)
	p.layers["pregel.combine_ratio"] = ratio(float64(combined), float64(msgs))
	p.layers["pregel.cross_worker_ratio"] = ratio(float64(cross), float64(combined))
	p.layers["pregel.active_per_step"] = ratio(float64(active), float64(supersteps))
	p.report["read_s"] = summarize(reads)
	p.report["round_s"] = roundTime
	p.report["supersteps"] = stepsOf
	p.report["run_s"] = perAlgo
	p.report["workers"] = r.sz.workers
	p.report["jobs"] = jobs
	p.report["setup_s"] = summarize(setups)
	p.report["dial_s"] = dials
	p.report["visible_s"] = summarize(lat)
	return p, nil
}

type shardJob struct {
	wall          time.Duration
	read          time.Duration // shard 0 reading its result: read_s
	stats         *pregel.Stats
	frames, bytes [shards]int64
}

// job runs one algorithm on both shards over the existing mesh, reads
// shard 0's result and checks its digest against the in-process run.
func (r *shardRunner) job(e *env, p *phase, tr *tracer, m *meshState, a shardAlgo) (shardJob, error) {
	var j shardJob
	var before [shards][2]int64
	for i, t := range m.tr {
		before[i][0], before[i][1], _, _ = t.Counters()
	}
	root := tr.open("bench", "shard-mesh.job."+a.name, 0)
	var reads [shards]func() []float64
	var stats [shards]*pregel.Stats
	var errs [shards]error
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := tr.open("algorithms", "algorithms.Run("+a.name+")", root)
			reads[i], stats[i], errs[i] = a.run(m.g[i], algorithms.RunOptions{
				Workers: r.sz.workers, Combine: true,
				Shard: &pregel.ShardOptions{Index: i, Count: shards, Transport: m.tr[i]},
			})
			end := time.Now()
			if stats[i] != nil {
				tr.derived("pregel", "pregel.Engine.Run", id, end, stats[i].Duration, map[string]int64{
					"supersteps": int64(stats[i].Supersteps), "messages": stats[i].MessagesSent,
				})
			}
			tr.close(id, nil)
		}(i)
	}
	wg.Wait()
	j.wall = time.Since(t0)
	p.attempted++
	for i, err := range errs {
		if err != nil {
			tr.close(root, nil)
			return j, fmt.Errorf("%s shard %d: %w", a.name, i, err)
		}
	}
	j.stats = stats[0]
	for i, t := range m.tr {
		fo, bo, _, _ := t.Counters()
		j.frames[i], j.bytes[i] = fo-before[i][0], bo-before[i][1]
	}
	id := tr.open("bench", "shard-mesh.read", root)
	t1 := time.Now()
	vals := reads[0]()
	j.read = time.Since(t1)
	tr.close(id, map[string]int64{"vertices": int64(len(vals))})
	if d := digest(vals); d != r.digest[a.name] {
		p.fail(e, "%s: sharded digest %s, in-process %s", a.name, d, r.digest[a.name])
	}
	tr.close(root, map[string]int64{"supersteps": int64(j.stats.Supersteps)})
	return j, nil
}

// extras runs the in-process side of transport.overhead_ratio: the same
// mix in one engine with the same total worker count, on a graph warmed by
// one untimed round, inprocRuns times per algorithm. algorithms.run_s is
// each algorithm's median run time; the ratio's denominator is the median
// superstep time over those runs, as superstep_s is for the sharded runs.
func (r *shardRunner) extras(e *env, tr *tracer, tp *phase) error {
	g, err := graph.ReadGraphFile(r.path, graph.LoadFlat)
	if err != nil {
		return err
	}
	opts := algorithms.RunOptions{Workers: r.sz.workers, Combine: true}
	var steps []float64
	times := map[string][]float64{}
	for i := -1; i < r.sz.inprocRuns; i++ {
		for _, a := range r.algos {
			id := tr.open("algorithms", "algorithms.Run("+a.name+")", 0)
			t0 := time.Now()
			read, s, err := a.run(g, opts)
			wall := time.Since(t0).Seconds()
			if err != nil {
				return fmt.Errorf("in-process %s: %w", a.name, err)
			}
			tr.derived("pregel", "pregel.Engine.Run", id, time.Now(), s.Duration, nil)
			tr.close(id, map[string]int64{"supersteps": int64(s.Supersteps)})
			tp.attempted++
			if d := digest(read()); d != r.digest[a.name] {
				tp.fail(e, "in-process %s: digest %s, want %s", a.name, d, r.digest[a.name])
			}
			if i < 0 {
				continue // the warm-up round
			}
			times[a.name] = append(times[a.name], wall)
			for _, ss := range s.Steps {
				steps = append(steps, ss.Duration.Seconds())
			}
		}
	}
	for _, a := range r.algos {
		tp.layers["algorithms.run_s."+a.name] = median(times[a.name])
	}
	tp.layers["transport.overhead_ratio"] = ratio(tp.e2e["superstep_s"], median(steps))
	tp.report["inproc_run_s"] = times
	tp.report["inproc_superstep_s"] = median(steps)
	return nil
}
