package main

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/algorithms"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/deltav/vm"
	"repro/internal/graph"
	"repro/internal/pregel"
	"repro/internal/programs"
)

// batchSizes fixes the batch-dv inputs. The R-MAT graph carries PageRank,
// SSSP and HITS; CC runs on an undirected preferential-attachment graph
// sized so that it does not dominate the mix.
type batchSizes struct {
	scale, edgeFactor int // weighted directed R-MAT
	ccN, ccK          int // preferential attachment
	workers           int
	setups            int // set-ups per pass; setup_s is their median
	pregelRuns        int // Pregel+ baseline runs per program in traced runs
}

var batchDefault = batchSizes{scale: 15, edgeFactor: 8, ccN: 25000, ccK: 4, workers: 2, setups: 100, pregelRuns: 3}

// batchJob is one of the four programs of the mix, with its reference
// result computed once outside timing.
type batchJob struct {
	program string
	fields  []string    // result fields checked against want
	want    [][]float64 // one reference vector per field
	tol     float64     // 0: bitwise
	cc      bool        // runs on the preferential-attachment graph
	params  map[string]float64
}

type batchRunner struct {
	sz               batchSizes
	rmatPath, ccPath string
	src              graph.VertexID
	jobs             []batchJob
}

func prepareBatch(e *env) (runner, error) { return newBatchRunner(e, batchDefault) }

func newBatchRunner(e *env, sz batchSizes) (*batchRunner, error) {
	r := &batchRunner{sz: sz, rmatPath: filepath.Join(e.dir, "rmat.dvg"), ccPath: filepath.Join(e.dir, "pa.dvg")}
	g := graph.WithRandomWeights(graph.RMAT(sz.scale, sz.edgeFactor, 0.57, 0.19, 0.19, true, e.seed), 1, 10, e.seed+1)
	pa := graph.PreferentialAttachment(sz.ccN, sz.ccK, e.seed+2)
	if err := graph.WriteGraphFile(r.rmatPath, g); err != nil {
		return nil, err
	}
	if err := graph.WriteGraphFile(r.ccPath, pa); err != nil {
		return nil, err
	}
	g.BuildReverse()
	r.src = maxOutDegree(g)
	hub, auth := algorithms.HITSOracle(g, 7)
	ccLabels, _ := graph.ConnectedComponents(pa)
	cc := make([]float64, len(ccLabels))
	for i, l := range ccLabels {
		cc[i] = float64(l)
	}
	r.jobs = []batchJob{
		{program: "pagerank", fields: []string{"vl"}, want: [][]float64{algorithms.PageRankOracle(g, 30)}, tol: 1e-9},
		{program: "sssp", fields: []string{"dist"}, want: [][]float64{algorithms.SSSPOracle(g, r.src)},
			params: map[string]float64{"src": float64(r.src)}},
		{program: "hits", fields: []string{"hub", "auth"}, want: [][]float64{hub, auth}, tol: 1e-9},
		{program: "cc", fields: []string{"cid"}, want: [][]float64{cc}, cc: true},
	}
	return r, nil
}

// maxOutDegree is the SSSP source: the first vertex of largest out-degree.
func maxOutDegree(g *graph.Graph) graph.VertexID {
	best, deg := graph.VertexID(0), -1
	for u := 0; u < g.NumVertices(); u++ {
		if d := g.OutDegree(graph.VertexID(u)); d > deg {
			best, deg = graph.VertexID(u), d
		}
	}
	return best
}

// batchState is what one set-up produces: both graphs loaded in mmap
// (compact) mode and the four programs compiled in ΔV mode.
type batchState struct {
	rmat, pa *graph.Graph
	progs    map[string]*core.Program
}

func (s *batchState) close() {
	if s != nil {
		s.rmat.Close()
		s.pa.Close()
	}
}

func (r *batchRunner) setup(tr *tracer, root int) (*batchState, time.Duration, time.Duration, error) {
	st := &batchState{progs: map[string]*core.Program{}}
	t0 := time.Now()
	id := tr.open("graph", "graph.ReadGraphFile", root)
	var err error
	if st.rmat, err = graph.ReadGraphFile(r.rmatPath, graph.LoadMmap); err != nil {
		return nil, 0, 0, err
	}
	if st.pa, err = graph.ReadGraphFile(r.ccPath, graph.LoadMmap); err != nil {
		st.rmat.Close()
		return nil, 0, 0, err
	}
	tr.close(id, map[string]int64{"arcs": int64(st.rmat.NumArcs() + st.pa.NumArcs())})
	t1 := time.Now()
	id = tr.open("core", "core.Compile", root)
	for _, j := range r.jobs {
		p, err := core.Compile(programs.MustSource(j.program), core.Options{Mode: core.Incremental})
		if err != nil {
			st.close()
			return nil, 0, 0, err
		}
		st.progs[j.program] = p
	}
	tr.close(id, map[string]int64{"programs": int64(len(r.jobs))})
	return st, t1.Sub(t0), time.Since(t1), nil
}

// round is the fixed round-robin of the closed loop, as indices into
// jobs. PageRank, the paper's running example, fills two of the five
// slots: with an odd count the median job is a PageRank job and the 90th
// percentile a HITS job, instead of an interpolation between two programs.
var round = []int{0, 1, 0, 2, 3}

func (r *batchRunner) pass(e *env, tr *tracer) (*phase, error) {
	p := newPhase()
	var setups, loads, compiles []float64
	var st *batchState
	for i := 0; i < r.sz.setups; i++ {
		st.close()
		root := tr.open("bench", "batch-dv.setup", 0)
		t0 := time.Now()
		var load, compile time.Duration
		var err error
		st, load, compile, err = r.setup(tr, root)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		tr.close(root, nil)
		loads = append(loads, load.Seconds())
		compiles = append(compiles, compile.Seconds())
	}
	defer st.close()
	p.e2e["setup_s"] = median(setups)
	p.layers["graph.load_s"] = median(loads)
	p.layers["core.compile_s"] = median(compiles)
	p.layers["graph.bytes_per_arc"] = ratio(float64(st.rmat.ArcBytes()+st.pa.ArcBytes()), float64(st.rmat.NumArcs()+st.pa.NumArcs()))

	// One untimed round first: it fills the lazily built reverse adjacency
	// of the mmap graph and brings the heap to its steady size.
	for _, j := range r.jobs {
		if _, err := r.job(p, e, nil, st, j); err != nil {
			return nil, err
		}
	}
	bench.SettleHeap()
	rss := bench.StartRSSSampler(5 * time.Millisecond)
	start := time.Now()
	var lat, steps, reads []float64
	perProg := map[string][]float64{}
	stepsOf := map[string]int64{}
	msgsOf := map[string]int64{}
	var msgs, supersteps, bytes, combined, cross, active int64
	var jobs int
	var runErr error
loop:
	for time.Since(start) < e.seconds {
		for _, k := range round {
			j := r.jobs[k]
			res, err := r.job(p, e, tr, st, j)
			if err != nil {
				runErr = err
				break loop
			}
			jobs++
			lat = append(lat, res.wall.Seconds())
			reads = append(reads, res.reads...)
			perProg[j.program] = append(perProg[j.program], res.wall.Seconds())
			s := res.stats
			stepsOf[j.program] = int64(s.Supersteps)
			msgsOf[j.program] = s.MessagesSent
			msgs += s.MessagesSent
			supersteps += int64(s.Supersteps)
			bytes += s.MessageBytes
			combined += s.CombinedMessages
			cross += s.CrossWorker
			active += s.TotalActive
			for _, ss := range s.Steps {
				steps = append(steps, ss.Duration.Seconds())
			}
		}
	}
	p.e2e["peak_rss_bytes"] = float64(rss.Stop())
	if runErr != nil {
		return nil, runErr
	}
	// Throughput comes from each program's median job time, so one job
	// stalled by a neighbour on the machine does not move it. Superstep
	// time is a sample of its own: the median of every superstep's engine
	// time, not the round time over a fixed superstep count.
	var roundTime float64
	for _, k := range round {
		roundTime += median(perProg[r.jobs[k].program])
	}
	p.e2e["jobs_per_s"] = float64(len(round)) / roundTime
	p.e2e["msgs_per_job"] = float64(msgs) / float64(jobs)
	p.e2e["superstep_s"] = median(steps)
	p.e2e["wire_bytes_per_superstep"] = float64(bytes) / float64(supersteps)
	p.e2e["visible_s_p50"] = quantile(lat, 0.5)
	p.e2e["visible_s_p90"] = quantile(lat, 0.9)
	p.e2e["read_s_p50"] = median(reads)
	p.report["read_s_p99"] = quantile(reads, 0.99)
	for prog, xs := range perProg {
		p.layers["vm.run_s."+prog] = median(xs)
		p.layers["vm.supersteps."+prog] = float64(stepsOf[prog])
	}
	p.layers["pregel.step_s_p50"] = median(steps)
	p.layers["pregel.combine_ratio"] = ratio(float64(combined), float64(msgs))
	p.layers["pregel.cross_worker_ratio"] = ratio(float64(cross), float64(combined))
	p.layers["pregel.active_per_step"] = ratio(float64(active), float64(supersteps))
	p.report["workers"] = r.sz.workers
	p.report["jobs"] = jobs
	p.report["rounds"] = jobs / len(round)
	p.report["wall_s"] = time.Since(start).Seconds()
	p.report["setup_s"] = summarize(setups)
	p.report["visible_s"] = summarize(lat)
	p.report["read_s"] = summarize(reads)
	p.report["round_s"] = roundTime
	p.report["messages_per_round"] = msgs / int64(jobs/len(round))
	p.report["run_s"] = perProg
	p.report["messages"] = msgsOf
	return p, nil
}

type jobResult struct {
	wall  time.Duration
	stats *pregel.Stats
	reads []float64 // seconds of each vm.Result.FieldVector call
}

// job runs one program of the mix, reads each result field the way a
// batch user reads the output (vm.Result.FieldVector, timed: read_s), and
// checks it against its reference.
func (r *batchRunner) job(p *phase, e *env, tr *tracer, st *batchState, j batchJob) (jobResult, error) {
	g := st.rmat
	if j.cc {
		g = st.pa
	}
	root := tr.open("bench", "batch-dv.job."+j.program, 0)
	defer tr.close(root, nil)
	id := tr.open("vm", "vm.Run", root)
	t0 := time.Now()
	res, err := vm.Run(st.progs[j.program], g, vm.RunOptions{Workers: r.sz.workers, Combine: true, Params: j.params})
	wall := time.Since(t0)
	end := time.Now()
	p.attempted++
	if err != nil {
		tr.close(id, nil)
		return jobResult{}, fmt.Errorf("%s: %w", j.program, err)
	}
	s := res.Stats
	tr.close(id, map[string]int64{"supersteps": int64(s.Supersteps), "messages": s.MessagesSent})
	tr.derived("pregel", "pregel.Engine.Run", id, end, s.Duration, map[string]int64{
		"supersteps": int64(s.Supersteps), "messages": s.MessagesSent, "envelopes": s.CombinedMessages,
		"cross_worker": s.CrossWorker, "active": s.TotalActive, "message_bytes": s.MessageBytes,
	})
	jr := jobResult{wall: wall, stats: s}
	for k, f := range j.fields {
		id := tr.open("vm", "vm.Result.FieldVector", root)
		t0 := time.Now()
		got, err := res.FieldVector(f)
		jr.reads = append(jr.reads, time.Since(t0).Seconds())
		tr.close(id, map[string]int64{"vertices": int64(len(got))})
		if err != nil {
			return jobResult{}, err
		}
		cid := tr.open("bench", "check", root)
		err = compare(got, j.want[k], j.tol)
		tr.close(cid, nil)
		if err != nil {
			p.fail(e, "%s: %s%v", j.program, f, err)
		}
	}
	return jr, nil
}

// extras measures what the traced run adds: the ΔV★ PageRank message count
// for the Fig. 4 reduction ratio, and the handwritten Pregel+ SSSP, CC and
// PageRank run times for the Fig. 5 comparison at equal message counts.
func (r *batchRunner) extras(e *env, tr *tracer, tp *phase) error {
	st, _, _, err := r.setup(tr, 0)
	if err != nil {
		return err
	}
	defer st.close()
	star, err := core.Compile(programs.MustSource("pagerank"), core.Options{Mode: core.Baseline})
	if err != nil {
		return err
	}
	id := tr.open("vm", "vm.Run(pagerank, dV*)", 0)
	sres, err := vm.Run(star, st.rmat, vm.RunOptions{Workers: r.sz.workers, Combine: true})
	if err != nil {
		return err
	}
	tr.derived("pregel", "pregel.Engine.Run", id, time.Now(), sres.Stats.Duration, nil)
	tr.close(id, map[string]int64{"messages": sres.Stats.MessagesSent})
	tp.attempted++
	if err := compare(mustField(sres, "vl"), r.jobs[0].want[0], 1e-9); err != nil {
		tp.fail(e, "pagerank dV*: vl%v", err)
	}
	dv, err := vm.Run(st.progs["pagerank"], st.rmat, vm.RunOptions{Workers: r.sz.workers, Combine: true})
	if err != nil {
		return err
	}
	tp.layers["core.msg_reduction_pagerank"] = ratio(float64(sres.Stats.MessagesSent), float64(dv.Stats.MessagesSent))
	tp.report["pagerank_messages"] = map[string]int64{"dV": dv.Stats.MessagesSent, "dV*": sres.Stats.MessagesSent}

	opts := algorithms.RunOptions{Workers: r.sz.workers, Combine: true}
	baselines := []struct {
		name string
		run  func() (*pregel.Stats, error)
	}{
		{"pagerank", func() (*pregel.Stats, error) { _, s, err := algorithms.RunPageRank(st.rmat, 30, opts); return s, err }},
		{"sssp", func() (*pregel.Stats, error) { _, s, err := algorithms.RunSSSP(st.rmat, r.src, opts); return s, err }},
		{"cc", func() (*pregel.Stats, error) { _, s, err := algorithms.RunCC(st.pa, opts); return s, err }},
	}
	msgs := map[string]int64{}
	for _, b := range baselines {
		var times []float64
		for i := 0; i < r.sz.pregelRuns; i++ {
			id := tr.open("algorithms", "algorithms.Run("+b.name+")", 0)
			t0 := time.Now()
			s, err := b.run()
			if err != nil {
				return fmt.Errorf("Pregel+ %s: %w", b.name, err)
			}
			times = append(times, time.Since(t0).Seconds())
			tr.derived("pregel", "pregel.Engine.Run", id, time.Now(), s.Duration, nil)
			tr.close(id, map[string]int64{"messages": s.MessagesSent})
			msgs[b.name] = s.MessagesSent
		}
		tp.layers["algorithms.run_s."+b.name] = median(times)
	}
	tp.layers["vm.vs_pregel.sssp"] = ratio(tp.layers["vm.run_s.sssp"], tp.layers["algorithms.run_s.sssp"])
	tp.layers["vm.vs_pregel.cc"] = ratio(tp.layers["vm.run_s.cc"], tp.layers["algorithms.run_s.cc"])
	tp.report["pregel_messages"] = msgs
	return nil
}

func mustField(res *vm.Result, name string) []float64 {
	v, err := res.FieldVector(name)
	if err != nil {
		return nil
	}
	return v
}
