package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/deltav/vm"
	"repro/internal/graph"
	"repro/internal/pregel"
	"repro/internal/programs"
	"repro/internal/serve"
)

// serveSizes fixes the serve-stream inputs and load shape.
type serveSizes struct {
	scale, edgeFactor int // weighted directed R-MAT
	workers           int
	setups            int
	batchSize         int // mutations per batch, removals included
	removeEvery       int // every removeEvery-th batch removes one earlier added arc
	minBatches        int // the writer runs at least this many; exact counters cover exactly these
	maxBatches        int // batches generated up front
	readKeys          int
}

var serveDefault = serveSizes{
	scale: 16, edgeFactor: 8, workers: 2, setups: 11,
	batchSize: 64, removeEvery: 10, minBatches: 100, maxBatches: 1000, readKeys: 8192,
}

type serveRunner struct {
	sz      serveSizes
	path    string
	src     graph.VertexID
	batches []*graph.Delta
	bodies  [][]byte
	keys    []graph.VertexID
	// unreachable is a vertex the SSSP source cannot reach, or -1; it is
	// used once per pass to probe a known defect (see DESIGN.md).
	unreachable int
}

func prepareServe(e *env) (runner, error) { return newServeRunner(e, serveDefault) }

func newServeRunner(e *env, sz serveSizes) (*serveRunner, error) {
	r := &serveRunner{sz: sz, path: filepath.Join(e.dir, "serve.dvg"), unreachable: -1}
	g := graph.WithRandomWeights(graph.RMAT(sz.scale, sz.edgeFactor, 0.57, 0.19, 0.19, true, e.seed), 1, 10, e.seed+1)
	if err := graph.WriteGraphFile(r.path, g); err != nil {
		return nil, err
	}
	r.src = maxOutDegree(g)
	reach := reachable(g, r.src)
	var reachList []graph.VertexID
	for u, ok := range reach {
		if ok {
			reachList = append(reachList, graph.VertexID(u))
		} else if r.unreachable < 0 {
			r.unreachable = u
		}
	}
	rng := rand.New(rand.NewSource(e.seed + 4))
	for i := 0; i < sz.readKeys; i++ {
		r.keys = append(r.keys, reachList[rng.Intn(len(reachList))])
	}

	// Mutation batches: arcs that exist neither in the graph nor in an
	// earlier batch, with weights in [1, 10); every removeEvery-th batch
	// swaps one addition for the removal of an arc an earlier batch added.
	n := g.NumVertices()
	added := map[[2]graph.VertexID]bool{}
	var addedList [][2]graph.VertexID
	for b := 0; b < sz.maxBatches; b++ {
		d := &graph.Delta{}
		adds := sz.batchSize
		if (b+1)%sz.removeEvery == 0 && len(addedList) > 0 {
			adds--
			i := rng.Intn(len(addedList))
			arc := addedList[i]
			addedList[i] = addedList[len(addedList)-1]
			addedList = addedList[:len(addedList)-1]
			delete(added, arc)
			d.RemoveEdge(arc[0], arc[1])
		}
		var fresh [][2]graph.VertexID
		for len(fresh) < adds {
			u, v := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
			arc := [2]graph.VertexID{u, v}
			if u == v || added[arc] || hasArc(g, u, v) {
				continue
			}
			added[arc] = true
			fresh = append(fresh, arc)
			d.AddWeightedEdge(u, v, 1+9*rng.Float64())
		}
		// Arcs become removable only once their batch has been flushed.
		addedList = append(addedList, fresh...)
		var buf bytes.Buffer
		if err := graph.WriteDeltaLog(&buf, d); err != nil {
			return nil, err
		}
		r.batches = append(r.batches, d)
		r.bodies = append(r.bodies, buf.Bytes())
	}
	return r, nil
}

func hasArc(g *graph.Graph, u, v graph.VertexID) bool {
	it := g.OutArcs(u)
	for it.Next() {
		if it.To() == v {
			return true
		}
	}
	return false
}

// reachable marks the vertices a BFS from src reaches along out-arcs.
func reachable(g *graph.Graph, src graph.VertexID) []bool {
	seen := make([]bool, g.NumVertices())
	seen[src] = true
	queue := []graph.VertexID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		it := g.OutArcs(u)
		for it.Next() {
			if v := it.To(); !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	return seen
}

// serveState is one running server: the serve.Server over a flat graph
// with its checkpoint chain, and an HTTP server on a loopback listener.
type serveState struct {
	srv      *serve.Server
	prog     *core.Program
	hs       *http.Server
	served   chan error
	base     string
	chainDir string
	arcBytes float64
}

func (s *serveState) close() {
	if s == nil {
		return
	}
	s.hs.Close()
	<-s.served
	s.srv.Close()
	os.RemoveAll(s.chainDir)
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}, Timeout: 60 * time.Second}
}

func (r *serveRunner) setup(e *env, tr *tracer, root, idx int, client *http.Client) (*serveState, time.Duration, time.Duration, error) {
	st := &serveState{chainDir: filepath.Join(e.dir, fmt.Sprintf("chain-%d", idx)), served: make(chan error, 1)}
	t0 := time.Now()
	id := tr.open("graph", "graph.ReadGraphFile", root)
	g, err := graph.ReadGraphFile(r.path, graph.LoadFlat)
	if err != nil {
		return nil, 0, 0, err
	}
	st.arcBytes = ratio(float64(g.ArcBytes()), float64(g.NumArcs()))
	tr.close(id, map[string]int64{"arcs": int64(g.NumArcs())})
	t1 := time.Now()
	id = tr.open("core", "core.Compile", root)
	st.prog, err = core.Compile(programs.MustSource("sssp"), core.Options{Mode: core.Incremental})
	if err != nil {
		return nil, 0, 0, err
	}
	tr.close(id, nil)
	compile := time.Since(t1)
	id = tr.open("serve", "serve.New", root)
	st.srv, err = serve.New(context.Background(), serve.Config{
		Prog: st.prog, Graph: g, Params: map[string]float64{"src": float64(r.src)},
		Workers: r.sz.workers, Combine: true, Quarantine: true, ChainDir: st.chainDir,
	})
	if err != nil {
		return nil, 0, 0, err
	}
	if v := st.srv.Current(); v.Stats != nil {
		tr.derived("pregel", "pregel.Engine.Run", id, time.Now(), v.Stats.Duration, nil)
	}
	tr.close(id, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.srv.Close()
		return nil, 0, 0, err
	}
	st.base = "http://" + ln.Addr().String()
	st.hs = &http.Server{Handler: st.srv.Handler()}
	go func() { st.served <- st.hs.Serve(ln) }()
	id = tr.open("serve", "GET /healthz", root)
	if err := get(client, st.base+"/healthz", nil); err != nil {
		st.close()
		return nil, 0, 0, err
	}
	tr.close(id, nil)
	return st, t1.Sub(t0), compile, nil
}

func get(c *http.Client, url string, into any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decodeReply(resp, http.StatusOK, into)
}

func post(c *http.Client, url string, body []byte, want int, into any) error {
	resp, err := c.Post(url, "text/plain", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decodeReply(resp, want, into)
}

func decodeReply(resp *http.Response, want int, into any) error {
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s: status %d: %s", resp.Request.URL.Path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if into == nil {
		return nil
	}
	if err := json.Unmarshal(data, into); err != nil {
		return fmt.Errorf("%s: %w (body %q)", resp.Request.URL.Path, err, data)
	}
	return nil
}

type flushReply struct {
	Epoch    int64 `json:"epoch"`
	Repaired bool  `json:"repaired"`
}

type valueReply struct {
	Epoch int64   `json:"epoch"`
	Value float64 `json:"value"`
}

// batchRecord is what the writer learns about one batch.
type batchRecord struct {
	mutate, flush, visible time.Duration
	flushStart, flushEnd   time.Time
	repaired               bool
	// stats is a copy: a *pregel.Stats points into its engine and would
	// keep every superseded version's engine and graph alive.
	stats pregel.Stats
}

func (r *serveRunner) pass(e *env, tr *tracer) (*phase, error) {
	p := newPhase()
	writer, reader := newClient(), newClient()
	defer writer.CloseIdleConnections()
	defer reader.CloseIdleConnections()
	var setups, loads, compiles []float64
	var st *serveState
	for i := 0; i < r.sz.setups; i++ {
		st.close()
		root := tr.open("bench", "serve-stream.setup", 0)
		t0 := time.Now()
		var load, compile time.Duration
		var err error
		st, load, compile, err = r.setup(e, tr, root, i, writer)
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
	p.layers["graph.bytes_per_arc"] = st.arcBytes
	if err := get(reader, st.base+"/healthz", nil); err != nil {
		return nil, err
	}
	r.probeUnreachable(e, p, st, reader)
	chainBase := dirBytes(st.chainDir)

	bench.SettleHeap()
	rss := bench.StartRSSSampler(5 * time.Millisecond)
	start := time.Now()
	var last int64
	stopReader := startReader(start, func(i int) error { return r.read(tr, st, reader, i, &last) })
	recs, applyDelta, err := r.write(e, p, tr, st, writer, start)
	reads, readErrs := stopReader()
	elapsed := time.Since(start)
	p.e2e["peak_rss_bytes"] = float64(rss.Stop())
	if err != nil {
		return nil, err
	}
	for _, err := range readErrs {
		p.fail(e, "read: %v", err)
	}
	p.attempted += int64(len(reads) + len(readErrs))
	r.checkFinal(e, p, st, len(recs))

	// The deterministic counters cover exactly the first minBatches
	// batches; times cover every batch and read of the run. Per-batch
	// counts and superstep times are medians: the one batch in removeEvery
	// that falls back to a from-scratch run costs 10^4 times the messages
	// of a repair, and how many of those a seed produces would otherwise
	// decide the mean.
	var msgs, supersteps, combined, cross, active, repaired int64
	var batchMsgs, batchBytes, stepTime []float64
	var visible, mutate, flushRep, flushFB, self, deltaS, deltaSteps, deltaMsgs, scratchS, steps []float64
	for i, b := range recs {
		s := b.stats
		if i < r.sz.minBatches {
			batchMsgs = append(batchMsgs, float64(s.MessagesSent))
			batchBytes = append(batchBytes, ratio(float64(s.MessageBytes), float64(s.Supersteps)))
			msgs += s.MessagesSent
			supersteps += int64(s.Supersteps)
			combined += s.CombinedMessages
			cross += s.CrossWorker
			active += s.TotalActive
			if b.repaired {
				repaired++
			}
		}
		stepTime = append(stepTime, ratio(s.Duration.Seconds(), float64(s.Supersteps)))
		visible = append(visible, b.visible.Seconds())
		mutate = append(mutate, b.mutate.Seconds())
		self = append(self, (b.flush - s.Duration).Seconds())
		for _, ss := range s.Steps {
			steps = append(steps, ss.Duration.Seconds())
		}
		if b.repaired {
			flushRep = append(flushRep, b.flush.Seconds())
			deltaS = append(deltaS, s.Duration.Seconds())
			deltaSteps = append(deltaSteps, float64(s.Supersteps))
			deltaMsgs = append(deltaMsgs, float64(s.MessagesSent))
		} else {
			flushFB = append(flushFB, b.flush.Seconds())
			scratchS = append(scratchS, s.Duration.Seconds())
		}
	}
	// Reads are timed from when they were sent: the reader stands in for
	// a client in another process, and timed from when due its tail
	// measured how often the machine stalled the client (interquartile
	// range 24% of the median over ten seeds, against 11% from send). The
	// report keeps the from-due times and the generator's lag.
	var readLat, duringFlush, fromDue, lag []float64
	fi := 0
	for _, rd := range reads {
		for fi < len(recs) && recs[fi].flushEnd.Before(rd.due) {
			fi++
		}
		service := rd.service().Seconds()
		fromDue = append(fromDue, rd.latency.Seconds())
		lag = append(lag, rd.lag.Seconds())
		readLat = append(readLat, service)
		if fi < len(recs) && !rd.due.Before(recs[fi].flushStart) {
			duringFlush = append(duringFlush, service)
		}
	}
	n := float64(len(batchMsgs))
	p.e2e["jobs_per_s"] = float64(len(recs)) / elapsed.Seconds()
	p.e2e["msgs_per_job"] = median(batchMsgs)
	p.e2e["superstep_s"] = median(stepTime)
	p.e2e["wire_bytes_per_superstep"] = median(batchBytes)
	p.e2e["visible_s_p50"] = quantile(visible, 0.5)
	p.e2e["visible_s_p90"] = quantile(visible, 0.9)
	p.e2e["read_s_p50"] = quantile(readLat, 0.5)
	p.report["read_s_p99"] = quantile(readLat, 0.99)

	p.layers["graph.apply_delta_s_p50"] = median(applyDelta)
	p.layers["vm.delta_s_p50"] = median(deltaS)
	p.layers["vm.delta_supersteps_p50"] = median(deltaSteps)
	p.layers["vm.delta_msgs_p50"] = median(deltaMsgs)
	p.layers["vm.scratch_s_p50"] = median(scratchS)
	p.layers["pregel.step_s_p50"] = median(steps)
	p.layers["pregel.combine_ratio"] = ratio(float64(combined), float64(msgs))
	p.layers["pregel.cross_worker_ratio"] = ratio(float64(cross), float64(combined))
	p.layers["pregel.active_per_step"] = ratio(float64(active), float64(supersteps))
	p.layers["pregel.chain_bytes_per_batch"] = float64(dirBytes(st.chainDir)-chainBase) / float64(len(recs))
	p.layers["serve.mutate_s_p50"] = median(mutate)
	p.layers["serve.flush_s_p50.repaired"] = median(flushRep)
	p.layers["serve.flush_s_p50.fallback"] = median(flushFB)
	p.layers["serve.repaired_ratio"] = float64(repaired) / n
	p.layers["serve.self_s_p50"] = median(self)
	p.layers["serve.read_s_p99.during_flush"] = quantile(duringFlush, 0.99)

	p.report["workers"] = r.sz.workers
	p.report["batches"] = len(recs)
	p.report["batch_size"] = r.sz.batchSize
	p.report["mutations_per_s"] = float64(len(recs)*r.sz.batchSize) / elapsed.Seconds()
	p.report["repaired_batches_of_first"] = map[string]int64{"repaired": repaired, "batches": int64(n)}
	p.report["read_rate_per_s"] = readRate
	p.report["messages_first_batches"] = msgs
	p.report["reads"] = len(reads)
	p.report["setup_s"] = summarize(setups)
	p.report["visible_s"] = summarize(visible)
	p.report["read_s"] = summarize(readLat)
	p.report["read_s_during_flush"] = summarize(duringFlush)
	p.report["reader_lag_s"] = summarize(lag)
	p.report["read_s_from_due"] = summarize(fromDue)
	p.report["flush_s_repaired"] = summarize(flushRep)
	p.report["flush_s_fallback"] = summarize(flushFB)
	return p, nil
}

// write is the closed-loop writer: POST /mutate with the next batch, then
// POST /flush, until the run's time is up and at least minBatches batches
// are published. In traced runs it first times graph.ApplyDelta of the
// batch against the graph of the version the flush will replace.
func (r *serveRunner) write(e *env, p *phase, tr *tracer, st *serveState, c *http.Client, start time.Time) ([]batchRecord, []float64, error) {
	var recs []batchRecord
	var applyDelta []float64
	epoch := st.srv.Current().Epoch
	for i := 0; i < len(r.batches); i++ {
		if time.Since(start) >= e.seconds && i >= r.sz.minBatches {
			break
		}
		root := tr.open("bench", "serve-stream.batch", 0)
		if tr != nil {
			cur := st.srv.Current()
			g := cur.Graph()
			if g.Retain() {
				id := tr.open("graph", "graph.ApplyDelta", root)
				t0 := time.Now()
				ng, _, err := graph.ApplyDelta(g, r.batches[i])
				applyDelta = append(applyDelta, time.Since(t0).Seconds())
				tr.close(id, map[string]int64{"mutations": int64(r.batches[i].Len())})
				g.Release()
				if err != nil {
					return nil, nil, fmt.Errorf("batch %d: graph.ApplyDelta: %w", i, err)
				}
				ng.Close()
			}
		}
		var rec batchRecord
		t0 := time.Now()
		id := tr.open("serve", "POST /mutate", root)
		var mr struct {
			Accepted int `json:"accepted"`
		}
		err := post(c, st.base+"/mutate", r.bodies[i], http.StatusAccepted, &mr)
		tr.close(id, map[string]int64{"mutations": int64(mr.Accepted)})
		p.attempted++
		if err == nil && mr.Accepted != r.batches[i].Len() {
			err = fmt.Errorf("accepted %d of %d mutations", mr.Accepted, r.batches[i].Len())
		}
		if err != nil {
			return nil, nil, fmt.Errorf("batch %d: %w", i, err)
		}
		t1 := time.Now()
		id = tr.open("serve", "POST /flush", root)
		var fr flushReply
		err = post(c, st.base+"/flush", nil, http.StatusOK, &fr)
		t2 := time.Now()
		p.attempted++
		if err != nil {
			return nil, nil, fmt.Errorf("batch %d: %w", i, err)
		}
		v := st.srv.Current()
		if fr.Epoch != epoch+1 || v.Epoch != fr.Epoch {
			p.fail(e, "batch %d: flush published epoch %d (current %d), want %d", i, fr.Epoch, v.Epoch, epoch+1)
		}
		epoch = fr.Epoch
		s := v.Stats
		tr.derived("pregel", "pregel.Engine.Run", id, t2, s.Duration, map[string]int64{
			"supersteps": int64(s.Supersteps), "messages": s.MessagesSent,
		})
		tr.close(id, map[string]int64{"repaired": boolCount(fr.Repaired)})
		tr.close(root, nil)
		rec.mutate, rec.flush, rec.visible = t1.Sub(t0), t2.Sub(t1), t2.Sub(t0)
		rec.flushStart, rec.flushEnd = t1, t2
		rec.repaired, rec.stats = fr.Repaired, *s
		recs = append(recs, rec)
	}
	if len(recs) < r.sz.minBatches {
		return nil, nil, fmt.Errorf("only %d batches generated, need %d", len(recs), r.sz.minBatches)
	}
	return recs, applyDelta, nil
}

func boolCount(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// read is one read of the open-loop reader: GET /value/{v} for a seeded
// vertex. It must answer 200 with an epoch that never goes backwards.
func (r *serveRunner) read(tr *tracer, st *serveState, c *http.Client, i int, last *int64) error {
	id := tr.open("serve", "GET /value", 0)
	defer tr.close(id, nil)
	k := r.keys[i%len(r.keys)]
	var vr valueReply
	if err := get(c, fmt.Sprintf("%s/value/%d", st.base, k), &vr); err != nil {
		return err
	}
	if vr.Epoch < *last {
		return fmt.Errorf("vertex %d: epoch went back from %d to %d", k, *last, vr.Epoch)
	}
	*last = vr.Epoch
	return nil
}

// checkFinal compares the last published SSSP values bitwise with a
// from-scratch vm.Run on the final graph, rebuilt independently by applying
// every flushed batch, in order, to the initial graph.
func (r *serveRunner) checkFinal(e *env, p *phase, st *serveState, flushed int) {
	p.attempted++
	g, err := graph.ReadGraphFile(r.path, graph.LoadFlat)
	if err != nil {
		p.fail(e, "final check: %v", err)
		return
	}
	all := &graph.Delta{}
	for _, d := range r.batches[:flushed] {
		all.Muts = append(all.Muts, d.Muts...)
	}
	final, _, err := graph.ApplyDelta(g, all)
	if err != nil {
		p.fail(e, "final check: %v", err)
		return
	}
	v := st.srv.Current()
	if final.Fingerprint() != v.Fingerprint {
		p.fail(e, "final check: served graph fingerprint %016x, rebuilt %016x", v.Fingerprint, final.Fingerprint())
		return
	}
	res, err := vm.Run(st.prog, final, vm.RunOptions{Workers: r.sz.workers, Combine: true, Params: map[string]float64{"src": float64(r.src)}})
	if err != nil {
		p.fail(e, "final check: %v", err)
		return
	}
	served, ok := v.Field("dist")
	if !ok {
		p.fail(e, "final check: the served version has no dist field")
	} else if err := compare(served, mustField(res, "dist"), 0); err != nil {
		p.fail(e, "final check: served dist%v (want: from scratch)", err)
	}
	if s := st.srv.Stats(); s.FailedBatches != 0 {
		p.fail(e, "final check: %d failed batches", s.FailedBatches)
	}
}

// probeUnreachable reads one vertex the source cannot reach. Its distance
// is +Inf, which encoding/json cannot encode, so the server answers 200
// with an empty body. The probe runs outside the measured loop and is not
// counted as an operation; it reports whether the defect is still there.
func (r *serveRunner) probeUnreachable(e *env, p *phase, st *serveState, c *http.Client) {
	if r.unreachable < 0 {
		return
	}
	var vr valueReply
	err := get(c, fmt.Sprintf("%s/value/%d", st.base, r.unreachable), &vr)
	var syn *json.SyntaxError
	defect := errors.As(err, &syn)
	p.report["known_defect_inf_value_empty_body"] = defect
	if defect {
		fmt.Fprintf(e.log, "dvperf: known defect: GET /value/%d of an unreachable vertex answers 200 with an empty body (+Inf is not valid JSON)\n", r.unreachable)
	}
}

func (r *serveRunner) extras(e *env, tr *tracer, tp *phase) error { return nil }
