package pregel

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// bcastProgram sends, each round, one key-0 message along the out-edges,
// one key-1 message along the in-edges and one NoKey message along the
// out-edges, with a plain key-0 Send to the successor ID in between so
// broadcasts fold into envelopes a Send opened and the other way round.
// With fused set the three go through BroadcastOut/BroadcastIn; otherwise
// through a Send per arc. Payloads are irrational-ish floats, so any change
// of fold order shows up bitwise. A vertex listed in poison panics right
// after its first broadcast of superstep 0.
type bcastProgram struct {
	fused  bool
	rounds int
	poison map[VertexID]bool
}

func (p bcastProgram) Init(ctx *Context[prVal, keyMsg]) { p.send(ctx) }

func (p bcastProgram) Compute(ctx *Context[prVal, keyMsg], msgs []keyMsg) {
	for _, m := range msgs {
		ctx.Value().Rank += m.Val
	}
	if ctx.Superstep() < p.rounds {
		p.send(ctx)
	} else {
		ctx.VoteToHalt()
	}
}

func (p bcastProgram) send(ctx *Context[prVal, keyMsg]) {
	u, step := float64(ctx.ID()), float64(ctx.Superstep())
	base := ctx.Value().Rank
	out := keyMsg{Key: 0, Val: math.Sin(u+7*step) + base}
	in := keyMsg{Key: 1, Val: math.Cos(3*u+step) / 7}
	pass := keyMsg{Key: NoKey, Val: math.Sqrt(u + step + 2)}
	next := VertexID((int(ctx.ID()) + 1) % ctx.NumVertices())
	if p.fused {
		ctx.BroadcastOut(out)
		if p.poison[ctx.ID()] && ctx.Superstep() == 0 {
			panic("poisoned broadcaster")
		}
		ctx.Send(next, keyMsg{Key: 0, Val: base + 1})
		ctx.BroadcastIn(in)
		ctx.BroadcastOut(pass)
		return
	}
	for it := ctx.OutArcs(); it.Next(); {
		ctx.Send(it.To(), out)
	}
	if p.poison[ctx.ID()] && ctx.Superstep() == 0 {
		panic("poisoned broadcaster")
	}
	ctx.Send(next, keyMsg{Key: 0, Val: base + 1})
	for it := ctx.InArcs(); it.Next(); {
		ctx.Send(it.To(), in)
	}
	for it := ctx.OutArcs(); it.Next(); {
		ctx.Send(it.To(), pass)
	}
}

// envelope is one outbox entry, payload compared by its bits.
type envelope struct {
	to   VertexID
	key  uint32
	bits uint64
}

// outboxTrace records every worker's outboxes at every superstep barrier:
// trace[step][w][d] lists worker w's envelopes to worker d.
type outboxTrace [][][][]envelope

// runBcast runs bcastProgram and returns its outbox trace and statistics
// with the wall-clock durations zeroed.
func runBcast(t *testing.T, g *graph.Graph, opts Options, comb Combiner[keyMsg], p bcastProgram) (outboxTrace, *Stats) {
	t.Helper()
	e := New[prVal, keyMsg](g, opts)
	if comb != nil {
		e.SetCombiner(comb)
	}
	var trace outboxTrace
	e.SetMasterHook(func(*MasterContext) {
		step := make([][][]envelope, len(e.workers))
		for w, wk := range e.workers {
			step[w] = make([][]envelope, len(wk.outTo))
			for d := range wk.outTo {
				for j, to := range wk.outTo[d] {
					m := wk.outMsg[d][j]
					step[w][d] = append(step[w][d], envelope{to, m.Key, math.Float64bits(m.Val)})
				}
			}
		}
		trace = append(trace, step)
	})
	st, err := e.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	st.Duration = 0
	for i := range st.Steps {
		st.Steps[i].Duration = 0
	}
	return trace, st
}

// Property: BroadcastOut/BroadcastIn fill the outboxes exactly as a Send
// per arc does — the same envelopes in the same order with the same bits —
// and count the same statistics, for no, plain and keyed combiners (NoKey
// messages included), both partitions, 1–7 workers, flat and compact
// graphs, with and without a quarantined broadcaster.
func TestBroadcastMatchesSendLoopProperty(t *testing.T) {
	flat := graph.RMAT(7, 6, 0.57, 0.19, 0.19, true, 11)
	flat.BuildReverse()
	compact, err := graph.Compact(flat)
	if err != nil {
		t.Fatal(err)
	}
	compact.BuildReverse()
	combiners := map[string]Combiner[keyMsg]{
		"none":  nil,
		"plain": CombinerFunc[keyMsg](keyComb{}.Combine),
		"keyed": keyComb{},
	}
	for _, gname := range []string{"flat", "compact"} {
		g := flat
		if gname == "compact" {
			g = compact
		}
		for _, cname := range []string{"none", "plain", "keyed"} {
			for _, part := range []Partition{PartitionBlock, PartitionHash} {
				for workers := 1; workers <= 7; workers++ {
					for _, quarantine := range []bool{false, true} {
						name := fmt.Sprintf("%s/%s/part=%d/w=%d/quarantine=%v", gname, cname, part, workers, quarantine)
						t.Run(name, func(t *testing.T) {
							opts := Options{Workers: workers, Partition: part, Quarantine: quarantine}
							p := bcastProgram{rounds: 4}
							if quarantine {
								p.poison = map[VertexID]bool{5: true, 17: true, 64: true}
							}
							ref := p
							p.fused = true
							gotTrace, gotStats := runBcast(t, g, opts, combiners[cname], p)
							wantTrace, wantStats := runBcast(t, g, opts, combiners[cname], ref)
							if !reflect.DeepEqual(gotStats, wantStats) {
								t.Fatalf("stats differ:\n broadcast %+v\n send loop %+v", gotStats, wantStats)
							}
							if !reflect.DeepEqual(gotTrace, wantTrace) {
								t.Fatal("outboxes differ between broadcast and send loop")
							}
							if quarantine && gotStats.Quarantined != 3 {
								t.Fatalf("quarantined %d vertices, want 3", gotStats.Quarantined)
							}
						})
					}
				}
			}
		}
	}
}

// bcastRollbackProgram broadcasts from A, B and C (in that order on one
// worker) over arcs A→{X,Y}, B→{X,Y,Z}, C→{X,Y,Z}. B's broadcast folds
// into the envelopes A opened for X and Y and opens Z's, then B panics.
type bcastRollbackProgram struct{ inboxProgram }

const bbA, bbB, bbC, bbX, bbY, bbZ VertexID = 0, 1, 2, 3, 4, 5

func (bcastRollbackProgram) Init(ctx *Context[inboxVal, keyMsg]) {
	switch ctx.ID() {
	case bbA:
		ctx.BroadcastOut(keyMsg{Val: rbPayloadA})
	case bbB:
		// 0.1 + 1e17 − 1e17 is 0, not 0.1: only restoring A's payloads
		// bitwise leaves X and Y with exactly 0.1 + 0.2.
		ctx.BroadcastOut(keyMsg{Val: 1e17})
		panic("poisoned broadcaster")
	case bbC:
		ctx.BroadcastOut(keyMsg{Val: rbPayloadC})
	}
	ctx.VoteToHalt()
}

// A quarantined broadcaster's folds into older envelopes are undone
// bitwise and the envelope it opened is retired, exactly as for Send.
func TestQuarantineRollsBackBroadcast(t *testing.T) {
	b := graph.NewBuilder(6, true)
	for _, a := range [][2]VertexID{{bbA, bbX}, {bbA, bbY}, {bbB, bbX}, {bbB, bbY}, {bbB, bbZ}, {bbC, bbX}, {bbC, bbY}, {bbC, bbZ}} {
		b.AddEdge(a[0], a[1])
	}
	g := b.Finalize()
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			e := New[inboxVal, keyMsg](g, Options{Workers: workers, Quarantine: true})
			e.SetCombiner(keyComb{})
			stats, err := e.Run(bcastRollbackProgram{})
			if err != nil {
				t.Fatal(err)
			}
			if stats.Quarantined != 1 || stats.QuarantinedVertices[0] != bbB {
				t.Fatalf("quarantined = %v, want [%d]", stats.QuarantinedVertices, bbB)
			}
			if stats.MessagesSent != 5 || stats.CombinedMessages != 3 {
				t.Fatalf("sent/combined = %d/%d, want 5/3", stats.MessagesSent, stats.CombinedMessages)
			}
			want := rbPayloadA + rbPayloadC
			for _, v := range []VertexID{bbX, bbY} {
				in := e.Value(v).In
				if len(in) != 1 || math.Float64bits(in[0].Val) != math.Float64bits(want) {
					t.Fatalf("vertex %d received %v, want one envelope of %v", v, in, want)
				}
			}
			if z := e.Value(bbZ).In; len(z) != 1 || z[0].Val != rbPayloadC {
				t.Fatalf("Z received %v, want only C's payload", z)
			}
		})
	}
}

// panicComb is a keyed combiner whose Combine or Key panics.
type panicComb struct{ badKey bool }

func (panicComb) Combine(a, b keyMsg) keyMsg { panic("combiner boom") }
func (panicComb) Keys() int                  { return 1 }
func (c panicComb) Key(m keyMsg) uint32 {
	if c.badKey {
		return 7
	}
	return 0
}

// bcastFoldProgram has vertex 0 and then vertex 1 broadcast to vertex 2,
// so vertex 1's broadcast loop folds into vertex 0's envelope.
type bcastFoldProgram struct{ inboxProgram }

func (bcastFoldProgram) Init(ctx *Context[inboxVal, keyMsg]) {
	ctx.BroadcastOut(keyMsg{Val: float64(ctx.ID())})
	ctx.VoteToHalt()
}

// A combiner that panics inside the broadcast loop — in Combine or in
// Key — aborts the run with phase "combine" naming the broadcasting
// vertex, with or without Quarantine.
func TestBroadcastCombinerPanicAborts(t *testing.T) {
	b := graph.NewBuilder(3, true)
	b.AddEdge(0, 2)
	b.AddEdge(1, 2)
	g := b.Finalize()
	for _, tc := range []struct {
		name   string
		comb   panicComb
		vertex VertexID
	}{
		{"combine", panicComb{}, 1},
		{"key", panicComb{badKey: true}, 0},
	} {
		for _, quarantine := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/quarantine=%v", tc.name, quarantine), func(t *testing.T) {
				withGoroutineCheck(t, func() {
					e := New[inboxVal, keyMsg](g, Options{Workers: 1, Quarantine: quarantine})
					e.SetCombiner(tc.comb)
					_, err := e.Run(bcastFoldProgram{})
					var re *RunError
					if !errors.As(err, &re) {
						t.Fatalf("err = %v, want *RunError", err)
					}
					if re.Phase != "combine" || !re.HasVertex || re.Vertex != tc.vertex || re.Superstep != 0 {
						t.Fatalf("RunError = phase %q vertex %d (has %v) superstep %d, want combine at vertex %d, superstep 0",
							re.Phase, re.Vertex, re.HasVertex, re.Superstep, tc.vertex)
					}
				})
			})
		}
	}
}
