package pregel

import (
	"testing"

	"repro/internal/graph"
)

// TestVertexDeletionWithZeroOutBroadcast reproduces the paper's §9 vertex
// deletion sketch: a vertex that leaves the computation first broadcasts a
// patch that zeroes out its most recently sent contribution, so receivers'
// memoized sums stay coherent after the deletion.
//
// Topology: leavers {1,2,3} each feed vertex 0, which memoizes the sum of
// contributions via Δ-messages (value 10 each). At superstep 2, vertex 2
// deletes itself: it sends -10 (the zero-out Δ) and removes itself. The
// hub's memoized sum must end at 20, and later messages addressed to the
// removed vertex must be dropped.
func TestVertexDeletionWithZeroOutBroadcast(t *testing.T) {
	b := graph.NewBuilder(4, true)
	b.AddEdge(1, 0)
	b.AddEdge(2, 0)
	b.AddEdge(3, 0)
	g := b.Finalize()

	e := New[delVal, float64](g, Options{Workers: 2})
	if _, err := e.Run(&deletionProgram{}); err != nil {
		t.Fatal(err)
	}
	if got := e.Value(0).Sum; got != 20 {
		t.Fatalf("hub sum after deletion = %g, want 20", got)
	}
	if e.Value(2).Runs != 2 {
		t.Fatalf("deleted vertex ran %d times, want 2", e.Value(2).Runs)
	}
}

type delVal struct {
	Sum  float64
	Runs int
}

type deletionProgram struct{}

func (*deletionProgram) Init(ctx *Context[delVal, float64]) {
	ctx.Value().Runs++
	if ctx.ID() != 0 {
		// Contribute 10 to the hub's memoized sum (the Δ of a fresh value
		// against the empty cache).
		ctx.BroadcastOut(10)
	}
	// Everyone stays active for one more superstep.
}

func (*deletionProgram) Compute(ctx *Context[delVal, float64], msgs []float64) {
	ctx.Value().Runs++
	for _, m := range msgs {
		ctx.Value().Sum += m // memoized aggregation: apply Δ-patches
	}
	if ctx.Superstep() == 1 && ctx.ID() == 2 {
		// §9: "the vertex being deleted first broadcasts a message that
		// zeros out the value of the vertex to its neighbors before the
		// deletion is performed".
		ctx.BroadcastOut(-10)
		ctx.RemoveSelf()
		return
	}
	if ctx.Superstep() == 1 && ctx.ID() == 1 {
		// Prove post-deletion messages to vertex 2 are dropped silently.
		ctx.Send(2, 999)
	}
	ctx.VoteToHalt()
}

// TestKeyedCombinerSeparatesChannels checks that a KeyedCombiner only
// merges same-key messages — the "message channels" behaviour the paper's
// future work points at.
func TestKeyedCombinerSeparatesChannels(t *testing.T) {
	// 8 senders → 1 hub, alternating channels; one worker so that without
	// keys everything would combine into a single envelope.
	b := graph.NewBuilder(9, true)
	for v := 1; v <= 8; v++ {
		b.AddEdge(graph.VertexID(v), 0)
	}
	g := b.Finalize()
	e := New[chanVal, chanMsg](g, Options{Workers: 1})
	e.SetCombiner(chanCombiner{})
	stats, err := e.Run(&chanProgram{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.MessagesSent != 8 {
		t.Fatalf("sent = %d, want 8", stats.MessagesSent)
	}
	// Two channels → exactly two combined envelopes.
	if stats.CombinedMessages != 2 {
		t.Fatalf("combined = %d, want 2 (one per channel)", stats.CombinedMessages)
	}
	v := e.Value(0)
	if v.A != 4 || v.B != 4 {
		t.Fatalf("channel sums = (%g, %g), want (4, 4)", v.A, v.B)
	}
}

type chanVal struct{ A, B float64 }

type chanMsg struct {
	Chan uint32
	Val  float64
}

type chanCombiner struct{}

func (chanCombiner) Combine(a, b chanMsg) chanMsg { a.Val += b.Val; return a }
func (chanCombiner) Keys() int                    { return 2 }
func (chanCombiner) Key(m chanMsg) uint32         { return m.Chan }

type chanProgram struct{}

func (*chanProgram) Init(ctx *Context[chanVal, chanMsg]) {
	if ctx.ID() != 0 {
		ctx.Send(0, chanMsg{Chan: uint32(ctx.ID() % 2), Val: 1})
	}
	ctx.VoteToHalt()
}

func (*chanProgram) Compute(ctx *Context[chanVal, chanMsg], msgs []chanMsg) {
	for _, m := range msgs {
		if m.Chan == 0 {
			ctx.Value().A += m.Val
		} else {
			ctx.Value().B += m.Val
		}
	}
	ctx.VoteToHalt()
}
