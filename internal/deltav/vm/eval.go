package vm

import (
	"slices"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pregel"
)

// evaluator is the runtime state compiled ΔV code (see compile.go) reads
// and writes for one vertex at a time. All values are float64-encoded:
// bools are 0/1 and ints are integral floats (exact up to 2^53).
//
// Compiled closures take the evaluator by pointer, so it lives on the
// heap; building one per vertex call would allocate per vertex. A run
// keeps one per engine worker instead (runner.evs, indexed by
// pregel.Context.Worker) and rebinds it to each vertex with begin.
type evaluator[S Slots] struct {
	m     *Machine
	code  *code[S]
	state []float64 // m.state
	ctx   *pregel.Context[VState, Msg[S]]
	u     graph.VertexID
	base  int

	lets []float64
	msgs []Msg[S]
	cur  int // index in msgs of the message a MsgLoop body reads
	iter int
	// fixpoint is the until{} fixpoint predicate (master evaluator only).
	fixpoint bool

	curWeight float64
	curDest   graph.VertexID

	// degOverride, when non-nil, substitutes the vertex's degrees during
	// Cardinality evaluation. The repair planner uses it to evaluate
	// pre-mutation contributions against the mutated graph's CSR.
	degOverride *vertexDegrees

	changed bool
}

// vertexDegrees is an explicit degree pair for degOverride.
type vertexDegrees struct {
	in, out int
}

// newEvaluator returns an evaluator over m's state running c.
func newEvaluator[S Slots](m *Machine, c *code[S]) *evaluator[S] {
	return &evaluator[S]{m: m, code: c, state: m.state, lets: make([]float64, m.prog.MaxLetDepth), cur: -1}
}

// begin binds the evaluator to vertex u for one Init or Compute call.
func (ev *evaluator[S]) begin(ctx *pregel.Context[VState, Msg[S]], u graph.VertexID, msgs []Msg[S], iter int) {
	ev.ctx, ev.u, ev.base = ctx, u, int(u)*ev.m.stride
	ev.msgs, ev.iter, ev.changed = msgs, iter, false
}

// buildMsg assembles a message from a compiled Send; the second result is
// false when every slot is a no-op Δ (the message would not be
// meaningful).
func (ev *evaluator[S]) buildMsg(sc *sendCode[S]) (Msg[S], bool) {
	msg := Msg[S]{MsgHeader: sc.hdr, Sender: ev.u}
	noop := true
	for i, p := range sc.payload {
		val, isNull, prevNull, slotNoop := p(ev)
		msg.Vals[i] = val
		if isNull {
			msg.TagNull |= 1 << i
		}
		if prevNull {
			msg.TagPrev |= 1 << i
		}
		if !slotNoop {
			noop = false
		}
	}
	return msg, !noop
}

// broadcast sends msg over every edge of the push direction through the
// engine's one broadcast path.
func (ev *evaluator[S]) broadcast(in bool, msg Msg[S]) {
	if in {
		ev.ctx.BroadcastIn(msg)
	} else {
		ev.ctx.BroadcastOut(msg)
	}
}

// primeSends implements the initial full-value send of §6.1 ("at the first
// superstep send the data from the neighbors' perspective") for every send
// group of a phase, records the sent values as the most-recently-sent
// state, and clears the dirty bits.
func (ev *evaluator[S]) primeSends(phase int) {
	for _, gid := range ev.m.prog.Phases[phase].Groups {
		ev.primeGroup(&ev.code.groups[gid])
	}
}

func (ev *evaluator[S]) primeGroup(gc *groupCode[S]) {
	if gc.broadcast {
		// Edge-independent payload: build once, broadcast (Eq. 7 lift).
		if msg, ok := ev.fullMsg(gc, 1); ok {
			ev.broadcast(gc.in, msg)
		}
	} else {
		it := pushArcs(ev.m.g, gc.in, ev.u)
		for it.Next() {
			if msg, ok := ev.fullMsg(gc, it.Weight()); ok {
				ev.ctx.Send(it.To(), msg)
			}
		}
	}
	ev.recordPrimed(gc)
}

// fullMsg builds a group's full-value message for an edge of weight w; the
// second result is false when the message cannot affect any accumulator.
func (ev *evaluator[S]) fullMsg(gc *groupCode[S], w float64) (Msg[S], bool) {
	msg := Msg[S]{MsgHeader: gc.hdr, Sender: ev.u}
	noop := true
	for i := range gc.sites {
		s := &gc.sites[i]
		ev.curWeight = w
		v := s.slot(ev)
		msg.Vals[i] = v
		if s.mult && v == s.absorbing {
			msg.TagNull |= 1 << i
			noop = false
			continue
		}
		if v != s.id {
			noop = false
		}
	}
	// An all-identity message cannot affect any accumulator; receivers'
	// caches already agree (Def. 1's initial coherence), so it is never
	// meaningful — except to a lookup table, which records every sender.
	return msg, !noop || gc.table
}

// recordPrimed records what receivers now believe after a group's prime
// (§6.2) and resets its dirty bit.
func (ev *evaluator[S]) recordPrimed(gc *groupCode[S]) {
	state, base := ev.state, ev.base
	if gc.dirty >= 0 {
		state[base+gc.dirty] = 0
	}
	for i := range gc.sites {
		s := &gc.sites[i]
		for j, fslot := range s.Fields {
			if s.OldSlots != nil {
				state[base+s.OldSlots[j]] = state[base+fslot]
			}
		}
		if s.LastNNSlot >= 0 {
			ev.curWeight = 1
			if v := s.slot(ev); v != 0 {
				state[base+s.LastNNSlot] = v
			}
		}
	}
}

// tableUpdate implements the §4.2.1 receive path: record each sender's
// latest contribution in the per-neighbour lookup tables of the group's
// sites. A sender with parallel edges to this vertex sends one message per
// edge in the same superstep; those are merged with the site's ⊞, which is
// exactly the sender's total contribution for any commutative-associative
// operator. A fresh superstep's value replaces the cached one (the cache
// update of Fig. 2b).
func (ev *evaluator[S]) tableUpdate(group int) {
	g := ev.m.prog.Groups[group]
	var replaced map[graph.VertexID]bool
	for _, sid := range g.Sites {
		s := ev.m.prog.Sites[sid]
		slotIdx := s.SlotInGroup
		if replaced == nil {
			replaced = make(map[graph.VertexID]bool, 4)
		} else {
			clear(replaced)
		}
		tbl := ev.m.tables[sid][ev.u]
		for i := range ev.msgs {
			msg := &ev.msgs[i]
			if int(msg.Group) != group {
				continue
			}
			if tbl == nil {
				tbl = make(map[graph.VertexID]float64, 4)
				ev.m.tables[sid][ev.u] = tbl
			}
			if replaced[msg.Sender] {
				tbl[msg.Sender] = core.Apply(s.Op, tbl[msg.Sender], msg.Vals[slotIdx])
			} else {
				tbl[msg.Sender] = msg.Vals[slotIdx]
				replaced[msg.Sender] = true
			}
		}
	}
}

// tableFold implements the §4.2.1 aggregation path: refold the entire
// lookup table (the cost the paper calls out as making this approach
// impractical). The fold runs in ascending sender order — never map
// iteration order — so non-associative float accumulation yields the same
// bits on every run and memo-table results stay comparable bitwise against
// the other modes' deterministic schedules.
func (ev *evaluator[S]) tableFold(site int) float64 {
	s := ev.m.prog.Sites[site]
	tbl := ev.m.tables[site][ev.u]
	keys := make([]graph.VertexID, 0, len(tbl))
	for sender := range tbl { //lint:allow maprange — senders sorted below before folding
		keys = append(keys, sender)
	}
	slices.Sort(keys)
	acc := core.Identity(s.Op)
	for _, sender := range keys {
		acc = core.Apply(s.Op, acc, tbl[sender])
	}
	return acc
}
