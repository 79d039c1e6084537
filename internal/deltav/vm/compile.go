package vm

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/deltav/ast"
	"repro/internal/deltav/types"
	"repro/internal/graph"
)

// expr is a resolved ΔV expression compiled to a closure: it returns the
// expression's float64-encoded value for the evaluator's current vertex
// (0 for unit-typed statements). Everything that depends only on the
// program — operators, field kinds and slots, a site's slot in its group,
// the $old redirect of Δ synthesis, whether a loop is a broadcast — is
// decided when the closure is built, so a vertex call does no AST
// dispatch at all.
type expr[S Slots] func(ev *evaluator[S]) float64

// slotFn is one compiled message-slot payload: the slot's value, its
// §6.4.1 nullary/previous-nullary tags, and whether it is a no-op Δ.
type slotFn[S Slots] func(ev *evaluator[S]) (val float64, tagNull, tagPrev, noop bool)

// sendCode is a compiled Send: the message header and one payload per
// slot.
type sendCode[S Slots] struct {
	hdr     MsgHeader
	payload []slotFn[S]
}

// primeSite is one site of a compiled prime send: the site, its compiled
// slot expression, and its operator's identity and (for §6.4.1 nullary
// tracking) absorbing element.
type primeSite[S Slots] struct {
	*core.AggSite
	slot          expr[S]
	mult          bool
	id, absorbing float64
}

// groupCode is a send group's compiled prime (§6.1 full-value send).
type groupCode[S Slots] struct {
	hdr       MsgHeader
	in        bool // pushes over in-adjacency
	broadcast bool // no slot reads the edge weight: one message for all edges
	table     bool // StrategyTable: all-identity messages are still sent
	dirty     int  // $dirty slot, -1 when absent
	sites     []primeSite[S]
}

// code is a core.Program compiled at message width S. It is built once
// per run, before the engine starts.
type code[S Slots] struct {
	init   expr[S]
	bodies []expr[S] // per phase
	// slot[site] is the site's slot expression; slotOld[site] the same
	// expression reading the site's $old fields (slot[site] itself for
	// sites without them). The repair planner evaluates both.
	slot, slotOld []expr[S]
	groups        []groupCode[S]
	defaults      []float64 // per layout field, see Machine.fieldDefault
}

// compileError is what the compiler panics with on a malformed program;
// compileCode and compileUntil recover it into an error.
type compileError string

// compiler builds closures for one Machine. redirect, when non-nil, maps
// every layout slot to the slot a Field read compiles to: a site's $old
// table, for the old side of Δ synthesis (Eq. 11).
type compiler[S Slots] struct {
	m        *Machine
	redirect []int
}

// recoverCompile turns a compileError panic into *err.
func recoverCompile(err *error) {
	if r := recover(); r != nil {
		ce, ok := r.(compileError)
		if !ok {
			panic(r)
		}
		*err = fmt.Errorf("vm: %s", string(ce))
	}
}

// compileCode compiles the vertex side of m's program at width S.
func compileCode[S Slots](m *Machine) (out *code[S], err error) {
	defer recoverCompile(&err)
	p := m.prog
	c := &compiler[S]{m: m}
	out = &code[S]{
		init:     c.expr(p.Init),
		bodies:   make([]expr[S], len(p.Phases)),
		slot:     make([]expr[S], len(p.Sites)),
		slotOld:  make([]expr[S], len(p.Sites)),
		groups:   make([]groupCode[S], len(p.Groups)),
		defaults: make([]float64, len(p.Layout.Fields)),
	}
	for i := range p.Phases {
		out.bodies[i] = c.expr(p.Phases[i].Body)
	}
	for _, s := range p.Sites {
		out.slot[s.ID] = c.expr(s.SlotExpr)
		out.slotOld[s.ID] = c.old(s).expr(s.SlotExpr)
	}
	for _, g := range p.Groups {
		gc := groupCode[S]{
			hdr:       MsgHeader{Group: uint8(g.ID), NVals: uint8(len(g.Sites))},
			in:        g.PushDir == ast.DirIn,
			broadcast: !m.usesWeight[g.ID],
			table:     g.Strategy == core.StrategyTable,
			dirty:     g.DirtySlot,
		}
		for _, s := range m.groupSites[g.ID] {
			ps := primeSite[S]{AggSite: s, slot: out.slot[s.ID], mult: s.Multiplicative(), id: core.Identity(s.Op)}
			if ps.mult {
				ps.absorbing, _ = core.Absorbing(s.Op)
			}
			gc.sites = append(gc.sites, ps)
		}
		out.groups[g.ID] = gc
	}
	for i, f := range p.Layout.Fields {
		out.defaults[i] = m.fieldDefault(f)
	}
	return out, nil
}

// compileUntil compiles every phase's until{} condition (nil for phases
// without one) for the master's evaluator.
func compileUntil(m *Machine) (out []expr[[1]float64], err error) {
	defer recoverCompile(&err)
	c := &compiler[[1]float64]{m: m}
	out = make([]expr[[1]float64], len(m.prog.Phases))
	for i, ph := range m.prog.Phases {
		if ph.Until != nil {
			out[i] = c.expr(ph.Until)
		}
	}
	return out, nil
}

// old returns the compiler that reads s's $old fields in place of the
// fields themselves (the compiler itself for sites without them).
func (c *compiler[S]) old(s *core.AggSite) *compiler[S] {
	if s.OldSlots == nil {
		return c
	}
	r := make([]int, c.m.stride)
	for slot := range r {
		r[slot] = slot
	}
	for i, f := range s.Fields {
		r[f] = s.OldSlots[i]
	}
	return &compiler[S]{m: c.m, redirect: r}
}

func constant[S Slots](v float64) expr[S] {
	return func(*evaluator[S]) float64 { return v }
}

// expr compiles e.
func (c *compiler[S]) expr(e ast.Expr) expr[S] {
	m := c.m
	switch n := e.(type) {
	case *ast.IntLit:
		return constant[S](float64(n.Val))
	case *ast.FloatLit:
		return constant[S](n.Val)
	case *ast.BoolLit:
		return constant[S](boolTo01(n.Val))
	case *ast.Infty:
		return constant[S](math.Inf(1))
	case *ast.GraphSize:
		return constant[S](float64(m.g.NumVertices()))
	case *ast.VertexID:
		return func(ev *evaluator[S]) float64 { return float64(ev.u) }
	case *ast.EdgeWeight:
		return func(ev *evaluator[S]) float64 { return ev.curWeight }
	case *ast.FixpointRef:
		return func(ev *evaluator[S]) float64 { return boolTo01(ev.fixpoint) }
	case *ast.Var:
		slot := n.Slot
		switch {
		case slot >= 0:
			return func(ev *evaluator[S]) float64 { return ev.lets[slot] }
		case slot == core.IterVarSlot:
			return func(ev *evaluator[S]) float64 { return float64(ev.iter) }
		default:
			return constant[S](m.params[core.ParamIndex(slot)])
		}
	case *ast.Field:
		slot := n.Slot
		if c.redirect != nil {
			slot = c.redirect[slot]
		}
		return func(ev *evaluator[S]) float64 { return ev.state[ev.base+slot] }
	case *ast.OldField:
		slot := n.Slot
		return func(ev *evaluator[S]) float64 { return ev.state[ev.base+slot] }
	case *ast.Changed:
		cur, old := n.Slot, n.OldSlot
		if eps := m.prog.Opts.Epsilon; eps > 0 && m.prog.Layout.Fields[cur].Type == types.Float {
			return func(ev *evaluator[S]) float64 {
				return boolTo01(math.Abs(ev.state[ev.base+cur]-ev.state[ev.base+old]) > eps)
			}
		}
		return func(ev *evaluator[S]) float64 {
			return boolTo01(ev.state[ev.base+cur] != ev.state[ev.base+old])
		}
	case *ast.Unary:
		x := c.expr(n.X)
		if n.Op == "not" {
			return func(ev *evaluator[S]) float64 { return boolTo01(x(ev) == 0) }
		}
		return func(ev *evaluator[S]) float64 { return -x(ev) }
	case *ast.Binary:
		return c.binary(n)
	case *ast.MinMax:
		a, b := c.expr(n.A), c.expr(n.B)
		if n.IsMax {
			return func(ev *evaluator[S]) float64 { return math.Max(a(ev), b(ev)) }
		}
		return func(ev *evaluator[S]) float64 { return math.Min(a(ev), b(ev)) }
	case *ast.If:
		cond, then := c.expr(n.Cond), c.expr(n.Then)
		if n.Else == nil {
			return func(ev *evaluator[S]) float64 {
				if cond(ev) != 0 {
					return then(ev)
				}
				return 0
			}
		}
		els := c.expr(n.Else)
		return func(ev *evaluator[S]) float64 {
			if cond(ev) != 0 {
				return then(ev)
			}
			return els(ev)
		}
	case *ast.Let:
		slot, init, body := n.Slot, c.expr(n.Init), c.expr(n.Body)
		return func(ev *evaluator[S]) float64 {
			ev.lets[slot] = init(ev)
			return body(ev)
		}
	case *ast.Local:
		slot, init := n.Slot, c.expr(n.Init)
		return func(ev *evaluator[S]) float64 {
			ev.state[ev.base+slot] = init(ev)
			return 0
		}
	case *ast.Assign:
		slot, val := n.Slot, c.expr(n.Value)
		switch {
		case !n.IsField:
			return func(ev *evaluator[S]) float64 {
				ev.lets[slot] = val(ev)
				return 0
			}
		case m.prog.Layout.Fields[slot].Kind == core.UserField:
			// Only a user field's change feeds the fixpoint aggregator.
			return func(ev *evaluator[S]) float64 {
				v := val(ev)
				idx := ev.base + slot
				if ev.state[idx] != v {
					ev.changed = true
				}
				ev.state[idx] = v
				return 0
			}
		default:
			return func(ev *evaluator[S]) float64 {
				ev.state[ev.base+slot] = val(ev)
				return 0
			}
		}
	case *ast.Seq:
		items := make([]expr[S], len(n.Items))
		for i, it := range n.Items {
			items[i] = c.expr(it)
		}
		switch len(items) {
		case 0:
			return constant[S](0)
		case 1:
			return items[0]
		}
		return func(ev *evaluator[S]) float64 {
			var v float64
			for _, it := range items {
				v = it(ev)
			}
			return v
		}
	case *ast.Cardinality:
		g := m.g
		if n.G == ast.DirIn {
			return func(ev *evaluator[S]) float64 {
				if d := ev.degOverride; d != nil {
					return float64(d.in)
				}
				return float64(g.InDegree(ev.u))
			}
		}
		// DirOut, and DirNeighbors on an undirected graph.
		return func(ev *evaluator[S]) float64 {
			if d := ev.degOverride; d != nil {
				return float64(d.out)
			}
			return float64(g.OutDegree(ev.u))
		}
	case *ast.ForNeighbors:
		return c.forNeighbors(n)
	case *ast.Send:
		sc := c.send(n)
		return func(ev *evaluator[S]) float64 {
			if msg, ok := ev.buildMsg(sc); ok {
				ev.ctx.Send(ev.curDest, msg)
			}
			return 0
		}
	case *ast.MsgLoop:
		group, body := uint8(n.Group), c.expr(n.Body)
		return func(ev *evaluator[S]) float64 {
			for i := range ev.msgs {
				if ev.msgs[i].Group != group {
					continue
				}
				ev.cur = i
				body(ev)
			}
			ev.cur = -1
			return 0
		}
	case *ast.MsgSlot:
		k := m.prog.Sites[n.Site].SlotInGroup
		return func(ev *evaluator[S]) float64 { return ev.msgs[ev.cur].Vals[k] }
	case *ast.MsgIsNull:
		bit := uint8(1) << m.prog.Sites[n.Site].SlotInGroup
		return func(ev *evaluator[S]) float64 { return boolTo01(ev.msgs[ev.cur].TagNull&bit != 0) }
	case *ast.MsgPrevNull:
		bit := uint8(1) << m.prog.Sites[n.Site].SlotInGroup
		return func(ev *evaluator[S]) float64 { return boolTo01(ev.msgs[ev.cur].TagPrev&bit != 0) }
	case *ast.TableUpdate:
		group := n.Group
		return func(ev *evaluator[S]) float64 {
			ev.tableUpdate(group)
			return 0
		}
	case *ast.TableFold:
		site := n.Site
		return func(ev *evaluator[S]) float64 { return ev.tableFold(site) }
	case *ast.Halt:
		return func(ev *evaluator[S]) float64 {
			ev.ctx.VoteToHalt()
			return 0
		}
	case *ast.Delta:
		panic(compileError("Delta outside a send payload"))
	}
	panic(compileError(fmt.Sprintf("no compiled form for %T", e)))
}

// binary compiles a Binary node to one closure per operator.
func (c *compiler[S]) binary(n *ast.Binary) expr[S] {
	l, r := c.expr(n.L), c.expr(n.R)
	switch n.Op {
	case "&&":
		return func(ev *evaluator[S]) float64 {
			if l(ev) == 0 {
				return 0
			}
			return boolTo01(r(ev) != 0)
		}
	case "||":
		return func(ev *evaluator[S]) float64 {
			if l(ev) != 0 {
				return 1
			}
			return boolTo01(r(ev) != 0)
		}
	case "+":
		return func(ev *evaluator[S]) float64 { return l(ev) + r(ev) }
	case "-":
		return func(ev *evaluator[S]) float64 { return l(ev) - r(ev) }
	case "*":
		return func(ev *evaluator[S]) float64 { return l(ev) * r(ev) }
	case "/":
		return func(ev *evaluator[S]) float64 { return l(ev) / r(ev) }
	case "<":
		return func(ev *evaluator[S]) float64 { return boolTo01(l(ev) < r(ev)) }
	case ">":
		return func(ev *evaluator[S]) float64 { return boolTo01(l(ev) > r(ev)) }
	case "<=":
		return func(ev *evaluator[S]) float64 { return boolTo01(l(ev) <= r(ev)) }
	case ">=":
		return func(ev *evaluator[S]) float64 { return boolTo01(l(ev) >= r(ev)) }
	case "==":
		return func(ev *evaluator[S]) float64 { return boolTo01(l(ev) == r(ev)) }
	case "!=":
		return func(ev *evaluator[S]) float64 { return boolTo01(l(ev) != r(ev)) }
	}
	panic(compileError(fmt.Sprintf("unknown operator %q", n.Op)))
}

// forNeighbors compiles a push loop. When the body is a send whose payload
// does not read the edge weight, the message is the same on every edge:
// it is built once and handed to the engine's broadcast (the runtime side
// of the Eq. 7 lift). Otherwise the body runs once per edge.
func (c *compiler[S]) forNeighbors(n *ast.ForNeighbors) expr[S] {
	in := n.G == ast.DirIn
	if send, ok := n.Body.(*ast.Send); ok && !c.m.usesWeight[send.Group] {
		sc := c.send(send)
		return func(ev *evaluator[S]) float64 {
			ev.curWeight = 1
			if msg, ok := ev.buildMsg(sc); ok {
				ev.broadcast(in, msg)
			}
			return 0
		}
	}
	body, g := c.expr(n.Body), c.m.g
	return func(ev *evaluator[S]) float64 {
		it := pushArcs(g, in, ev.u)
		for it.Next() {
			ev.curDest, ev.curWeight = it.To(), it.Weight()
			body(ev)
		}
		return 0
	}
}

// send compiles a Send node's header and payload.
func (c *compiler[S]) send(n *ast.Send) *sendCode[S] {
	sc := &sendCode[S]{hdr: MsgHeader{Group: uint8(n.Group), NVals: uint8(len(n.Payload))}}
	for _, p := range n.Payload {
		if d, ok := p.(*ast.Delta); ok {
			sc.payload = append(sc.payload, c.delta(d))
			continue
		}
		x := c.expr(p)
		sc.payload = append(sc.payload, func(ev *evaluator[S]) (float64, bool, bool, bool) {
			return x(ev), false, false, false
		})
	}
	return sc
}

// delta compiles the Δ-message synthesis of one slot (P5, Eq. 11): the
// value v such that acc ⊞ new ≃ (acc ⊞ old) ⊞ v, with the §6.4.1 nullary
// tags for multiplicative operators. The old value is the same aggregand
// compiled against the site's $old fields.
func (c *compiler[S]) delta(d *ast.Delta) slotFn[S] {
	s := c.m.prog.Sites[d.Site]
	newV, oldV := c.expr(d.X), c.old(s).expr(d.X)
	id := core.Identity(s.Op)
	switch s.Op {
	case ast.AggSum:
		return func(ev *evaluator[S]) (float64, bool, bool, bool) {
			n, o := newV(ev), oldV(ev)
			if n == o {
				return id, false, false, true
			}
			return n - o, false, false, false
		}
	case ast.AggMin, ast.AggMax:
		isMin := s.Op == ast.AggMin
		return func(ev *evaluator[S]) (float64, bool, bool, bool) {
			n, o := newV(ev), oldV(ev)
			if n == o {
				return id, false, false, true
			}
			if (isMin && n > o) || (!isMin && n < o) {
				ev.m.nonMonotone.Add(1)
			}
			return n, false, false, false
		}
	case ast.AggProd:
		lastNN := s.LastNNSlot
		return func(ev *evaluator[S]) (float64, bool, bool, bool) {
			n, o := newV(ev), oldV(ev)
			switch {
			case n == o:
				return id, false, false, true
			case n == 0:
				return 0, true, false, false
			case o == 0:
				return n / ev.state[ev.base+lastNN], false, true, false
			default:
				return n / o, false, false, false
			}
		}
	case ast.AggAnd, ast.AggOr:
		abs, _ := core.Absorbing(s.Op)
		return func(ev *evaluator[S]) (float64, bool, bool, bool) {
			n, o := newV(ev), oldV(ev)
			if n == o {
				return id, false, false, true
			}
			if n == abs {
				return n, true, false, false
			}
			// n is the identity and o was absorbing.
			return n, false, true, false
		}
	}
	panic(compileError(fmt.Sprintf("delta for unknown operator %s", s.Op)))
}

// pushArcs returns the cursor over u's sender-perspective edges of a push
// direction: in-edges when in, out-edges (neighbours) otherwise.
func pushArcs(g *graph.Graph, in bool, u graph.VertexID) graph.ArcIter {
	if in {
		return g.InArcs(u)
	}
	return g.OutArcs(u)
}
