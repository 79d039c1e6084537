package vm

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/deltav/ast"
	"repro/internal/graph"
)

// compileTestSrc has one two-slot send group: site 0 is a memoized product
// (with $nn/$nulls/$lastnn) over field a, site 1 a sum over field b.
const compileTestSrc = `
param p : float = 2.5;
init { local a : float = 1.0; local b : float = 2.0 };
iter k {
  let x : float = * [ u.a | u <- #in ] in
  let y : float = + [ u.b | u <- #in ] in
  a = x + y
} until { fixpoint || 1.0 * k >= p }`

// compileTestMachine compiles compileTestSrc into a machine over a small
// directed graph.
func compileTestMachine(t *testing.T, opts core.Options, params map[string]float64) *Machine {
	t.Helper()
	opts.Mode = core.Incremental
	prog, err := core.Compile(compileTestSrc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !(prog.MaxSlotsPerGroup == 2 && prog.Sites[0].Multiplicative() && prog.Sites[1].SlotInGroup == 1) {
		t.Fatalf("test program compiled to an unexpected layout: %d slots per group", prog.MaxSlotsPerGroup)
	}
	g := graph.RMAT(5, 4, 0.57, 0.19, 0.19, true, 3)
	g.BuildReverse() // for the in-degree rows
	m, err := NewMachine(prog, g, RunOptions{Params: params})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCompiledNodes evaluates one compiled closure per AST node kind
// against a hand-set vertex state, checking the value and every side effect
// the node has on the evaluator.
func TestCompiledNodes(t *testing.T) {
	m := compileTestMachine(t, core.Options{}, nil)
	mEps := compileTestMachine(t, core.Options{Epsilon: 0.5}, nil)
	s0, s1 := m.prog.Sites[0], m.prog.Sites[1]
	a, b := s0.Fields[0], s1.Fields[0]
	oldB, acc := s1.OldSlots[0], s1.AccSlot
	const u = graph.VertexID(3)
	base := int(u) * m.stride

	lit := func(v float64) ast.Expr { return &ast.FloatLit{Val: v} }
	field := func(slot int) ast.Expr { return &ast.Field{Slot: slot} }
	// setLet0 assigns let slot 0 and yields true: it shows whether a
	// short-circuited operand ran.
	setLet0 := &ast.Seq{Items: []ast.Expr{
		&ast.Assign{Slot: 0, Value: lit(5)},
		&ast.BoolLit{Val: true},
	}}
	msg := Msg[[MaxSlots]float64]{MsgHeader: MsgHeader{TagNull: 1, TagPrev: 2}, Vals: [MaxSlots]float64{1.5, 42}}

	type evT = evaluator[[MaxSlots]float64]
	cases := []struct {
		name  string
		m     *Machine
		e     ast.Expr
		setup func(ev *evT)
		want  float64
		check func(t *testing.T, ev *evT)
	}{
		{name: "&& short-circuits", e: &ast.Binary{Op: "&&", L: &ast.BoolLit{}, R: setLet0}, want: 0,
			check: func(t *testing.T, ev *evT) { wantVal(t, "let 0", ev.lets[0], 0) }},
		{name: "&& evaluates right", e: &ast.Binary{Op: "&&", L: &ast.BoolLit{Val: true}, R: setLet0}, want: 1,
			check: func(t *testing.T, ev *evT) { wantVal(t, "let 0", ev.lets[0], 5) }},
		{name: "|| short-circuits", e: &ast.Binary{Op: "||", L: &ast.BoolLit{Val: true}, R: setLet0}, want: 1,
			check: func(t *testing.T, ev *evT) { wantVal(t, "let 0", ev.lets[0], 0) }},
		{name: "|| evaluates right", e: &ast.Binary{Op: "||", L: &ast.BoolLit{}, R: setLet0}, want: 1,
			check: func(t *testing.T, ev *evT) { wantVal(t, "let 0", ev.lets[0], 5) }},
		{name: "arithmetic", e: &ast.Binary{Op: "-", L: &ast.Binary{Op: "*", L: lit(3), R: lit(4)}, R: &ast.Binary{Op: "/", L: lit(1), R: lit(4)}}, want: 11.75},
		{name: "comparison", e: &ast.Binary{Op: "<=", L: lit(2), R: lit(2)}, want: 1},
		{name: "not", e: &ast.Unary{Op: "not", X: lit(0)}, want: 1},
		{name: "negate", e: &ast.Unary{Op: "-", X: lit(2)}, want: -2},
		{name: "min", e: &ast.MinMax{A: lit(2), B: lit(-1)}, want: -1},
		{name: "max", e: &ast.MinMax{IsMax: true, A: lit(2), B: lit(-1)}, want: 2},
		{name: "if without else", e: &ast.If{Cond: &ast.BoolLit{}, Then: lit(7)}, want: 0},
		{name: "if else", e: &ast.If{Cond: &ast.BoolLit{}, Then: lit(7), Else: lit(8)}, want: 8},
		{name: "seq yields last", e: &ast.Seq{Items: []ast.Expr{lit(1), lit(2)}}, want: 2},
		{name: "infty", e: &ast.Infty{}, want: math.Inf(1)},
		{name: "graphSize", e: &ast.GraphSize{}, want: float64(m.g.NumVertices())},
		{name: "id", e: &ast.VertexID{}, want: float64(u)},
		{name: "edge weight", e: &ast.EdgeWeight{}, setup: func(ev *evT) { ev.curWeight = 2.25 }, want: 2.25},
		{name: "param", e: &ast.Var{Slot: core.ParamSlot(0)}, want: 2.5},
		{name: "iteration", e: &ast.Var{Slot: core.IterVarSlot}, setup: func(ev *evT) { ev.iter = 6 }, want: 6},
		{name: "field", e: field(b), setup: func(ev *evT) { ev.state[base+b] = 3.5 }, want: 3.5},
		{name: "old field", e: &ast.OldField{Slot: oldB}, setup: func(ev *evT) { ev.state[base+oldB] = 4.5 }, want: 4.5},
		{name: "let", e: &ast.Let{Slot: 1, Init: lit(3), Body: &ast.Binary{Op: "+", L: &ast.Var{Slot: 1}, R: &ast.Var{Slot: 1}}}, want: 6,
			check: func(t *testing.T, ev *evT) { wantVal(t, "let 1", ev.lets[1], 3) }},
		{name: "local", e: &ast.Local{Slot: a, Init: lit(4.5)}, want: 0,
			check: func(t *testing.T, ev *evT) {
				wantVal(t, "a", ev.state[base+a], 4.5)
				wantChanged(t, ev, false)
			}},
		{name: "assign user field changes", e: &ast.Assign{IsField: true, Slot: a, Value: lit(9)},
			setup: func(ev *evT) { ev.state[base+a] = 1 }, want: 0,
			check: func(t *testing.T, ev *evT) {
				wantVal(t, "a", ev.state[base+a], 9)
				wantChanged(t, ev, true)
			}},
		{name: "assign user field same value", e: &ast.Assign{IsField: true, Slot: a, Value: lit(1)},
			setup: func(ev *evT) { ev.state[base+a] = 1 }, want: 0,
			check: func(t *testing.T, ev *evT) { wantChanged(t, ev, false) }},
		{name: "assign synthesized field", e: &ast.Assign{IsField: true, Slot: acc, Value: lit(9)}, want: 0,
			check: func(t *testing.T, ev *evT) {
				wantVal(t, "$acc", ev.state[base+acc], 9)
				wantChanged(t, ev, false)
			}},
		{name: "assign let", e: &ast.Assign{Slot: 0, Value: lit(9)}, want: 0,
			check: func(t *testing.T, ev *evT) {
				wantVal(t, "let 0", ev.lets[0], 9)
				wantChanged(t, ev, false)
			}},
		{name: "changed", e: &ast.Changed{Slot: b, OldSlot: oldB},
			setup: func(ev *evT) { ev.state[base+b], ev.state[base+oldB] = 2, 2.1 }, want: 1},
		{name: "unchanged", e: &ast.Changed{Slot: b, OldSlot: oldB},
			setup: func(ev *evT) { ev.state[base+b], ev.state[base+oldB] = 2, 2 }, want: 0},
		{name: "changed within ε", m: mEps, e: &ast.Changed{Slot: b, OldSlot: oldB},
			setup: func(ev *evT) { ev.state[base+b], ev.state[base+oldB] = 2, 2.1 }, want: 0},
		{name: "changed beyond ε", m: mEps, e: &ast.Changed{Slot: b, OldSlot: oldB},
			setup: func(ev *evT) { ev.state[base+b], ev.state[base+oldB] = 2, 3 }, want: 1},
		{name: "msg slot", e: &ast.MsgSlot{Site: 1}, setup: func(ev *evT) { ev.msgs, ev.cur = []Msg[[MaxSlots]float64]{msg}, 0 }, want: 42},
		{name: "msg is null", e: &ast.MsgIsNull{Site: 0}, setup: func(ev *evT) { ev.msgs, ev.cur = []Msg[[MaxSlots]float64]{msg}, 0 }, want: 1},
		{name: "msg is not null", e: &ast.MsgIsNull{Site: 1}, setup: func(ev *evT) { ev.msgs, ev.cur = []Msg[[MaxSlots]float64]{msg}, 0 }, want: 0},
		{name: "msg prev null", e: &ast.MsgPrevNull{Site: 1}, setup: func(ev *evT) { ev.msgs, ev.cur = []Msg[[MaxSlots]float64]{msg}, 0 }, want: 1},
		{name: "msg not prev null", e: &ast.MsgPrevNull{Site: 0}, setup: func(ev *evT) { ev.msgs, ev.cur = []Msg[[MaxSlots]float64]{msg}, 0 }, want: 0},
		{name: "msg loop", e: &ast.MsgLoop{Group: 0, Body: &ast.Assign{Slot: 0, Value: &ast.Binary{Op: "+", L: &ast.Var{Slot: 0}, R: &ast.MsgSlot{Site: 1}}}},
			setup: func(ev *evT) {
				other := msg
				other.Group = 1
				ev.msgs = []Msg[[MaxSlots]float64]{msg, other, msg}
			}, want: 0,
			check: func(t *testing.T, ev *evT) {
				wantVal(t, "let 0", ev.lets[0], 84)
				wantVal(t, "cur", float64(ev.cur), -1)
			}},
		{name: "in-degree", e: &ast.Cardinality{G: ast.DirIn}, want: float64(m.g.InDegree(u))},
		{name: "out-degree", e: &ast.Cardinality{G: ast.DirOut}, want: float64(m.g.OutDegree(u))},
		{name: "in-degree override", e: &ast.Cardinality{G: ast.DirIn},
			setup: func(ev *evT) { ev.degOverride = &vertexDegrees{in: 7, out: 9} }, want: 7},
		{name: "out-degree override", e: &ast.Cardinality{G: ast.DirOut},
			setup: func(ev *evT) { ev.degOverride = &vertexDegrees{in: 7, out: 9} }, want: 9},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mm := tc.m
			if mm == nil {
				mm = m
			}
			clear(mm.state)
			ev := newEvaluator[[MaxSlots]float64](mm, nil)
			ev.begin(nil, u, nil, 0)
			if tc.setup != nil {
				tc.setup(ev)
			}
			f := (&compiler[[MaxSlots]float64]{m: mm}).expr(tc.e)
			if got := f(ev); math.Float64bits(got) != math.Float64bits(tc.want) {
				t.Fatalf("got %v, want %v", got, tc.want)
			}
			if tc.check != nil {
				tc.check(t, ev)
			}
		})
	}
}

func wantVal(t *testing.T, what string, got, want float64) {
	t.Helper()
	if got != want {
		t.Fatalf("%s = %v, want %v", what, got, want)
	}
}

func wantChanged(t *testing.T, ev *evaluator[[MaxSlots]float64], want bool) {
	t.Helper()
	if ev.changed != want {
		t.Fatalf("changed = %v, want %v", ev.changed, want)
	}
}

// TestCompiledDeltaReadsOld checks Δ synthesis (Eq. 11, §6.4.1) through
// the compiled payloads: the old side reads the site's $old fields through
// the redirect resolved at compile time, and the repair planner's slotOld
// code reads the same.
func TestCompiledDeltaReadsOld(t *testing.T) {
	m := compileTestMachine(t, core.Options{}, nil)
	s0, s1 := m.prog.Sites[0], m.prog.Sites[1]
	a, b := s0.Fields[0], s1.Fields[0]
	oldA, oldB, lastNN := s0.OldSlots[0], s1.OldSlots[0], s0.LastNNSlot
	c := &compiler[[MaxSlots]float64]{m: m}
	send := c.send(&ast.Send{Group: 0, Payload: []ast.Expr{
		&ast.Delta{Site: 0, X: &ast.Field{Slot: a}},
		&ast.Delta{Site: 1, X: &ast.Field{Slot: b}},
	}})
	code, err := compileCode[[MaxSlots]float64](m)
	if err != nil {
		t.Fatal(err)
	}
	const u = graph.VertexID(5)
	base := int(u) * m.stride
	for _, tc := range []struct {
		name                   string
		a, oldA, b, oldB, last float64
		send                   bool
		vals                   [2]float64
		tagNull, tagPrev       uint8
	}{
		{name: "unchanged is a no-op", a: 3, oldA: 3, b: 5, oldB: 5, last: 1, vals: [2]float64{1, 0}},
		{name: "sum sends the difference", a: 3, oldA: 3, b: 5, oldB: 2, last: 1, send: true, vals: [2]float64{1, 3}},
		{name: "product sends the ratio", a: 6, oldA: 3, b: 5, oldB: 5, last: 1, send: true, vals: [2]float64{2, 0}},
		{name: "product turns nullary", a: 0, oldA: 3, b: 5, oldB: 5, last: 1, send: true, vals: [2]float64{0, 0}, tagNull: 1},
		{name: "product leaves nullary", a: 8, oldA: 0, b: 5, oldB: 5, last: 4, send: true, vals: [2]float64{2, 0}, tagPrev: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clear(m.state)
			m.state[base+a], m.state[base+oldA] = tc.a, tc.oldA
			m.state[base+b], m.state[base+oldB] = tc.b, tc.oldB
			m.state[base+lastNN] = tc.last
			ev := newEvaluator(m, code)
			ev.begin(nil, u, nil, 0)
			msg, ok := ev.buildMsg(send)
			if ok != tc.send {
				t.Fatalf("send = %v, want %v", ok, tc.send)
			}
			if msg.Sender != u || msg.Group != 0 || msg.NVals != 2 {
				t.Fatalf("header %+v sender %d, want group 0, 2 values, sender %d", msg.MsgHeader, msg.Sender, u)
			}
			if msg.Vals[0] != tc.vals[0] || msg.Vals[1] != tc.vals[1] || msg.TagNull != tc.tagNull || msg.TagPrev != tc.tagPrev {
				t.Fatalf("message %v null %b prev %b, want %v null %b prev %b",
					msg.Vals[:2], msg.TagNull, msg.TagPrev, tc.vals, tc.tagNull, tc.tagPrev)
			}
			if got := code.slotOld[1](ev); got != tc.oldB {
				t.Fatalf("slotOld[1] = %v, want $old b = %v", got, tc.oldB)
			}
			if got := code.slot[1](ev); got != tc.b {
				t.Fatalf("slot[1] = %v, want b = %v", got, tc.b)
			}
		})
	}
}

// TestCompiledUntil evaluates the compiled until{} condition of
// compileTestSrc, `fixpoint || 1.0 * k >= p`, on the master's evaluator.
func TestCompiledUntil(t *testing.T) {
	for _, tc := range []struct {
		iter     int
		fixpoint bool
		params   map[string]float64
		want     bool
	}{
		{iter: 1, fixpoint: true, want: true},
		{iter: 2, want: false},
		{iter: 3, want: true},
		{iter: 2, params: map[string]float64{"p": 1.5}, want: true},
	} {
		m := compileTestMachine(t, core.Options{}, tc.params)
		if got := m.untilSatisfied(0, tc.iter, tc.fixpoint); got != tc.want {
			t.Errorf("k=%d fixpoint=%v params=%v: got %v, want %v", tc.iter, tc.fixpoint, tc.params, got, tc.want)
		}
	}
}

// TestCompileRejectsMalformed: a Δ outside a send payload is a compile
// error, not a panic at run time.
func TestCompileRejectsMalformed(t *testing.T) {
	m := compileTestMachine(t, core.Options{}, nil)
	m.prog.Init = &ast.Delta{Site: 0, X: &ast.FloatLit{Val: 1}}
	if _, err := compileCode[[1]float64](m); err == nil {
		t.Fatal("compiled a Δ outside a send payload")
	}
}
