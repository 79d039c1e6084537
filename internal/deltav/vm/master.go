package vm

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/deltav/ast"
	"repro/internal/pregel"
)

// masterHook drives the compiled statement state machine: prime → body
// transitions, iteration counting, until{} evaluation with the fixpoint
// aggregator, quiescence fast-forwarding (the halt-by-default runtime of
// §6.6/§9), and final termination.
func (m *Machine) masterHook(mc *pregel.MasterContext) {
	if m.masterErr != nil {
		mc.Stop()
		return
	}
	gl := mc.Globals().(*globals)
	if len(m.prog.Phases) == 0 {
		mc.Stop()
		return
	}
	switch gl.Mode {
	case modePrime:
		// The prime superstep (superstep 0 folds init into it) just
		// finished; every vertex must run the first body superstep, since
		// a body execution can differ from the init{} values even without
		// messages.
		mc.SetGlobals(&globals{Phase: gl.Phase, Mode: modeBody, Iter: 1})
		mc.ActivateAll()
	case modeRepair:
		// The repair frontier has injected its corrections; body supersteps
		// now propagate them outward. Deliberately no ActivateAll: only
		// vertices woken by repair messages (or kept active by the planner)
		// run, which is what makes a small delta cheap. The iteration
		// counter restarts so iteration-bounded until{} conditions grant the
		// repair wave a full budget; quiescence fast-forwarding still ends
		// the phase as soon as the wave dies out.
		mc.SetGlobals(&globals{Phase: gl.Phase, Mode: modeBody, Iter: 1})
	case modeBody:
		ph := &m.prog.Phases[gl.Phase]
		m.iterations[gl.Phase]++
		if ph.Kind == core.PhaseStep {
			m.advance(mc, gl.Phase)
			return
		}
		fix := mc.AggValue(aggUnchanged) != 0
		if m.untilSatisfied(gl.Phase, gl.Iter, fix) {
			m.advance(mc, gl.Phase)
			return
		}
		if gl.Iter >= m.prog.Opts.MaxIterations {
			m.failf(mc, "phase %d: iteration limit %d reached", gl.Phase, m.prog.Opts.MaxIterations)
			return
		}
		quiescent := mc.NextActive() == 0 && mc.Step().CombinedMessages == 0
		if quiescent {
			// No vertex can change any more, so every future body
			// superstep is a no-op; fast-forward the iteration counter to
			// the first satisfying value (with fixpoint = true) instead
			// of spinning. The loop is master-side and can be long (up to
			// MaxIterations evaluations), so it honors the run's context
			// at a coarse stride.
			for k := gl.Iter + 1; k <= m.prog.Opts.MaxIterations; k++ {
				if k%4096 == 0 && m.runCtx != nil && m.runCtx.Err() != nil {
					m.failf(mc, "phase %d: until{} fast-forward aborted: %v", gl.Phase, m.runCtx.Err())
					return
				}
				if m.untilSatisfied(gl.Phase, k, true) {
					m.advance(mc, gl.Phase)
					return
				}
			}
			m.failf(mc, "phase %d: computation quiesced but until{} can never hold", gl.Phase)
			return
		}
		if m.repairBudget > 0 && m.iterations[gl.Phase] >= m.repairBudget {
			// The repair wave is past break-even: each additional superstep
			// costs what a from-scratch superstep costs, and the budget says
			// a rerun is now cheaper. Abort with the sentinel so callers
			// take that fallback.
			m.masterErr = fmt.Errorf("vm: %w: repair ran %d body supersteps without converging (budget %d) — rerun from scratch",
				ErrRepairBudget, m.iterations[gl.Phase], m.repairBudget)
			mc.Stop()
			return
		}
		mc.SetGlobals(&globals{Phase: gl.Phase, Mode: modeBody, Iter: gl.Iter + 1})
		if !ph.Halts {
			// Halt-by-default is off for this phase (scratch groups or an
			// iteration-dependent body): every vertex runs every body
			// superstep, as a hand-written Pregel+ program would.
			mc.ActivateAll()
		}
	}
}

func (m *Machine) failf(mc *pregel.MasterContext, format string, args ...any) {
	m.masterErr = fmt.Errorf("vm: %s", fmt.Sprintf(format, args...))
	mc.Stop()
}

// advance moves the state machine past the given phase.
func (m *Machine) advance(mc *pregel.MasterContext, phase int) {
	next := phase + 1
	if next >= len(m.prog.Phases) {
		mc.Stop()
		return
	}
	if len(m.prog.Phases[next].Groups) > 0 {
		mc.SetGlobals(&globals{Phase: next, Mode: modePrime})
	} else {
		mc.SetGlobals(&globals{Phase: next, Mode: modeBody, Iter: 1})
	}
	mc.ActivateAll()
}

// untilSatisfied evaluates a phase's compiled (master-evaluable) until
// condition: the iteration counter, params, fixpoint, graphSize, literals
// and pure operators (enforced by the type checker).
func (m *Machine) untilSatisfied(phase, iter int, fixpoint bool) bool {
	until := m.until[phase]
	if until == nil {
		return true
	}
	m.master.iter, m.master.fixpoint = iter, fixpoint
	return until(m.master) != 0
}

// combineOps returns the slot operators of the program's sender-side
// combiner (see vmCombiner), or nil when no group is combinable. Messages
// of a combinable group (single-strategy, non-multiplicative slots, no
// sender identity) combine slot-wise with their sites' operators under the
// group's key; all other messages carry pregel.NoKey and pass through
// untouched.
func (m *Machine) combineOps() [][]ast.AggOp {
	ops := make([][]ast.AggOp, len(m.prog.Groups))
	any := false
	for _, g := range m.prog.Groups {
		ok := g.Strategy != core.StrategyTable
		gops := make([]ast.AggOp, len(g.Sites)) // non-nil even with no sites
		for i, s := range m.groupSites[g.ID] {
			if s.Multiplicative() {
				ok = false // nullary tags are not mergeable
			}
			gops[i] = s.Op
		}
		if ok {
			ops[g.ID] = gops
			any = true
		}
	}
	if !any {
		return nil
	}
	return ops
}

// vmCombiner is the VM's pregel.KeyedCombiner: ops[g] lists the ⊞ of each
// slot of send group g, or is nil when g is not combinable.
type vmCombiner[S Slots] struct {
	ops [][]ast.AggOp
}

// Keys implements pregel.KeyedCombiner: one key per send group.
func (c *vmCombiner[S]) Keys() int { return len(c.ops) }

// Key implements pregel.KeyedCombiner: a combinable group's messages share
// the group id; everything else is never combined.
func (c *vmCombiner[S]) Key(msg Msg[S]) uint32 {
	if c.ops[msg.Group] != nil {
		return uint32(msg.Group)
	}
	return pregel.NoKey
}

// Combine merges two same-group messages slot-wise with each slot's ⊞.
func (c *vmCombiner[S]) Combine(a, b Msg[S]) Msg[S] {
	for i, op := range c.ops[a.Group] {
		a.Vals[i] = core.Apply(op, a.Vals[i], b.Vals[i])
	}
	return a
}
