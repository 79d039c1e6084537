package pregel

import "fmt"

// MasterWorker is the Worker value of a RunError raised on the master
// goroutine (a panicking master hook or until-loop) rather than in a
// worker's compute/exchange phase.
const MasterWorker = -1

// RunError is a panic raised by user code (Program.Init/Compute, a
// Combiner, or a master hook) during a run, recovered at the superstep
// barrier and converted into an error so a panicking vertex program cannot
// crash the process. The engine shuts its worker pool down cleanly and
// returns the RunError together with the statistics accumulated so far.
type RunError struct {
	// Worker is the panicking worker's id, or MasterWorker (-1) for a
	// panic on the master goroutine.
	Worker int
	// Superstep is the superstep during which the panic was raised.
	Superstep int
	// Phase is the phase that panicked: "compute", "combine" (a combiner
	// called from a vertex's Send), "exchange" or "master".
	Phase string
	// Vertex is the vertex whose Init/Compute (or Send, for "combine")
	// raised the panic; only meaningful when HasVertex is true (exchange
	// and master panics are not attributable to a single vertex).
	Vertex    VertexID
	HasVertex bool
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace, captured at the
	// recovery point.
	Stack []byte
}

// Error implements the error interface.
func (e *RunError) Error() string {
	switch {
	case e.Worker == MasterWorker:
		return fmt.Sprintf("pregel: master hook panicked at superstep %d: %v", e.Superstep, e.Value)
	case e.HasVertex:
		return fmt.Sprintf("pregel: worker %d panicked at superstep %d (vertex %d, %s): %v",
			e.Worker, e.Superstep, e.Vertex, e.Phase, e.Value)
	default:
		return fmt.Sprintf("pregel: worker %d panicked at superstep %d (%s): %v",
			e.Worker, e.Superstep, e.Phase, e.Value)
	}
}

// Unwrap exposes the panic value when it is itself an error, so callers can
// errors.Is/As through a contained panic.
func (e *RunError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}
