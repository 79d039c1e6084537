// Package vm executes compiled ΔV programs (core.Program) on the Pregel
// engine. It plays the role of the Pregel+ compute() function the paper's
// compiler emits: the statement list runs as a master-driven state machine,
// each vertex runs the transformed statement bodies (including the
// internal receive loops, change checks, Δ-message sends and halts the
// passes inserted), compiled to closures once per run, and the master
// evaluates until{} conditions with an incrementally maintained fixpoint
// aggregator.
package vm

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pregel"
)

// VState is the engine-side vertex value; the Machine keeps all ΔV vertex
// state in its own flat arrays, so this is empty.
type VState struct{}

// MaxSlots is the widest supported message (aggregation sites per send
// group).
const MaxSlots = 4

// Slots is the type set of message payloads. A program whose send groups
// each have at most one aggregation site (every corpus program) runs on
// [1]float64; a program with a wider group runs on [MaxSlots]float64.
// NewMachine picks the width from core.Program.MaxSlotsPerGroup.
type Slots interface {
	[1]float64 | [MaxSlots]float64
}

// Msg is one ΔV message: the values of a send group's slots, with the
// §6.4.1 nullary/previous-nullary tag bits, and the sender id for the
// §4.2.1 lookup-table mode. It is 16 bytes with one slot and 40 bytes
// with MaxSlots.
type Msg[S Slots] struct {
	MsgHeader
	Sender graph.VertexID
	Vals   S
}

// MsgHeader is a message's group and tag bytes. It is a struct of its own
// so that a single-slot Msg has three fields: the compiler keeps a struct
// of at most four fields in registers, where one of six lives in memory
// and is spilled and reloaded around every combiner call.
type MsgHeader struct {
	Group   uint8
	NVals   uint8
	TagNull uint8 // bit i: slot i carries a nullary value
	TagPrev uint8 // bit i: slot i's previous message was nullary
}

// stepMode is the master state machine's mode.
type stepMode int

const (
	modePrime  stepMode = iota // send full slot values, skip the body
	modeBody                   // run the transformed statement body
	modeRepair                 // emit planned delta-repair sends (RunDelta)
)

// globals is the engine-wide state vertices read; replaced (not mutated)
// by the master between supersteps.
type globals struct {
	Phase int
	Mode  stepMode
	Iter  int // 1-based iteration counter of the current iter phase
}

// RunOptions configure an execution.
type RunOptions struct {
	// Params override program parameter defaults by name.
	Params map[string]float64
	// Workers is the engine worker count (default GOMAXPROCS).
	Workers int
	// Scheduler selects the engine's vertex scheduler.
	Scheduler pregel.Scheduler
	// Partition selects the vertex-to-worker placement.
	Partition pregel.Partition
	// Combine enables sender-side combining of combinable send groups.
	Combine bool
	// MaxSupersteps bounds the engine (default 10h of supersteps: 100k).
	MaxSupersteps int
	// Checkpoint enables barrier snapshots (pregel.CheckpointOptions).
	// The VM owns the snapshot's Extra payload — it stores the machine's
	// flat state, memo tables, and master phase there — so any Extra
	// callback set here is ignored.
	Checkpoint pregel.CheckpointOptions
	// Resume continues from a snapshot taken by a previous run of the
	// same compiled program (same mode) on the same graph. The machine
	// payload and the engine state are both validated before the run
	// continues at the snapshot's superstep + 1.
	Resume *pregel.Snapshot
	// Quarantine contains a panic inside a single vertex's evaluation to
	// that vertex (skip + remove + record in Stats.Quarantined) instead
	// of aborting the run — the resident-server posture. See
	// pregel.Options.Quarantine.
	Quarantine bool
	// Shard places the run in a multi-process sharded mesh (see
	// pregel.ShardOptions). Every shard runs the same compiled program
	// over the same graph with identical options; after a successful run
	// the machine's state rows are all-gathered so Result fields are
	// whole on every shard. Requires PartitionBlock and an explicit
	// Workers value identical on every shard.
	Shard *pregel.ShardOptions
}

// ErrUnknownField is wrapped by the error returned when a field name does
// not exist in the program's layout.
var ErrUnknownField = errors.New("vm: unknown field")

// Result is a finished execution. When a run aborts (cancellation,
// deadline, or a contained panic), RunContext returns a non-nil Result
// holding the partial statistics and field state alongside the error;
// Stats.Aborted records the cause.
type Result struct {
	Stats *pregel.Stats
	// Supersteps per phase body (iterations executed per iter phase).
	Iterations []int
	// NonMonotoneSends counts Δ-messages of idempotent (min/max) sites
	// whose value moved against the operator's direction; non-zero means
	// the memoized accumulators may be stale (see DESIGN.md).
	NonMonotoneSends int64

	machine *Machine
}

// Field returns vertex u's final value of the named user field, decoded
// per its declared type (bools: 0/1). It panics on an unknown field name;
// use FieldVector when the name comes from untrusted input.
func (r *Result) Field(name string, u graph.VertexID) float64 {
	return r.machine.FieldValue(name, u)
}

// FieldVector returns the named field for all vertices, or an error
// wrapping ErrUnknownField when the layout has no such field.
func (r *Result) FieldVector(name string) ([]float64, error) {
	m := r.machine
	slot := m.prog.Layout.Slot(name)
	if slot < 0 {
		return nil, fmt.Errorf("%w %q", ErrUnknownField, name)
	}
	out := make([]float64, m.g.NumVertices())
	for u := range out {
		out[u] = m.state[u*m.stride+slot]
	}
	return out, nil
}

// Machine executes one compiled program over one graph.
type Machine struct {
	prog   *core.Program
	g      *graph.Graph
	params []float64

	stride int
	state  []float64 // n × stride

	// tables[site] is the §4.2.1 per-neighbour cache: one map per vertex,
	// allocated lazily. Only non-nil in MemoTable mode.
	tables [][]map[graph.VertexID]float64

	// groupSites[g] lists send group g's sites, and usesWeight[g] reports
	// whether any of them reads ew.
	groupSites [][]*core.AggSite
	usesWeight []bool

	// until[phase] is the phase's compiled until{} condition (nil when it
	// has none), evaluated by the master hook on master.
	until  []expr[[1]float64]
	master *evaluator[[1]float64]

	iterations  []int
	nonMonotone atomic.Int64
	masterErr   error
	runCtx      context.Context // run's context, visible to the master hook
	ran         bool

	// repairBudget bounds the repair run's body supersteps (RunDelta with
	// DeltaRunOptions.SuperstepBudget); 0 means unbounded.
	repairBudget int

	msgBytes int
}

// NewMachine prepares a machine; Run executes it. The graph must be
// compatible with the program (undirected if #neighbors is used; reverse
// adjacency is built as needed).
func NewMachine(prog *core.Program, g *graph.Graph, opts RunOptions) (*Machine, error) {
	if prog.MaxSlotsPerGroup > MaxSlots {
		return nil, fmt.Errorf("vm: program needs %d message slots, max %d", prog.MaxSlotsPerGroup, MaxSlots)
	}
	if prog.UsesNeighbors && g.Directed() {
		return nil, fmt.Errorf("vm: program uses #neighbors but the graph is directed")
	}
	if prog.UsesIn || prog.UsesNeighbors {
		g.BuildReverse()
	}
	m := &Machine{
		prog:   prog,
		g:      g,
		stride: len(prog.Layout.Fields),
	}
	m.params = make([]float64, len(prog.Params))
	for i, p := range prog.Params {
		m.params[i] = p.Default
		if v, ok := opts.Params[p.Name]; ok {
			m.params[i] = v
		}
	}
	for name := range opts.Params { //lint:allow maprange — validation; any unknown name is an equivalent error
		if _, ok := paramIndex(prog, name); !ok {
			return nil, fmt.Errorf("vm: unknown param %q", name)
		}
	}
	m.state = make([]float64, g.NumVertices()*m.stride)
	if prog.Mode == core.MemoTable {
		m.tables = make([][]map[graph.VertexID]float64, len(prog.Sites))
		for i := range m.tables {
			m.tables[i] = make([]map[graph.VertexID]float64, g.NumVertices())
		}
	}
	m.iterations = make([]int, len(prog.Phases))
	m.msgBytes = MessageBytes(prog)
	m.groupSites = make([][]*core.AggSite, len(prog.Groups))
	m.usesWeight = make([]bool, len(prog.Groups))
	for _, g := range prog.Groups {
		for _, sid := range g.Sites {
			s := prog.Sites[sid]
			m.groupSites[g.ID] = append(m.groupSites[g.ID], s)
			m.usesWeight[g.ID] = m.usesWeight[g.ID] || s.UsesWeight
		}
	}
	var err error
	if m.until, err = compileUntil(m); err != nil {
		return nil, err
	}
	m.master = newEvaluator[[1]float64](m, nil)
	return m, nil
}

// wide reports whether the program needs the MaxSlots-wide message; all
// others run on the single-slot one.
func (m *Machine) wide() bool { return m.prog.MaxSlotsPerGroup > 1 }

func paramIndex(p *core.Program, name string) (int, bool) {
	for i, ps := range p.Params {
		if ps.Name == name {
			return i, true
		}
	}
	return 0, false
}

// MessageBytes returns the wire size the compiled program's messages are
// accounted at: group tag + one 8-byte value per slot, plus a tag byte when
// any multiplicative site exists, plus the sender id in MemoTable mode
// (the §4.2.1 "tagged with the sending vertex's id" overhead).
func MessageBytes(p *core.Program) int {
	n := 1 + 8*maxInt(1, p.MaxSlotsPerGroup)
	for _, s := range p.Sites {
		if s.Multiplicative() {
			n++
			break
		}
	}
	if p.Mode == core.MemoTable {
		n += 4
	}
	return n
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Run executes the program to completion. It is RunContext with a
// background context.
func Run(prog *core.Program, g *graph.Graph, opts RunOptions) (*Result, error) {
	return RunContext(context.Background(), prog, g, opts)
}

// RunContext executes the program until completion or until ctx aborts the
// run. On an abort (cancellation, deadline, or a panic contained by the
// engine) the returned Result is non-nil and carries the partial run
// statistics and whatever field state had been computed.
func RunContext(ctx context.Context, prog *core.Program, g *graph.Graph, opts RunOptions) (*Result, error) {
	m, err := NewMachine(prog, g, opts)
	if err != nil {
		return nil, err
	}
	return m.RunContext(ctx, opts)
}

// Run executes the machine. It may only be called once.
func (m *Machine) Run(opts RunOptions) (*Result, error) {
	return m.RunContext(context.Background(), opts)
}

// RunContext executes the machine under ctx. It may only be called once.
// Like the engine's RunContext, an aborted run returns partial results: the
// Result is non-nil whenever the engine produced statistics, and the error
// reports the abort cause (a *pregel.RunError for contained panics —
// including panics raised by the ΔV evaluator's own error paths, which this
// converts into errors callers can test for instead of process crashes).
func (m *Machine) RunContext(ctx context.Context, opts RunOptions) (*Result, error) {
	if m.ran {
		return nil, fmt.Errorf("vm: Machine.Run called twice")
	}
	m.ran = true
	var gl *globals
	if opts.Resume != nil {
		// Validate graph identity before decoding the machine payload so a
		// wrong-graph snapshot fails with the engine's mismatch error, not a
		// confusing state-size complaint.
		if opts.Resume.Fingerprint != m.g.Fingerprint() {
			return nil, fmt.Errorf("vm: %w: snapshot was taken on a different graph", pregel.ErrSnapshotMismatch)
		}
		var err error
		if gl, err = m.restoreExtra(opts.Resume.Extra, m.g.NumVertices()); err != nil {
			return nil, err
		}
	} else {
		gl = &globals{Phase: 0, Mode: modePrime}
	}
	if m.wide() {
		return execute[[MaxSlots]float64](ctx, m, opts, gl)
	}
	return execute[[1]float64](ctx, m, opts, gl)
}

// execute compiles the machine's program at width S and runs it from
// scratch or from opts.Resume.
func execute[S Slots](ctx context.Context, m *Machine, opts RunOptions, gl *globals) (*Result, error) {
	r, err := newRunner[S](m)
	if err != nil {
		return nil, err
	}
	return r.execute(ctx, opts, nil, gl)
}

// runner is the machine at message width S: the pregel.Program the engine
// drives. It holds the program compiled at that width, one evaluator per
// engine worker, and the repair plan of a delta run (nil otherwise).
type runner[S Slots] struct {
	m      *Machine
	code   *code[S]
	evs    []*evaluator[S]
	repair *repairPlan[S]
}

// newRunner compiles m's program at width S.
func newRunner[S Slots](m *Machine) (*runner[S], error) {
	c, err := compileCode[S](m)
	if err != nil {
		return nil, err
	}
	return &runner[S]{m: m, code: c}, nil
}

// execute runs the machine on a fresh engine seeded with gl. Exactly one of
// opts.Resume and warm may be set; both nil is a from-scratch run.
func (r *runner[S]) execute(ctx context.Context, opts RunOptions, warm *pregel.WarmStartOptions, gl *globals) (*Result, error) {
	m := r.m
	if opts.MaxSupersteps <= 0 {
		opts.MaxSupersteps = 100_000
	}
	if ctx == nil {
		ctx = context.Background()
	}
	m.runCtx = ctx
	// The Extra closure captures eng by reference: the engine only invokes
	// it mid-run, after New below has assigned it.
	var eng *pregel.Engine[VState, Msg[S]]
	ckpt := opts.Checkpoint
	if ckpt.Dir != "" || ckpt.Sink != nil {
		ckpt.Extra = func(dst []byte) []byte {
			return m.encodeExtra(dst, eng.Globals().(*globals))
		}
	}
	eng = pregel.New[VState, Msg[S]](m.g, pregel.Options{
		Workers:       opts.Workers,
		Scheduler:     opts.Scheduler,
		Partition:     opts.Partition,
		MaxSupersteps: opts.MaxSupersteps,
		Checkpoint:    ckpt,
		Resume:        opts.Resume,
		WarmStart:     warm,
		Quarantine:    opts.Quarantine,
		Shard:         opts.Shard,
	})
	r.evs = make([]*evaluator[S], eng.Workers())
	for i := range r.evs {
		r.evs[i] = newEvaluator(m, r.code)
	}
	eng.SetMessageSize(m.msgBytes)
	eng.SetValueCodec(vstateCodec{})
	eng.SetMessageCodec(msgCodec[S]{})
	if err := eng.RegisterAggregator(aggUnchanged, pregel.AggAnd, false); err != nil {
		return nil, err
	}
	if opts.Combine {
		if ops := m.combineOps(); ops != nil {
			eng.SetCombiner(&vmCombiner[S]{ops: ops})
		}
	}
	eng.SetGlobals(gl)
	eng.SetMasterHook(m.masterHook)
	stats, err := eng.RunContext(ctx, r)
	if stats == nil {
		return nil, err
	}
	if err == nil {
		// The engine gathered its vertex values, but the VM's field state
		// lives in m.state: a successful sharded run all-gathers the owned
		// rows so Result fields read whole on every shard.
		if gerr := gatherShardState(m, eng); gerr != nil {
			err = gerr
		}
	}
	res := &Result{
		Stats:            stats,
		Iterations:       m.iterations,
		NonMonotoneSends: m.nonMonotone.Load(),
		machine:          m,
	}
	if err != nil {
		return res, err
	}
	if m.masterErr != nil {
		return res, m.masterErr
	}
	return res, nil
}

const aggUnchanged = "$unchanged"

// gatherShardState all-gathers the machine's flat state rows after a
// successful sharded run: each shard broadcasts its owned vertex range
// [lo, hi) as u32 bounds plus (hi-lo)·stride little-endian float64s and
// copies every peer's rows into place. A no-op unsharded.
func gatherShardState[S Slots](m *Machine, eng *pregel.Engine[VState, Msg[S]]) error {
	if _, count := eng.ShardInfo(); count <= 1 {
		return nil
	}
	lo, hi := eng.ShardOwnedRange()
	buf := make([]byte, 0, 8+(hi-lo)*m.stride*8)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(lo))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(hi))
	for _, v := range m.state[lo*m.stride : hi*m.stride] {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	idx, _ := eng.ShardInfo()
	payloads, err := eng.ShardAllGather(buf)
	if err != nil {
		return fmt.Errorf("vm: state gather: %w", err)
	}
	n := m.g.NumVertices()
	for i, p := range payloads {
		if i == idx {
			continue
		}
		if len(p) < 8 {
			return fmt.Errorf("vm: state gather: short payload from shard %d", i)
		}
		plo := int(binary.LittleEndian.Uint32(p))
		phi := int(binary.LittleEndian.Uint32(p[4:]))
		rows := p[8:]
		if plo > phi || phi > n || len(rows) != (phi-plo)*m.stride*8 {
			return fmt.Errorf("vm: state gather: shard %d sent %d bytes for range [%d, %d)", i, len(rows), plo, phi)
		}
		for j := 0; j < (phi-plo)*m.stride; j++ {
			m.state[plo*m.stride+j] = math.Float64frombits(binary.LittleEndian.Uint64(rows[8*j:]))
		}
	}
	return nil
}

// FieldValue returns vertex u's current value of a layout field by name.
func (m *Machine) FieldValue(name string, u graph.VertexID) float64 {
	slot := m.prog.Layout.Slot(name)
	if slot < 0 {
		panic(fmt.Sprintf("vm: unknown field %q", name))
	}
	return m.state[int(u)*m.stride+slot]
}

// StateBytes reports the per-vertex state size: the compiled layout plus,
// in MemoTable mode, the measured average lookup-table footprint (id +
// value per cached neighbour), which is the §4.2.1 memory blow-up.
func (m *Machine) StateBytes() float64 {
	base := float64(m.prog.Layout.ByteSize())
	if m.tables == nil {
		return base
	}
	entries := 0
	for _, per := range m.tables {
		for _, t := range per {
			entries += len(t)
		}
	}
	n := m.g.NumVertices()
	if n == 0 {
		return base
	}
	return base + float64(entries*12)/float64(n)
}

// Init runs at superstep 0 on every vertex: default-initialize the
// synthesized fields, evaluate the init{} body, and prime phase 0's send
// groups with full slot values.
func (r *runner[S]) Init(ctx *pregel.Context[VState, Msg[S]]) {
	ev := r.evs[ctx.Worker()]
	ev.begin(ctx, ctx.ID(), nil, 0)
	copy(ev.state[ev.base:ev.base+r.m.stride], r.code.defaults)
	r.code.init(ev)
	if len(r.m.prog.Phases) > 0 {
		ev.primeSends(0)
	}
	// The master activates all vertices for the first body superstep, so
	// halting after the prime is always sound.
	ctx.VoteToHalt()
}

func (m *Machine) fieldDefault(f core.FieldSpec) float64 {
	switch f.Kind {
	case core.AccField, core.NNAccField:
		return core.Identity(m.prog.Sites[f.Ref].Op)
	case core.NullsField:
		return 0
	case core.LastNNField:
		return 1 // multiplicative identity: first non-null Δ is the raw value
	case core.DirtyField:
		return 1 // pre-set, §6.3
	default:
		return 0
	}
}

// Compute runs a vertex at supersteps >= 1.
func (r *runner[S]) Compute(ctx *pregel.Context[VState, Msg[S]], msgs []Msg[S]) {
	gl := ctx.Globals().(*globals)
	u := ctx.ID()
	ev := r.evs[ctx.Worker()]
	ev.begin(ctx, u, msgs, gl.Iter)
	switch gl.Mode {
	case modePrime:
		// Messages in flight at a prime superstep belong to the previous,
		// finished phase; they are dropped (see package docs).
		ev.primeSends(gl.Phase)
		ctx.VoteToHalt()
	case modeBody:
		r.code.bodies[gl.Phase](ev)
		if ev.changed {
			// $unchanged is a non-persistent AND: it restarts at its
			// identity 1 every superstep, so only a change contributes.
			ctx.Aggregate(aggUnchanged, 0)
		}
		// Halting is performed by the Halt node for incremental programs;
		// non-halting programs stay active for the next body superstep.
	case modeRepair:
		// Emit the precomputed retraction/injection messages for this
		// vertex's mutated arcs. Pure senders halt; vertices flagged by the
		// planner (memo-table surgery receivers) stay active so the next
		// body superstep refolds their state even if no message wakes them.
		for _, ps := range r.repair.sends[u] {
			ctx.Send(ps.dest, ps.msg)
		}
		if !r.repair.keepActive[u] {
			ctx.VoteToHalt()
		}
	}
}

func boolTo01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
