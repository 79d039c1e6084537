package vm

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pregel"
	"repro/internal/programs"
)

// The machine runs each program on the narrowest message that holds its
// widest send group: 16 bytes for one slot, 40 for up to MaxSlots. The
// codec, and so every snapshot, checkpoint and wire frame, keeps one
// 40-byte layout at both widths.

func TestMessageWidthSizes(t *testing.T) {
	if got := unsafe.Sizeof(Msg[[1]float64]{}); got != 16 {
		t.Fatalf("single-slot message is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(Msg[[MaxSlots]float64]{}); got != 40 {
		t.Fatalf("%d-slot message is %d bytes, want 40", MaxSlots, got)
	}
}

// TestCorpusRunsOnSingleSlotMessage: every corpus program compiles, in
// every mode, to send groups of one slot, so every one of them runs on the
// 16-byte message.
func TestCorpusRunsOnSingleSlotMessage(t *testing.T) {
	for _, name := range programs.Names() {
		for _, mode := range allModes {
			prog := compileT(t, name, mode)
			g := agreementGraph(name)
			m, err := NewMachine(prog, g, RunOptions{Workers: 2, Params: agreementParams(name)})
			if err != nil {
				t.Fatalf("%s/%v: %v", name, mode, err)
			}
			if m.wide() {
				t.Errorf("%s/%v: %d slots per group picks the %d-slot message", name, mode, prog.MaxSlotsPerGroup, MaxSlots)
			}
			if _, err := m.Run(RunOptions{Workers: 2, Params: agreementParams(name), Combine: true}); err != nil {
				t.Errorf("%s/%v: %v", name, mode, err)
			}
		}
	}
}

// twoSlotSrc has two sites pulling over the same direction, so they share
// one two-slot send group (core's TestSharedDirectionSitesShareGroup).
const twoSlotSrc = `
init { local a : float = 1.0; local b : float = 2.0 };
step {
  let x : float = + [ u.a | u <- #in ] in
  let y : float = + [ u.b | u <- #in ] in
  a = x + y
}`

// TestMultiSlotProgramsRunOnWideMessage: a program with a two-slot group
// runs on the MaxSlots-wide message, in every mode, and the modes agree;
// so do the multi-slot programs among TestDifferentialModesAgree's trials.
func TestMultiSlotProgramsRunOnWideMessage(t *testing.T) {
	g := directedTestGraph()
	var want []float64
	for _, mode := range allModes {
		prog, err := core.Compile(twoSlotSrc, core.Options{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMachine(prog, g, RunOptions{Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		if prog.MaxSlotsPerGroup != 2 || !m.wide() {
			t.Fatalf("%v: %d slots per group, wide = %v; want 2 slots on the wide message", mode, prog.MaxSlotsPerGroup, m.wide())
		}
		res, err := m.Run(RunOptions{Workers: 3, Combine: true})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		got, _ := res.FieldVector("a")
		if want == nil {
			want = got
			continue
		}
		for u := range want {
			if !close9(got[u], want[u]) {
				t.Fatalf("%v: a[%d] = %g, want %g", mode, u, got[u], want[u])
			}
		}
	}

	// The same seeds as TestDifferentialModesAgree.
	wide := 0
	for trial := 0; trial < 120; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) * 7919))
		src := randProgram(rng)
		g := randGraphD(rng)
		for _, mode := range allModes {
			prog, err := core.Compile(src, core.Options{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewMachine(prog, g, RunOptions{Workers: 3})
			if err != nil {
				t.Fatal(err)
			}
			if m.wide() != (prog.MaxSlotsPerGroup > 1) {
				t.Fatalf("trial %d %v: %d slots per group, wide = %v", trial, mode, prog.MaxSlotsPerGroup, m.wide())
			}
			if m.wide() {
				wide++
			}
		}
	}
	if wide == 0 {
		t.Fatal("no differential trial compiles to a multi-slot group; the wide message is untested there")
	}
	t.Logf("%d of %d differential program/mode pairs run on the wide message", wide, 120*len(allModes))
}

// TestShardedMultiSlotBitIdentical runs the two-slot program on a 2-shard
// socket mesh, so its 40-byte messages cross the wire codec, and checks
// the field vector bitwise against the in-process run.
func TestShardedMultiSlotBitIdentical(t *testing.T) {
	g := directedTestGraph()
	for _, mode := range []core.Mode{core.Incremental, core.Baseline} {
		compile := func() *core.Program {
			prog, err := core.Compile(twoSlotSrc, core.Options{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			return prog
		}
		opts := RunOptions{Workers: 4}
		ref, err := Run(compile(), g, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := ref.FieldVector("a")
		for i, res := range runSharded2(t, compile, g, opts) {
			if res.Stats.MessagesSent != ref.Stats.MessagesSent {
				t.Fatalf("%v shard %d: %d messages, want %d", mode, i, res.Stats.MessagesSent, ref.Stats.MessagesSent)
			}
			got, _ := res.FieldVector("a")
			for u := range want {
				if math.Float64bits(got[u]) != math.Float64bits(want[u]) {
					t.Fatalf("%v shard %d: a[%d] = %v, want %v bitwise", mode, i, u, got[u], want[u])
				}
			}
		}
	}
}

// TestMsgCodecGolden pins the 40-byte wire layout: a single-slot message
// and the same message at MaxSlots width encode to identical bytes, and
// both decode back.
func TestMsgCodecGolden(t *testing.T) {
	const golden = "02010100" + "04030201" + "000000000000f83f" +
		"0000000000000000" + "0000000000000000" + "0000000000000000"
	narrow := Msg[[1]float64]{MsgHeader: MsgHeader{Group: 2, NVals: 1, TagNull: 1}, Sender: 0x01020304, Vals: [1]float64{1.5}}
	wide := Msg[[MaxSlots]float64]{MsgHeader: MsgHeader{Group: 2, NVals: 1, TagNull: 1}, Sender: 0x01020304, Vals: [MaxSlots]float64{1.5}}
	for name, enc := range map[string][]byte{
		"narrow": msgCodec[[1]float64]{}.AppendValue(nil, narrow),
		"wide":   msgCodec[[MaxSlots]float64]{}.AppendValue(nil, wide),
	} {
		if got := hex.EncodeToString(enc); got != golden {
			t.Errorf("%s encodes to %s, want %s", name, got, golden)
		}
	}
	raw, _ := hex.DecodeString(golden + "ff")
	if got, rest, err := (msgCodec[[1]float64]{}).DecodeValue(raw); err != nil || got != narrow || !bytes.Equal(rest, []byte{0xff}) {
		t.Errorf("narrow decode = %+v, rest %x, %v", got, rest, err)
	}
	if got, rest, err := (msgCodec[[MaxSlots]float64]{}).DecodeValue(raw); err != nil || got != wide || !bytes.Equal(rest, []byte{0xff}) {
		t.Errorf("wide decode = %+v, rest %x, %v", got, rest, err)
	}

	full := Msg[[MaxSlots]float64]{MsgHeader: MsgHeader{Group: 1, NVals: 4, TagPrev: 8}, Sender: 7, Vals: [MaxSlots]float64{1, -2, 0.5, math.Inf(1)}}
	enc := msgCodec[[MaxSlots]float64]{}.AppendValue(nil, full)
	const fullGolden = "01040008" + "07000000" + "000000000000f03f" +
		"00000000000000c0" + "000000000000e03f" + "000000000000f07f"
	if got := hex.EncodeToString(enc); got != fullGolden {
		t.Errorf("full wide message encodes to %s, want %s", got, fullGolden)
	}
	if got, _, err := (msgCodec[[MaxSlots]float64]{}).DecodeValue(enc); err != nil || got != full {
		t.Errorf("full wide decode = %+v, %v", got, err)
	}
	if _, _, err := (msgCodec[[1]float64]{}).DecodeValue(enc[:msgWireBytes-1]); !errors.Is(err, pregel.ErrSnapshotCorrupt) {
		t.Errorf("truncated message: %v, want ErrSnapshotCorrupt", err)
	}
}

// TestMsgCodecRejectsValuesPastWidth: a nonzero byte anywhere past the
// first slot cannot decode into the single-slot message (it would drop a
// value), while the wide message takes it.
func TestMsgCodecRejectsValuesPastWidth(t *testing.T) {
	base := msgCodec[[1]float64]{}.AppendValue(nil, Msg[[1]float64]{MsgHeader: MsgHeader{NVals: 1}, Vals: [1]float64{3}})
	for off := 16; off < msgWireBytes; off++ {
		b := append([]byte(nil), base...)
		b[off] = 0x80 // at offset 23 this is -0.0: nonzero bits, still a lost value
		if _, _, err := (msgCodec[[1]float64]{}).DecodeValue(b); !errors.Is(err, pregel.ErrSnapshotCorrupt) {
			t.Fatalf("byte %d set: narrow decode err = %v, want ErrSnapshotCorrupt", off, err)
		}
		if _, _, err := (msgCodec[[MaxSlots]float64]{}).DecodeValue(b); err != nil {
			t.Fatalf("byte %d set: wide decode: %v", off, err)
		}
	}
}

// Golden checkpoints, written by the machine when it still ran every
// program on the 40-byte message: a full snapshot after every superstep of
// ΔV PageRank and memo-table SSSP (to a Sink) and of a ΔV PageRank
// checkpoint chain (base plus DVSNPD records in a directory), all on a
// 32-vertex R-MAT graph with two workers and combining on. sha256 covers
// the whole stream, or every chain file's name and bytes in name order.
// testdata holds the PageRank stream's superstep-3 snapshot, which carries
// in-flight messages.
var goldenCheckpoints = []struct {
	program string
	mode    core.Mode
	chain   bool
	sha256  string
}{
	{"pagerank", core.Incremental, false, "0b723c9a60aef0ce8101e2baff1d875b6d87bbf29799256372d5146837582951"},
	{"sssp", core.MemoTable, false, "4d908372254e3612e9ce7065934277f6350ff6cb906166f822e3362f7e78cd24"},
	{"pagerank", core.Incremental, true, "8a04bf2a6741ef631f3a2df029c3c9ee5f189d357197e40c643be285bd85d1c4"},
}

const goldenSnapshotFile = "pagerank_dv_superstep3.dvsnap"

func goldenGraph() *graph.Graph { return graph.RMAT(5, 4, 0.57, 0.19, 0.19, true, 11) }

// goldenCheckpointBytes runs a golden case and returns its result and
// checkpoint bytes.
func goldenCheckpointBytes(t *testing.T, program string, mode core.Mode, chain bool) (*Result, []byte) {
	t.Helper()
	var sink bytes.Buffer
	ck := pregel.CheckpointOptions{Every: 1, Sink: &sink}
	if chain {
		ck = pregel.CheckpointOptions{Every: 1, Dir: t.TempDir(), Incremental: true}
	}
	res, err := Run(compileT(t, program, mode), goldenGraph(), RunOptions{
		Workers: 2, Combine: true, Params: agreementParams(program), Checkpoint: ck,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !chain {
		return res, sink.Bytes()
	}
	entries, err := os.ReadDir(ck.Dir)
	if err != nil {
		t.Fatal(err)
	}
	var all []byte
	for _, e := range entries { // ReadDir sorts by name
		b, err := os.ReadFile(filepath.Join(ck.Dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		all = append(append(all, e.Name()...), b...)
	}
	return res, all
}

// TestCheckpointBytesMatchWideLayout: checkpoints written on the
// single-slot message are byte for byte those the 40-byte message wrote.
func TestCheckpointBytesMatchWideLayout(t *testing.T) {
	for _, tc := range goldenCheckpoints {
		_, b := goldenCheckpointBytes(t, tc.program, tc.mode, tc.chain)
		if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != tc.sha256 {
			t.Errorf("%s/%v chain=%v: checkpoint bytes (%d) have SHA-256 %x, want %s",
				tc.program, tc.mode, tc.chain, len(b), sum, tc.sha256)
		}
	}
}

// TestWideLayoutSnapshotResumesNarrow: the golden mid-run snapshot resumes
// into the single-slot message with a bitwise-identical result, and a
// value past the single-slot width in an inbox message is corruption.
func TestWideLayoutSnapshotResumesNarrow(t *testing.T) {
	full, stream := goldenCheckpointBytes(t, "pagerank", core.Incremental, false)
	want, _ := full.FieldVector("vl")
	raw, err := os.ReadFile(filepath.Join("testdata", goldenSnapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(stream, raw) {
		t.Fatal("golden snapshot is not part of the checkpoint stream")
	}
	snap, _, err := pregel.DecodeSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Superstep != 3 || len(snap.Inbox) == 0 {
		t.Fatalf("golden snapshot: superstep %d with %d inbox bytes; want superstep 3 with messages", snap.Superstep, len(snap.Inbox))
	}
	resume := func(s *pregel.Snapshot) (*Result, error) {
		return Run(compileT(t, "pagerank", core.Incremental), goldenGraph(), RunOptions{Workers: 2, Combine: true, Resume: s})
	}
	resumed, err := resume(snap)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := resumed.FieldVector("vl")
	for u := range want {
		if math.Float64bits(got[u]) != math.Float64bits(want[u]) {
			t.Fatalf("resumed vl[%d] = %v, want %v bitwise", u, got[u], want[u])
		}
	}

	bad := *snap
	bad.Inbox = append([]byte(nil), snap.Inbox...)
	bad.Inbox[16] = 1 // first message, second slot
	if _, err := resume(&bad); !errors.Is(err, pregel.ErrSnapshotCorrupt) {
		t.Fatalf("resume with a value past the message width: %v, want ErrSnapshotCorrupt", err)
	}
}
