package engine

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"testing"

	"mega/internal/algo"
	"mega/internal/evolve"
	"mega/internal/fault"
	"mega/internal/graph"
	"mega/internal/megaerr"
	"mega/internal/sched"
	"mega/internal/testutil"
)

// chaosFull reports whether the full crash-equivalence sweep was
// requested (MEGA_CHAOS set, as by `make chaos`). The default run samples
// kill rounds so the suite stays fast in ordinary `go test` invocations.
func chaosFull() bool { return os.Getenv("MEGA_CHAOS") != "" }

// resumable is the checkpoint surface shared by both engines.
type resumable interface {
	RunContext(ctx context.Context, s *sched.Schedule, lim Limits) error
	SnapshotValues(s *sched.Schedule, snap int) []float64
	SetCheckpointEvery(n int)
	Restore(data []byte) error
	LastCheckpoint() []byte
}

func newEngine(t *testing.T, w *evolve.Window, a algo.Algorithm, parallel bool) resumable {
	t.Helper()
	if parallel {
		p, err := NewParallel(w, a, 0, 4)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	m, err := NewMulti(w, a, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// collectSnapshots flattens every snapshot's values.
func collectSnapshots(eng resumable, s *sched.Schedule, snaps int) [][]float64 {
	out := make([][]float64, snaps)
	for i := range out {
		out[i] = eng.SnapshotValues(s, i)
	}
	return out
}

// sameBits asserts bit-identical float values — stricter than ==, which
// would let a NaN-vs-NaN or 0-vs-−0 drift slip through.
func sameBits(t *testing.T, label string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d snapshots, want %d", label, len(got), len(want))
	}
	for s := range want {
		if len(got[s]) != len(want[s]) {
			t.Fatalf("%s: snapshot %d has %d values, want %d", label, s, len(got[s]), len(want[s]))
		}
		for v := range want[s] {
			if math.Float64bits(got[s][v]) != math.Float64bits(want[s][v]) {
				t.Fatalf("%s: snapshot %d vertex %d = %v (bits %#x), want %v (bits %#x)",
					label, s, v, got[s][v], math.Float64bits(got[s][v]), want[s][v], math.Float64bits(want[s][v]))
			}
		}
	}
}

// crashSite returns the round-boundary fault site of an engine.
func crashSite(parallel bool) fault.Site {
	if parallel {
		return fault.SiteParallelRound
	}
	return fault.SiteEngineRound
}

// killVisits picks the kill rounds to sweep: every round under MEGA_CHAOS,
// a spread sample otherwise.
func killVisits(total uint64) []uint64 {
	if total == 0 {
		return nil
	}
	if chaosFull() {
		out := make([]uint64, 0, total)
		for v := uint64(1); v <= total; v++ {
			out = append(out, v)
		}
		return out
	}
	picks := []uint64{1, 2, total / 3, total / 2, 2 * total / 3, total}
	seen := map[uint64]bool{}
	var out []uint64
	for _, v := range picks {
		if v >= 1 && v <= total && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// TestCrashEquivalence is the tentpole property: for every engine and
// every schedule mode, a run killed by an injected fault at round K with
// checkpointing enabled, resumed from its last checkpoint on a fresh
// engine, produces bit-identical snapshot values to the uninterrupted
// run. Kill rounds sweep every round when MEGA_CHAOS is set.
func TestCrashEquivalence(t *testing.T) {
	testutil.NoGoroutineLeak(t)
	w := testMultiWindow(t, 6, 77)
	a := algo.New(algo.SSSP)
	for _, parallel := range []bool{false, true} {
		for _, mode := range []sched.Mode{sched.DirectHop, sched.WorkSharing, sched.BOE} {
			name := "multi/" + mode.String()
			if parallel {
				name = "parallel/" + mode.String()
			}
			t.Run(name, func(t *testing.T) {
				s, err := sched.New(mode, w)
				if err != nil {
					t.Fatal(err)
				}
				// Uninterrupted baseline, with an empty plan counting
				// round-site visits to size the kill sweep.
				counter := fault.NewPlan(1)
				base := newEngine(t, w, a, parallel)
				if err := base.RunContext(fault.Inject(context.Background(), counter), s, Limits{}); err != nil {
					t.Fatalf("baseline run: %v", err)
				}
				want := collectSnapshots(base, s, w.NumSnapshots())
				total := counter.Visits(crashSite(parallel), fault.AnyShard)
				if total == 0 {
					t.Fatal("baseline visited no round boundaries")
				}

				for _, kill := range killVisits(total) {
					plan := fault.NewPlan(1).Add(fault.Op{
						Site: crashSite(parallel), Shard: fault.AnyShard,
						Kind: fault.KindTransient, Visit: kill,
					})
					victim := newEngine(t, w, a, parallel)
					victim.SetCheckpointEvery(1)
					err := victim.RunContext(fault.Inject(context.Background(), plan), s, Limits{})
					if !megaerr.IsTransient(err) {
						t.Fatalf("kill@%d: run returned %v, want a transient fault", kill, err)
					}
					ckpt := victim.LastCheckpoint()
					if ckpt == nil {
						t.Fatalf("kill@%d: no checkpoint was taken", kill)
					}
					resumed := newEngine(t, w, a, parallel)
					if err := resumed.Restore(ckpt); err != nil {
						t.Fatalf("kill@%d: Restore: %v", kill, err)
					}
					if err := resumed.RunContext(context.Background(), s, Limits{}); err != nil {
						t.Fatalf("kill@%d: resumed run: %v", kill, err)
					}
					sameBits(t, name, collectSnapshots(resumed, s, w.NumSnapshots()), want)
				}
			})
		}
	}
}

// TestCrashEquivalenceCrossEngine proves checkpoints are engine-portable:
// a parallel run killed by a worker panic resumes on the sequential
// engine (the retry layer's fallback path), and a sequential run killed
// by a transient resumes on the parallel engine. Both must reproduce the
// uninterrupted values bit-identically.
func TestCrashEquivalenceCrossEngine(t *testing.T) {
	testutil.NoGoroutineLeak(t)
	w := testMultiWindow(t, 6, 78)
	a := algo.New(algo.SSWP)
	s, err := sched.New(sched.BOE, w)
	if err != nil {
		t.Fatal(err)
	}
	counter := fault.NewPlan(1)
	base := newEngine(t, w, a, true)
	if err := base.RunContext(fault.Inject(context.Background(), counter), s, Limits{}); err != nil {
		t.Fatal(err)
	}
	want := collectSnapshots(base, s, w.NumSnapshots())

	t.Run("parallel-panic-to-sequential", func(t *testing.T) {
		phases := counter.Visits(fault.SiteParallelPhase, 1)
		if phases == 0 {
			t.Fatal("shard 1 never reached a phase boundary")
		}
		plan := fault.NewPlan(1).Add(fault.Op{
			Site: fault.SiteParallelPhase, Shard: 1,
			Kind: fault.KindPanic, Visit: phases / 2,
		})
		victim := newEngine(t, w, a, true)
		victim.SetCheckpointEvery(1)
		err := victim.RunContext(fault.Inject(context.Background(), plan), s, Limits{})
		var wp *megaerr.WorkerPanicError
		if !errors.As(err, &wp) {
			t.Fatalf("run returned %v, want a worker panic", err)
		}
		ckpt := victim.LastCheckpoint()
		if ckpt == nil {
			t.Fatal("no checkpoint survived the panic")
		}
		resumed := newEngine(t, w, a, false)
		if err := resumed.Restore(ckpt); err != nil {
			t.Fatalf("Restore: %v", err)
		}
		if err := resumed.RunContext(context.Background(), s, Limits{}); err != nil {
			t.Fatalf("resumed run: %v", err)
		}
		sameBits(t, "panic fallback", collectSnapshots(resumed, s, w.NumSnapshots()), want)
	})

	t.Run("sequential-to-parallel", func(t *testing.T) {
		// Round counts differ across engines (and the parallel engine's
		// with GOMAXPROCS), so the sequential kill is sized from a
		// sequential baseline with its own counter plan.
		seqCounter := fault.NewPlan(1)
		seqBase := newEngine(t, w, a, false)
		if err := seqBase.RunContext(fault.Inject(context.Background(), seqCounter), s, Limits{}); err != nil {
			t.Fatal(err)
		}
		sameBits(t, "sequential baseline", collectSnapshots(seqBase, s, w.NumSnapshots()), want)
		rounds := seqCounter.Visits(fault.SiteEngineRound, fault.AnyShard)
		if rounds < 2 {
			t.Fatalf("sequential baseline visited %d round boundaries; too few to kill mid-run", rounds)
		}
		plan := fault.NewPlan(1).Add(fault.Op{
			Site: fault.SiteEngineRound, Shard: fault.AnyShard,
			Kind: fault.KindTransient, Visit: rounds / 2,
		})
		victim := newEngine(t, w, a, false)
		victim.SetCheckpointEvery(2)
		err := victim.RunContext(fault.Inject(context.Background(), plan), s, Limits{})
		if !megaerr.IsTransient(err) {
			t.Fatalf("run returned %v, want a transient fault", err)
		}
		resumed := newEngine(t, w, a, true)
		if err := resumed.Restore(victim.LastCheckpoint()); err != nil {
			t.Fatalf("Restore: %v", err)
		}
		if err := resumed.RunContext(context.Background(), s, Limits{}); err != nil {
			t.Fatalf("resumed run: %v", err)
		}
		sameBits(t, "cross to parallel", collectSnapshots(resumed, s, w.NumSnapshots()), want)
	})
}

// TestCheckpointOnDemandAfterTransient exercises Multi.Checkpoint (as
// opposed to the automatic sink): a transient fault surfaces at a
// consistent round boundary, so an on-demand checkpoint taken afterwards
// resumes exactly there even with automatic checkpointing disabled.
func TestCheckpointOnDemandAfterTransient(t *testing.T) {
	w := testMultiWindow(t, 5, 79)
	a := algo.New(algo.BFS)
	s, _ := sched.New(sched.WorkSharing, w)
	counter := fault.NewPlan(1)
	base, err := NewMulti(w, a, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := base.RunContext(fault.Inject(context.Background(), counter), s, Limits{}); err != nil {
		t.Fatal(err)
	}
	want := collectSnapshots(base, s, w.NumSnapshots())
	kill := counter.Visits(fault.SiteEngineRound, fault.AnyShard) / 2
	if kill == 0 {
		kill = 1
	}

	plan := fault.NewPlan(1).Add(fault.Op{Site: fault.SiteEngineRound, Shard: fault.AnyShard, Kind: fault.KindTransient, Visit: kill})
	victim, _ := NewMulti(w, a, 0, nil)
	if err := victim.RunContext(fault.Inject(context.Background(), plan), s, Limits{}); !megaerr.IsTransient(err) {
		t.Fatalf("run returned %v, want a transient fault", err)
	}
	ckpt, err := victim.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	resumed, _ := NewMulti(w, a, 0, nil)
	if err := resumed.Restore(ckpt); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if err := resumed.RunContext(context.Background(), s, Limits{}); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	sameBits(t, "on-demand", collectSnapshots(resumed, s, w.NumSnapshots()), want)
}

// TestCheckpointCompletedRunRoundTrips: a checkpoint of a finished run
// restores to the same values without re-executing any stage.
func TestCheckpointCompletedRunRoundTrips(t *testing.T) {
	w := testMultiWindow(t, 4, 80)
	a := algo.New(algo.SSSP)
	s, _ := sched.New(sched.BOE, w)
	m, _ := NewMulti(w, a, 0, nil)
	if err := m.Run(s); err != nil {
		t.Fatal(err)
	}
	want := collectSnapshots(m, s, w.NumSnapshots())
	ckpt, err := m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	re, _ := NewMulti(w, a, 0, nil)
	if err := re.Restore(ckpt); err != nil {
		t.Fatal(err)
	}
	if err := re.RunContext(context.Background(), s, Limits{}); err != nil {
		t.Fatal(err)
	}
	sameBits(t, "completed", collectSnapshots(re, s, w.NumSnapshots()), want)
}

// TestCheckpointSinkReceivesEveryCheckpoint: the sink observes the same
// bytes LastCheckpoint retains, and a sink error aborts the run.
func TestCheckpointSinkReceivesEveryCheckpoint(t *testing.T) {
	w := testMultiWindow(t, 4, 81)
	a := algo.New(algo.SSSP)
	s, _ := sched.New(sched.BOE, w)
	var sunk [][]byte
	m, _ := NewMulti(w, a, 0, nil)
	m.SetCheckpointEvery(2)
	m.SetCheckpointSink(func(b []byte) error {
		sunk = append(sunk, b)
		return nil
	})
	if err := m.Run(s); err != nil {
		t.Fatal(err)
	}
	if len(sunk) == 0 {
		t.Fatal("sink never called")
	}
	last := m.LastCheckpoint()
	if string(sunk[len(sunk)-1]) != string(last) {
		t.Fatal("LastCheckpoint differs from the final sunk bytes")
	}
	for i, b := range sunk {
		if _, err := DecodeCheckpoint(b); err != nil {
			t.Fatalf("sunk checkpoint %d does not decode: %v", i, err)
		}
	}

	boom := errors.New("disk full")
	m2, _ := NewMulti(w, a, 0, nil)
	m2.SetCheckpointEvery(1)
	m2.SetCheckpointSink(func([]byte) error { return boom })
	if err := m2.Run(s); !errors.Is(err, boom) {
		t.Fatalf("sink failure returned %v, want the sink's error", err)
	}
}

// TestRestoreRejectsMismatches: checkpoints restore only into engines
// with the same algorithm, source, window, and schedule.
func TestRestoreRejectsMismatches(t *testing.T) {
	w := testMultiWindow(t, 4, 82)
	a := algo.New(algo.SSSP)
	s, _ := sched.New(sched.BOE, w)
	m, _ := NewMulti(w, a, 0, nil)
	if err := m.Run(s); err != nil {
		t.Fatal(err)
	}
	ckpt, _ := m.Checkpoint()

	wrongAlgo, _ := NewMulti(w, algo.New(algo.BFS), 0, nil)
	if err := wrongAlgo.Restore(ckpt); !errors.Is(err, megaerr.ErrCheckpoint) {
		t.Fatalf("wrong algorithm: %v, want ErrCheckpoint", err)
	}
	wrongSrc, _ := NewMulti(w, a, 1, nil)
	if err := wrongSrc.Restore(ckpt); !errors.Is(err, megaerr.ErrCheckpoint) {
		t.Fatalf("wrong source: %v, want ErrCheckpoint", err)
	}
	w2 := testMultiWindow(t, 4, 83)
	wrongWin, _ := NewMulti(w2, a, 0, nil)
	if err := wrongWin.Restore(ckpt); !errors.Is(err, megaerr.ErrCheckpoint) {
		t.Fatalf("wrong window: %v, want ErrCheckpoint", err)
	}
	// Same engine shape, different schedule: rejected at Run.
	other, _ := sched.New(sched.DirectHop, w)
	wrongSched, _ := NewMulti(w, a, 0, nil)
	if err := wrongSched.Restore(ckpt); err != nil {
		t.Fatal(err)
	}
	if err := wrongSched.RunContext(context.Background(), other, Limits{}); !errors.Is(err, megaerr.ErrCheckpoint) {
		t.Fatalf("wrong schedule: %v, want ErrCheckpoint", err)
	}
}

// TestCheckpointDecodeRejectsCorruption: any unchecked mutation of valid
// checkpoint bytes must surface as megaerr.ErrCheckpoint, never a panic.
func TestCheckpointDecodeRejectsCorruption(t *testing.T) {
	w := testMultiWindow(t, 4, 84)
	a := algo.New(algo.SSSP)
	s, _ := sched.New(sched.BOE, w)
	m, _ := NewMulti(w, a, 0, nil)
	m.SetCheckpointEvery(1)
	if err := m.Run(s); err != nil {
		t.Fatal(err)
	}
	valid := m.LastCheckpoint()
	if _, err := DecodeCheckpoint(valid); err != nil {
		t.Fatalf("valid checkpoint rejected: %v", err)
	}

	// Bit flips anywhere break the checksum.
	for _, off := range []int{0, 7, 8, 12, 20, len(valid) / 2, len(valid) - 5, len(valid) - 1} {
		corrupt := append([]byte(nil), valid...)
		corrupt[off] ^= 0x40
		if _, err := DecodeCheckpoint(corrupt); !errors.Is(err, megaerr.ErrCheckpoint) {
			t.Fatalf("flip at %d: %v, want ErrCheckpoint", off, err)
		}
	}
	// Truncations at every region boundary and a sweep of prefixes.
	for _, n := range []int{0, 1, 7, 8, 11, 12, len(valid) / 4, len(valid) / 2, len(valid) - 4, len(valid) - 1} {
		if _, err := DecodeCheckpoint(valid[:n]); !errors.Is(err, megaerr.ErrCheckpoint) {
			t.Fatalf("truncate to %d: %v, want ErrCheckpoint", n, err)
		}
	}
	// A corrupt body with a recomputed checksum must still decode safely:
	// either a typed rejection from field validation or a successful parse
	// (flips in value payloads are semantically invisible).
	for _, off := range []int{8, 12, 16, 20, 24, 28, 36, 44, len(valid) / 2} {
		corrupt := append([]byte(nil), valid...)
		corrupt[off] ^= 0x04
		binary.LittleEndian.PutUint32(corrupt[len(corrupt)-4:], crc32.ChecksumIEEE(corrupt[:len(corrupt)-4]))
		st, err := DecodeCheckpoint(corrupt)
		if err != nil && !errors.Is(err, megaerr.ErrCheckpoint) {
			t.Fatalf("re-checksummed flip at %d: %v, want ErrCheckpoint or success", off, err)
		}
		if err == nil && st == nil {
			t.Fatalf("re-checksummed flip at %d: nil state without error", off)
		}
	}
}

// FuzzCheckpointDecode: DecodeCheckpoint must never panic and must
// classify every rejection as megaerr.ErrCheckpoint, for raw mutated
// bytes and for mutated bytes with a fixed-up checksum (which forces the
// parser past the CRC gate).
func FuzzCheckpointDecode(f *testing.F) {
	st := &checkpointState{
		algoKind: 1, source: 0, numVerts: 4, numCtx: 2,
		batches:   []ckptBatch{{id: 0, edges: 3}, {id: 1, edges: 2}},
		schedHash: 0xfeedbeef, stageStart: 2, inRounds: true, round: 3, events: 17,
		baseVals: []float64{0, 1, 2, 3},
		vals:     [][]float64{{0, 1, 2, 3}, nil},
		applied:  []batchSet{newBatchSet(2), nil},
		queue:    []ckptEntry{{ctx: 0, v: 1, val: 2.5, tag: -1}, {ctx: 0, v: 3, val: 1.5, tag: 1}},
		dirty:    []graph.VertexID{1, 2},
	}
	seed := st.encode()
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte(ckptMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		decoded, err := DecodeCheckpoint(data)
		if err != nil && !errors.Is(err, megaerr.ErrCheckpoint) {
			t.Fatalf("untyped decode error: %v", err)
		}
		if err == nil {
			// Whatever decoded must re-encode to decodable bytes.
			if _, err := DecodeCheckpoint(decoded.encode()); err != nil {
				t.Fatalf("re-encode of decoded state rejected: %v", err)
			}
		}
		if len(data) >= len(ckptMagic)+8 {
			fixed := append([]byte(nil), data...)
			binary.LittleEndian.PutUint32(fixed[len(fixed)-4:], crc32.ChecksumIEEE(fixed[:len(fixed)-4]))
			if _, err := DecodeCheckpoint(fixed); err != nil && !errors.Is(err, megaerr.ErrCheckpoint) {
				t.Fatalf("untyped decode error after checksum fix-up: %v", err)
			}
		}
	})
}
