package mega_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"sync"
	"testing"
	"time"

	"mega"
	"mega/internal/testutil"
)

// soakWindow is a smaller window than eightSnapshotWindow so the soak's
// hundreds of evaluations stay fast under -race.
func soakWindow(t testing.TB) *mega.Window {
	t.Helper()
	spec := mega.GraphSpec{
		Name: "serve-soak", Vertices: 1 << 9, Edges: 6_000,
		A: 0.45, B: 0.15, C: 0.15, MaxWeight: 16, Seed: 23,
	}
	ev, err := mega.Evolve(spec, mega.EvolutionSpec{Snapshots: 6, BatchFraction: 0.02, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	w, err := mega.NewWindow(ev)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// identicalBits fails unless got matches want bit-for-bit (Float64bits) —
// the service must not perturb results in any way, not even by a ULP.
func identicalBits(t *testing.T, label string, want, got [][]float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: snapshot counts differ: %d vs %d", label, len(got), len(want))
	}
	for s := range want {
		if len(want[s]) != len(got[s]) {
			t.Fatalf("%s: snapshot %d lengths differ", label, s)
		}
		for v := range want[s] {
			if math.Float64bits(want[s][v]) != math.Float64bits(got[s][v]) {
				t.Fatalf("%s: snapshot %d vertex %d: %v vs %v (bits differ)",
					label, s, v, got[s][v], want[s][v])
			}
		}
	}
}

// TestQueryServiceMatchesEvaluateContext checks a query routed through the
// full service stack returns bit-identical values to a direct evaluation.
func TestQueryServiceMatchesEvaluateContext(t *testing.T) {
	testutil.NoGoroutineLeak(t)
	w := eightSnapshotWindow(t)
	want, err := mega.EvaluateContext(context.Background(), w, mega.SSSP, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := mega.NewQueryService(mega.ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Submit(context.Background(), mega.QueryRequest{Window: w, Algo: mega.SSSP, Source: 0})
	if err != nil {
		t.Fatalf("Submit = %v", err)
	}
	identicalBits(t, "served query", want, res.Values)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close = %v", err)
	}
}

// TestQueryServiceRejectsNegativeOptions pins the root-level constructor
// contract: negative engine knobs are refused up front with a typed
// ErrInvalidInput instead of surfacing as a confusing per-query failure.
func TestQueryServiceRejectsNegativeOptions(t *testing.T) {
	cases := []struct {
		name string
		opt  mega.ServeOptions
	}{
		{"checkpoint-every", mega.ServeOptions{CheckpointEvery: -1}},
		{"max-retries", mega.ServeOptions{MaxRetries: -2}},
		{"backoff", mega.ServeOptions{Backoff: -time.Millisecond}},
		{"capacity", mega.ServeOptions{Capacity: -1}},
		{"queue-depth", mega.ServeOptions{QueueDepth: -4}},
		{"default-deadline", mega.ServeOptions{DefaultDeadline: -time.Second}},
		{"default-queue-timeout", mega.ServeOptions{DefaultQueueTimeout: -time.Second}},
	}
	for _, c := range cases {
		s, err := mega.NewQueryService(c.opt)
		if s != nil {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			s.Close(ctx)
			cancel()
		}
		if !errors.Is(err, mega.ErrInvalidInput) {
			t.Errorf("%s: NewQueryService(%+v) err = %v, want ErrInvalidInput", c.name, c.opt, err)
		}
	}
}

// TestQueryServiceOverloadContract checks the root-level re-exports: a
// saturated service rejects with an error matching mega.ErrOverload and
// carrying *mega.OverloadError detail.
func TestQueryServiceOverloadContract(t *testing.T) {
	testutil.NoGoroutineLeak(t)
	w := soakWindow(t)
	s, err := mega.NewQueryService(mega.ServeOptions{Capacity: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Hold the only slot with a query frozen by an effectively-infinite
	// injected latency, fill the queue, then overflow.
	op, err := mega.ParseFaultOp("engine.round:latency=1h@1")
	if err != nil {
		t.Fatal(err)
	}
	frozen := mega.WithFaultPlan(context.Background(), mega.NewFaultPlan(1).Add(op))
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		// Ends when Close's straggler cancellation fires.
		_, err := s.Submit(frozen, mega.QueryRequest{Window: w, Algo: mega.SSSP, Source: 0})
		if !errors.Is(err, mega.ErrCanceled) {
			t.Errorf("frozen query = %v, want ErrCanceled from the drain", err)
		}
	}()
	// The frozen query must own the slot before the second one arrives;
	// with more than one P the two would otherwise race for it, and the
	// plain query could take the slot and simply complete.
	waitStats(t, s, func(st mega.QueryServiceStats) bool { return st.Running == 1 })
	go func() {
		defer wg.Done()
		_, err := s.Submit(context.Background(), mega.QueryRequest{Window: w, Algo: mega.SSSP, Source: 0})
		if !errors.Is(err, mega.ErrCanceled) {
			t.Errorf("queued query = %v, want ErrCanceled from the drain", err)
		}
	}()
	waitStats(t, s, func(st mega.QueryServiceStats) bool { return st.Running == 1 && st.Queued == 1 })

	_, err = s.Submit(context.Background(), mega.QueryRequest{Window: w, Algo: mega.SSSP, Source: 0})
	if !errors.Is(err, mega.ErrOverload) {
		t.Fatalf("overflow Submit = %v, want mega.ErrOverload", err)
	}
	var oe *mega.OverloadError
	if !errors.As(err, &oe) || oe.Capacity != 1 {
		t.Errorf("overload detail = %+v, want capacity 1", oe)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close = %v", err)
	}
	wg.Wait()
}

// waitStats polls the service's stats until cond holds.
func waitStats(t *testing.T, s *mega.QueryService, cond func(mega.QueryServiceStats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond(s.Stats()) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for stats; last = %+v", s.Stats())
}

// soakClass is the deterministic per-query plan of the chaos soak. Each
// submitted query falls in one class by index; the class fixes its fault
// plan and its only acceptable outcomes.
type soakClass struct {
	name string
	algo mega.AlgorithmKind
	src  mega.VertexID
	// faultSpec, when nonempty, is parsed into a fresh per-query plan.
	faultSpec string
	parallel  bool
	deadline  time.Duration
	// wantSuccess: the query must succeed with bit-identical values.
	// Otherwise wantErr must match the failure.
	wantSuccess bool
	wantErr     error
}

// TestQueryServiceSoakChaos is the service's end-to-end proof: hundreds of
// concurrent mixed-priority queries over one shared window, with fault
// plans injecting transients, worker panics, and latency spikes, all under
// the race detector. It asserts (1) no query is lost — every Submit
// resolves with a result or a typed error, (2) accounting is conserved —
// admitted == completed + failed + canceled with zero rejections at this
// queue depth, (3) every successful result is bit-identical to a direct
// EvaluateContext, and (4) no goroutines leak through Close.
func TestQueryServiceSoakChaos(t *testing.T) {
	testutil.NoGoroutineLeak(t)
	w := soakWindow(t)

	total := 240
	if os.Getenv("MEGA_CHAOS") != "" {
		total = 400
	}

	// The one-shot transient class kills the run mid-flight: find a round
	// count the sequential engine actually reaches.
	counter := mega.NewFaultPlan(1)
	if _, err := mega.EvaluateContext(mega.WithFaultPlan(context.Background(), counter), w, mega.SSSP, 0); err != nil {
		t.Fatal(err)
	}
	kill := counter.Visits("engine.round", -1) / 2
	if kill < 1 {
		t.Fatal("window too small to place a mid-run fault")
	}

	classes := []soakClass{
		{name: "clean-seq-latency", algo: mega.SSSP, src: 0,
			faultSpec: "engine.round:latency=200us@2", wantSuccess: true},
		{name: "clean-parallel", algo: mega.SSWP, src: 1, parallel: true, wantSuccess: true},
		{name: "panic-fallback", algo: mega.SSSP, src: 2, parallel: true,
			faultSpec: "parallel.phase#1:panic@3", wantSuccess: true},
		{name: "transient-resume", algo: mega.SSSP, src: 0,
			faultSpec: fmt.Sprintf("engine.round:transient@%d", kill), wantSuccess: true},
		{name: "transient-exhaust", algo: mega.SSWP, src: 1,
			faultSpec: "engine.round:transient@1x1", wantErr: mega.ErrTransient},
		{name: "deadline-doomed", algo: mega.SSSP, src: 0,
			deadline: time.Nanosecond, wantErr: mega.ErrCanceled},
	}

	// Direct-evaluation baselines for every (algo, source) a successful
	// class can produce.
	type key struct {
		a mega.AlgorithmKind
		s mega.VertexID
	}
	baseline := map[key][][]float64{}
	for _, c := range classes {
		k := key{c.algo, c.src}
		if _, ok := baseline[k]; ok {
			continue
		}
		vals, err := mega.EvaluateContext(context.Background(), w, c.algo, c.src)
		if err != nil {
			t.Fatal(err)
		}
		baseline[k] = vals
	}

	svc, err := mega.NewQueryService(mega.ServeOptions{
		Capacity:        4,
		QueueDepth:      total, // soak asserts exact conservation: nothing rejected
		CheckpointEvery: 2,
		MaxRetries:      2,
		Backoff:         time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		idx int
		res *mega.QueryResult
		err error
	}
	outcomes := make(chan outcome, total)
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := classes[i%len(classes)]
			ctx := context.Background()
			if c.faultSpec != "" {
				op, perr := mega.ParseFaultOp(c.faultSpec)
				if perr != nil {
					outcomes <- outcome{idx: i, err: perr}
					return
				}
				ctx = mega.WithFaultPlan(ctx, mega.NewFaultPlan(int64(i)).Add(op))
			}
			res, err := svc.Submit(ctx, mega.QueryRequest{
				Window:   w,
				Algo:     c.algo,
				Source:   c.src,
				Priority: mega.QueryPriority(i % 3),
				Deadline: c.deadline,
				Parallel: c.parallel,
				Workers:  4,
				Label:    fmt.Sprintf("%s/%d", c.name, i),
			})
			outcomes <- outcome{idx: i, res: res, err: err}
		}(i)
	}
	wg.Wait()
	close(outcomes)

	// No lost queries: every Submit resolved exactly once.
	resolved := 0
	succeeded := 0
	for o := range outcomes {
		resolved++
		c := classes[o.idx%len(classes)]
		if c.wantSuccess {
			if o.err != nil {
				t.Errorf("query %d (%s) = %v, want success", o.idx, c.name, o.err)
				continue
			}
			succeeded++
			identicalBits(t, fmt.Sprintf("query %d (%s)", o.idx, c.name),
				baseline[key{c.algo, c.src}], o.res.Values)
		} else if !errors.Is(o.err, c.wantErr) {
			t.Errorf("query %d (%s) = %v, want %v", o.idx, c.name, o.err, c.wantErr)
		}
	}
	if resolved != total {
		t.Fatalf("resolved %d of %d queries — queries were lost", resolved, total)
	}
	if succeeded == 0 {
		t.Fatal("no query succeeded; the soak proved nothing")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Close(ctx); err != nil {
		t.Fatalf("Close = %v (accounting audit must hold)", err)
	}

	st := svc.Stats()
	if st.Admitted != uint64(total) || st.Rejected != 0 || st.Shed != 0 {
		t.Errorf("admission stats = %+v, want all %d admitted at this queue depth", st, total)
	}
	if st.Admitted != st.Completed+st.Failed+st.Canceled {
		t.Errorf("conservation violated: %+v", st)
	}
	if audit := svc.Audit(); !audit.OK {
		t.Errorf("accounting audit failed: %s", audit.Detail)
	}
}
