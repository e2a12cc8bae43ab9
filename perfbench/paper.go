package main

import (
	"bufio"
	"bytes"
	_ "embed"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"mega"
	"mega/internal/bench"
)

// golden is megabench's stdout for paperExps, captured from the commit
// that introduced this benchmark. Every sweep must reproduce it byte for
// byte. results_full.txt is not used: see NOTES.md.
//
//go:embed golden/paper.txt
var golden []byte

// paperSetups is how many megabench start-ups a paper run times; each
// takes milliseconds, so many are needed for a steady median.
const paperSetups = 21

// minSweeps is the least number of megabench sweeps a paper run makes;
// sweep_s is their median.
const minSweeps = 2

// paperExps is the fixed subset of paper figures the paper workload
// regenerates.
var paperExps = []string{"fig14", "fig16", "ablation-uarch"}

// sweepRun is one megabench process.
type sweepRun struct {
	wall   time.Duration
	tables []time.Duration // exec to each table's first line on stdout
	steps  []time.Duration // host time per simulated configuration
	rssMB  float64
}

// sweep runs megabench -v over paperExps. megabench prints each
// experiment's tables as soon as the experiment finishes, so a table's
// latency runs from the exec to its header line on stdout. Each progress
// line megabench logs for a simulated configuration ends one step.
func sweep(bin string) (sweepRun, error) {
	var sr sweepRun
	cmd := exec.Command(filepath.Join(bin, "megabench"), "-v", "-exp", strings.Join(paperExps, ","))
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		return sr, err
	}
	errPipe, err := cmd.StderrPipe()
	if err != nil {
		return sr, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return sr, err
	}
	var stdout bytes.Buffer
	stdoutDone := make(chan struct{})
	go func() {
		defer close(stdoutDone)
		sc := bufio.NewScanner(outPipe)
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "== ") {
				sr.tables = append(sr.tables, time.Since(t0))
			}
			stdout.Write(sc.Bytes())
			stdout.WriteByte('\n')
		}
		io.Copy(io.Discard, outPipe) // past an over-long line; the golden check fails it
	}()
	prev := t0
	var log strings.Builder
	sc := bufio.NewScanner(errPipe)
	for sc.Scan() {
		now := time.Now()
		line := sc.Text()
		log.WriteString(line + "\n")
		// Configuration lines are indented ("  PK BFS BOE: 0.009 ms");
		// "generating ..." and "[... done in ...]" lines are not steps.
		if strings.HasPrefix(line, "  ") {
			sr.steps = append(sr.steps, now.Sub(prev))
			prev = now
		}
	}
	io.Copy(io.Discard, errPipe) // never leave megabench blocked on a full pipe
	<-stdoutDone
	err = cmd.Wait()
	sr.wall = time.Since(t0)
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		sr.rssMB = float64(ru.Maxrss) / 1024
	}
	if err != nil {
		return sr, fmt.Errorf("megabench: %v\n%s", err, log.String())
	}
	if !bytes.Equal(stdout.Bytes(), golden) {
		return sr, fmt.Errorf("megabench stdout differs from golden/paper.txt:\n%s", stdout.String())
	}
	return sr, nil
}

// runPaper runs the paper workload: harness start-up paperSetups times,
// then at least minSweeps sweeps (more if they fit in --seconds), then,
// traced, the same experiments in process plus direct simulator calls.
func runPaper(cfg config) (*result, *tracer, error) {
	bin := filepath.Join(cfg.bin, "megabench")
	var setupS []float64
	for i := 0; i < paperSetups; i++ {
		t0 := time.Now()
		if out, err := exec.Command(bin, "-list").CombinedOutput(); err != nil {
			return nil, nil, fmt.Errorf("megabench -list: %v\n%s", err, out)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	var walls, tables, rss []float64
	var total time.Duration
	limit := time.Duration(cfg.limitMs * float64(time.Millisecond))
	met := 0
	// At least minSweeps sweeps, then more only while another is expected
	// to end within --seconds.
	budget := time.Duration(cfg.seconds) * time.Second
	for start := time.Now(); res.Attempted < minSweeps || time.Since(start)+total/time.Duration(res.Attempted) <= budget; {
		sr, err := sweep(cfg.bin)
		res.Attempted++
		if err != nil {
			res.Failed++
			res.Correct = false
			fmt.Fprintln(os.Stderr, "perfbench: gate:", err)
			continue
		}
		walls = append(walls, sr.wall.Seconds())
		rss = append(rss, sr.rssMB)
		total += sr.wall
		for _, t := range sr.tables {
			tables = append(tables, float64(t)/1e6)
		}
		for _, s := range sr.steps {
			if s <= limit {
				met++
			}
		}
	}
	res.timed = len(tables)
	if len(walls) == 0 {
		return res, nil, nil
	}
	if !cfg.trace {
		res.Metrics = map[string]metric{
			"setup_s": {median(setupS), "s"},
			"p50_ms":  {quantile(tables, 0.50), "ms"},
			"p95_ms":  {quantile(tables, 0.95), "ms"},
			"sat_qps": {float64(met) / total.Seconds(), "1/s"},
			"sweep_s": {median(walls), "s"},
			"rss_mb":  {median(rss), "MiB"},
		}
		fmt.Fprintf(os.Stderr, "perfbench: paper: %d sweeps, %d tables, %d configurations within %.0f ms\n",
			len(walls), len(tables), met, cfg.limitMs)
		return res, nil, nil
	}

	tr := newTracer()
	v := map[string]float64{}
	traced, bad := tracedSweep(tr, v)
	res.Attempted++
	if bad != nil {
		res.Failed++
	}
	if bad == nil {
		bad = directSims(tr, v)
	}
	if bad != nil {
		res.Correct = false
		fmt.Fprintln(os.Stderr, "perfbench: gate:", bad)
	}
	v["trace.overhead_ms"] = float64(traced-time.Duration(median(walls)*1e9)) / 1e6
	res.Metrics = layerMetrics(v)
	return res, tr, nil
}

// tracedSweep runs paperExps in process on one shared bench.Context under
// a bench.sweep root span, one child span per experiment, and checks the
// rendered tables against the golden.
func tracedSweep(tr *tracer, v map[string]float64) (time.Duration, error) {
	c := bench.NewContext()
	var out bytes.Buffer
	t0 := time.Now()
	root := tr.add("bench.sweep", "sweep", 0, t0, t0)
	defer func() { tr.finish(root, time.Now()) }()
	for _, id := range paperExps {
		e, ok := bench.Lookup(id)
		if !ok {
			return 0, fmt.Errorf("unknown experiment %s", id)
		}
		s := time.Now()
		tables, err := e.Run(c)
		end := time.Now()
		tr.add("bench."+id, "sweep", root, s, end)
		if err != nil {
			return 0, fmt.Errorf("%s: %v", id, err)
		}
		v["bench."+id+"_s"] = end.Sub(s).Seconds()
		for _, t := range tables {
			t.Fprint(&out)
		}
	}
	if !bytes.Equal(out.Bytes(), golden) {
		return time.Since(t0), fmt.Errorf("in-process tables differ from golden/paper.txt")
	}
	return time.Since(t0), nil
}

// directSims times one call each of the functional and cycle-level
// simulators on LJ/SSSP from the hub vertex, as the figures do, under a
// sim.direct root span.
func directSims(tr *tracer, v map[string]float64) error {
	var spec mega.GraphSpec
	for _, g := range mega.PaperGraphs() {
		if g.Name == "LJ" {
			spec = g
		}
	}
	t0 := time.Now()
	root := tr.add("sim.direct", "lj-sssp", 0, t0, t0)
	defer func() { tr.finish(root, time.Now()) }()
	ev, err := mega.Evolve(spec, mega.EvolutionSpec{Snapshots: 16, BatchFraction: 0.01, Imbalance: 1, Seed: 42})
	if err != nil {
		return err
	}
	win, err := mega.NewWindow(ev)
	if err != nil {
		return err
	}
	t1 := time.Now()
	tr.add("gen.window_build", "lj-sssp", root, t0, t1)
	v["gen.window_build_s"] = t1.Sub(t0).Seconds()

	deg := make([]int, spec.Vertices)
	for _, e := range ev.Initial {
		deg[e.Src]++
	}
	var src mega.VertexID
	for u, d := range deg {
		if d > deg[src] {
			src = mega.VertexID(u)
		}
	}
	var audits []mega.AuditResult
	timed := func(name string, f func() error) error {
		s := time.Now()
		err := f()
		e := time.Now()
		tr.add(name, "lj-sssp", root, s, e)
		v[name+"_ms"] = float64(e.Sub(s)) / 1e6
		return err
	}
	var boe *mega.SimResult
	if err := timed("sim.mega", func() (err error) {
		boe, err = mega.Simulate(win, mega.SSSP, src, mega.BOE, mega.DefaultSimConfig())
		return err
	}); err != nil {
		return err
	}
	audits = append(audits, boe.Audits...)
	v["sim.host_ns_per_event"] = ratio(v["sim.mega_ms"]*1e6, float64(boe.Counts.Events))
	if err := timed("sim.jetstream", func() error {
		r, err := mega.SimulateJetStream(ev, mega.SSSP, src, mega.JetStreamSimConfig())
		if err == nil {
			audits = append(audits, r.Audits...)
		}
		return err
	}); err != nil {
		return err
	}
	if err := timed("uarch.boe", func() error {
		r, err := mega.SimulateCycleLevel(win, mega.SSSP, src, mega.DefaultUarchConfig())
		if err == nil {
			audits = append(audits, r.Audits...)
		}
		return err
	}); err != nil {
		return err
	}
	if err := timed("uarch.stream", func() error {
		r, err := mega.SimulateStreamCycleLevel(ev, mega.SSSP, src, mega.DefaultUarchConfig())
		if err == nil {
			audits = append(audits, r.Audits...)
		}
		return err
	}); err != nil {
		return err
	}
	for _, a := range audits {
		if !a.OK {
			return fmt.Errorf("simulator audit %s: %s", a.Name, a.Detail)
		}
	}
	return nil
}
