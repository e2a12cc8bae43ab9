package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"mega"
	"mega/internal/httpfront"
)

const (
	// setups is how many times a run starts megaserve; setup_s is the
	// median, and the last start serves the workload.
	setups = 7
	// minTimed is the least number of timed open-loop requests, so p95
	// has at least ten samples beyond it.
	minTimed = 200
	// hotPairs is the hot workload's skewed working set; durable repeats
	// from a set of repeatPairs already-answered pairs.
	hotPairs    = 64
	repeatPairs = 32
	// The open loop sends max(minTimed, rate × --seconds) requests; the
	// closed loop that measures sat_qps then runs for closedShare of
	// --seconds.
	closedShare = 0.5
	// gateSample is how many answered fresh pairs the value gate checks
	// (every hot and repeat pair is checked); replaySample is how many
	// queries the traced run replays through EvaluateRecover.
	gateSample   = 24
	replaySample = 16
)

// algos are the paper's five single-source algorithms.
var algos = []string{"BFS", "SSSP", "SSWP", "SSNP", "Viterbi"}

// hotTenants spreads the hot set over megaserve's -tenants contracts in
// proportion to their weights (gold:4 silver:2 bronze:1).
var hotTenants = []string{"gold", "gold", "gold", "gold", "silver", "silver", "bronze"}

// windowSpec is megaserve's default window: PK, 16 snapshots, 1% batches,
// imbalance 1, seed 42. The value gate rebuilds it in process.
func windowSpec() (mega.GraphSpec, mega.EvolutionSpec, error) {
	for _, g := range mega.PaperGraphs() {
		if g.Name == "PK" {
			return g, mega.EvolutionSpec{Snapshots: 16, BatchFraction: 0.01, Imbalance: 1, Seed: 42}, nil
		}
	}
	return mega.GraphSpec{}, mega.EvolutionSpec{}, errors.New("PK is not a paper graph")
}

// serving holds one serving workload's seeded query plan.
type serving struct {
	cfg      config
	universe []pair // every (algorithm, source) pair in seeded order
	next     int    // next never-sent pair for fresh queries
	set      []pair // hot: the skewed set; durable: the repeat set
	closedR  *rand.Rand
	closedZ  *rand.Zipf
	closedN  int
}

func newServing(cfg config, vertices int) *serving {
	// Sources come from a seeded permutation and algorithms take turns,
	// so every run sends the same algorithm mix and the seed varies only
	// the sources. A source recurs only after all vertices have been
	// used, under the next algorithm, so every pair stays distinct.
	r := rand.New(rand.NewSource(cfg.seed))
	perm := r.Perm(vertices)
	w := &serving{cfg: cfg, universe: make([]pair, len(algos)*vertices)}
	for i := range w.universe {
		w.universe[i] = pair{algo: algos[(i+i/vertices)%len(algos)], source: int64(perm[i%vertices])}
	}
	switch cfg.workload {
	case "hot":
		w.set = w.universe[:hotPairs]
		for i := range w.set {
			w.set[i].tenant = hotTenants[i%len(hotTenants)]
		}
		w.next = hotPairs
	case "durable":
		w.set = w.universe[:repeatPairs]
		w.next = repeatPairs
	}
	w.closedR = rand.New(rand.NewSource(cfg.seed ^ 0x5eed))
	w.closedZ = w.zipf(w.closedR)
	return w
}

// serverFlags are the flags the workload adds to megaserve's defaults.
func (w *serving) serverFlags(dir string) []string {
	switch w.cfg.workload {
	case "hot":
		return []string{"-tenants", "gold:4", "-tenants", "silver:2", "-tenants", "bronze:1"}
	case "durable":
		return []string{"-state-dir", filepath.Join(dir, "state")}
	}
	return nil
}

func (w *serving) zipf(r *rand.Rand) *rand.Zipf {
	if w.cfg.workload != "hot" {
		return nil
	}
	return rand.NewZipf(r, 1.2, 1, hotPairs-1)
}

// fresh returns a pair no earlier request named. On the fresh workload
// one in four asks for the parallel engine.
func (w *serving) fresh() pair {
	p := w.universe[w.next]
	if w.cfg.workload == "fresh" && w.next%4 == 3 {
		p.engine = "par"
	}
	w.next++
	return p
}

// pick draws the workload's k-th query of a phase. On durable every
// third query repeats an answered pair and the rest are fresh, in that
// fixed interleave (see NOTES.md for why not half and half).
func (w *serving) pick(r *rand.Rand, z *rand.Zipf, k int) pair {
	switch w.cfg.workload {
	case "hot":
		return w.set[z.Uint64()]
	case "durable":
		if k%3 == 2 {
			return w.set[r.Intn(len(w.set))]
		}
	}
	return w.fresh()
}

// openPhase schedules n Poisson arrivals at the workload's rate: the
// exponential gaps are scaled so the schedule spans exactly n/rate
// seconds (a Poisson process conditioned on n arrivals), which keeps
// the seed from stretching or shrinking the phase. phase makes each
// open-loop pass of a run draw its own schedule.
func (w *serving) openPhase(phase int64, n int) []request {
	r := rand.New(rand.NewSource(w.cfg.seed*7919 + phase))
	z := w.zipf(r)
	gaps := make([]float64, n+1)
	sum := 0.0
	for i := range gaps {
		gaps[i] = r.ExpFloat64()
		sum += gaps[i]
	}
	span := float64(n) / w.cfg.rate
	reqs := make([]request, n)
	at := 0.0
	for i := range reqs {
		at += gaps[i] / sum * span
		reqs[i] = request{pair: w.pick(r, z, i), due: time.Duration(at * 1e9)}
	}
	return reqs
}

// closedPick draws the closed loop's next query.
func (w *serving) closedPick() pair {
	w.closedN++
	return w.pick(w.closedR, w.closedZ, w.closedN)
}

// runServing runs one serving workload end to end: start megaserve
// setups times, warm it, drive the open loop (and, untraced, the closed
// loop), stop it, then run every correctness gate.
func runServing(cfg config) (*result, *tracer, error) {
	// The load generator's live heap is small but every response
	// allocates about 1.5 MB, so at the default GOGC it would collect
	// every few responses and take CPU from the server it measures.
	defer debug.SetGCPercent(debug.SetGCPercent(1000))
	nproc := runtime.NumCPU()
	gspec, espec, err := windowSpec()
	if err != nil {
		return nil, nil, err
	}
	w := newServing(cfg, gspec.Vertices)
	var gate []string // correctness failures

	var setupS []float64
	var srv *server
	for i := 0; i < setups; i++ {
		dir := filepath.Join(cfg.work, fmt.Sprintf("%s-seed%d-start%d", cfg.workload, cfg.seed, i))
		os.RemoveAll(dir)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, err
		}
		s, d, err := startServer(cfg.bin, w.serverFlags(dir), dir)
		if err != nil {
			return nil, nil, err
		}
		setupS = append(setupS, d.Seconds())
		if i < setups-1 {
			if code, _, err := s.stop(); err != nil || code != 0 {
				gate = append(gate, fmt.Sprintf("set-up start %d: exit %d %v\n%s", i, code, err, s.stderr.String()))
			}
			continue
		}
		srv = s
	}
	defer srv.kill()

	lg, err := newLoadgen(srv.url, nproc)
	if err != nil {
		return nil, nil, err
	}
	defer lg.client.Close()

	snapStats := func() *httpfront.StatsReply {
		st, err := srv.stats()
		if err != nil {
			gate = append(gate, "/stats: "+err.Error())
			return &httpfront.StatsReply{}
		}
		return st
	}
	snapMetrics := func() *mega.MetricsSnapshot {
		m, err := srv.metrics()
		if err != nil {
			gate = append(gate, "/metrics: "+err.Error())
			return &mega.MetricsSnapshot{}
		}
		return m
	}

	// Warm-up (untimed): hot touches every hot pair once; durable answers
	// its repeat set so repeats are cache hits; fresh warms connections
	// with pairs the timed phases never reuse.
	sW, mW := snapStats(), snapMetrics()
	var warm []pair
	switch cfg.workload {
	case "fresh":
		for i := 0; i < 2*nproc; i++ {
			warm = append(warm, w.fresh())
		}
	default:
		warm = w.set
	}
	warmOut := lg.batch(nproc, warm)

	n := max(minTimed, int(cfg.rate*float64(cfg.seconds)))
	open1, makespan, _ := lg.open(w.openPhase(1, n), nil)

	var tr *tracer
	var open2, closedOut []outcome
	var closedFor time.Duration
	var body2 int64
	var sT0, sT1 *httpfront.StatsReply
	var mEnd *mega.MetricsSnapshot
	if cfg.trace {
		sT0 = snapStats()
		tr = newTracer()
		open2, _, body2 = lg.open(w.openPhase(2, n), tr)
		sT1, mEnd = snapStats(), snapMetrics()
	} else {
		closedFor = time.Duration(closedShare * float64(cfg.seconds) * float64(time.Second))
		closedOut, closedFor = lg.closed(nproc, closedFor, w.closedPick)
	}

	// Books after the load: nothing running or queued, every admitted
	// request in exactly one terminal class, audits green, and on durable
	// a store drained to zero live queries.
	sF, mF := snapStats(), snapMetrics()
	gate = append(gate, auditBooks(sF, mF, cfg.workload == "durable")...)
	code, rssMB, err := srv.stop()
	if err != nil || code != 0 {
		gate = append(gate, fmt.Sprintf("megaserve exit %d after SIGTERM drain: %v\n%s", code, err, srv.stderr.String()))
	}

	all := [][]outcome{warmOut, open1, open2, closedOut}
	var attempted, failed int64
	for _, outs := range all {
		for i := range outs {
			attempted++
			if outs[i].err != nil {
				failed++
			}
		}
	}

	t0 := time.Now()
	ev, err := mega.Evolve(gspec, espec)
	if err != nil {
		return nil, nil, err
	}
	win, err := mega.NewWindow(ev)
	if err != nil {
		return nil, nil, err
	}
	t1 := time.Now()
	tr.add("gen.window_build", "window", 0, t0, t1)
	buildS := t1.Sub(t0).Seconds()
	refs, vgate := checkValues(win, w.gatePairs(all), all)
	gate = append(gate, vgate...)

	res := &result{Attempted: attempted, Failed: failed, Metrics: map[string]metric{}, timed: len(open1)}
	if !cfg.trace {
		lat := latenciesMs(open1)
		limit := time.Duration(cfg.limitMs * float64(time.Millisecond))
		met := 0
		for i := range closedOut {
			if closedOut[i].err == nil && closedOut[i].latency() <= limit {
				met++
			}
		}
		res.Metrics = map[string]metric{
			"setup_s": {median(setupS), "s"},
			"p50_ms":  {quantile(lat, 0.50), "ms"},
			"p95_ms":  {quantile(lat, 0.95), "ms"},
			"sat_qps": {float64(met) / closedFor.Seconds(), "1/s"},
			"sweep_s": {makespan.Seconds(), "s"},
			"rss_mb":  {rssMB, "MiB"},
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d timed open-loop requests at %.0f/s, %d closed-loop (%d within %.0f ms)\n",
			cfg.workload, len(open1), cfg.rate, len(closedOut), met, cfg.limitMs)
	} else {
		sample := w.replayPairs(all)
		rp, rgate := replay(win, sample, refs, filepath.Join(cfg.work, fmt.Sprintf("%s-seed%d-replay", cfg.workload, cfg.seed)), tr)
		gate = append(gate, rgate...)
		counted := [][]outcome{warmOut, open1, open2}
		res.Metrics = servingLayers(layerInputs{
			nproc: nproc, limitMs: cfg.limitMs, traced: open2, untraced: open1, counted: counted, body: body2,
			sW: sW, sT0: sT0, sT1: sT1, mW: mW, mEnd: mEnd, replay: rp, buildS: buildS,
		})
	}
	res.Correct = len(gate) == 0
	for _, g := range gate {
		fmt.Fprintln(os.Stderr, "perfbench: gate:", g)
	}
	return res, tr, nil
}

// auditBooks checks the service's books after the load has drained.
func auditBooks(st *httpfront.StatsReply, m *mega.MetricsSnapshot, durable bool) []string {
	var bad []string
	if st.Running != 0 || st.Queued != 0 {
		bad = append(bad, fmt.Sprintf("/stats: %d running, %d queued after the load", st.Running, st.Queued))
	}
	if t := st.Completed + st.Failed + st.Canceled + st.Shed; st.Admitted != t {
		bad = append(bad, fmt.Sprintf("/stats: admitted %d != completed+failed+canceled+shed %d", st.Admitted, t))
	}
	for _, tn := range st.Tenants {
		if t := tn.Completed + tn.Failed + tn.Canceled + tn.Shed; tn.Admitted != t {
			bad = append(bad, fmt.Sprintf("/stats tenant %s: admitted %d != terminals %d", tn.Name, tn.Admitted, t))
		}
	}
	for _, a := range m.Audits {
		if !a.OK {
			bad = append(bad, fmt.Sprintf("/metrics audit %s: %s", a.Name, a.Detail))
		}
	}
	if durable && st.Store.Queries != 0 {
		bad = append(bad, fmt.Sprintf("/stats: store holds %d live queries after the load, want 0", st.Store.Queries))
	}
	return bad
}

// answered lists the distinct keys of successfully answered pairs across
// every phase, sorted, with one representative pair each.
func answered(all [][]outcome) (keys []string, byKey map[string]pair) {
	byKey = map[string]pair{}
	for _, outs := range all {
		for i := range outs {
			if outs[i].err == nil {
				byKey[outs[i].pair.key()] = outs[i].pair
			}
		}
	}
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, byKey
}

// gatePairs picks the pairs whose values the gate recomputes: every pair
// of the hot or repeat set plus a seeded sample of the rest.
func (w *serving) gatePairs(all [][]outcome) []pair {
	keys, byKey := answered(all)
	inSet := map[string]bool{}
	var out []pair
	for _, p := range w.set {
		if _, ok := byKey[p.key()]; ok && !inSet[p.key()] {
			inSet[p.key()] = true
			out = append(out, p)
		}
	}
	var rest []string
	for _, k := range keys {
		if !inSet[k] {
			rest = append(rest, k)
		}
	}
	r := rand.New(rand.NewSource(w.cfg.seed ^ 0x6a7e))
	r.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	for _, k := range rest[:min(gateSample, len(rest))] {
		out = append(out, byKey[k])
	}
	return out
}

// replayPairs picks the seeded sample the traced run replays directly.
func (w *serving) replayPairs(all [][]outcome) []pair {
	keys, byKey := answered(all)
	r := rand.New(rand.NewSource(w.cfg.seed ^ 0x4e91a7))
	r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	var out []pair
	for _, k := range keys[:min(replaySample, len(keys))] {
		out = append(out, byKey[k])
	}
	return out
}

// checkValues recomputes each pair with mega.EvaluateContext on the
// in-process window and requires every served answer for it to be
// Float64bits-identical. It returns the reference hashes by key.
func checkValues(win *mega.Window, pairs []pair, all [][]outcome) (map[string]uint64, []string) {
	refs := map[string]uint64{}
	var bad []string
	for _, p := range pairs {
		k, err := mega.ParseAlgorithm(p.algo)
		if err != nil {
			bad = append(bad, err.Error())
			continue
		}
		vals, err := mega.EvaluateContext(context.Background(), win, k, mega.VertexID(p.source))
		if err != nil {
			bad = append(bad, fmt.Sprintf("reference %s: %v", p.key(), err))
			continue
		}
		refs[p.key()] = hashValues(vals)
	}
	mismatched := map[string]int{}
	checked := 0
	for _, outs := range all {
		for i := range outs {
			o := &outs[i]
			ref, ok := refs[o.pair.key()]
			if !ok || o.err != nil {
				continue
			}
			checked++
			if o.hash != ref {
				mismatched[o.pair.key()]++
			}
		}
	}
	for k, n := range mismatched {
		bad = append(bad, fmt.Sprintf("values for %s differ from EvaluateContext in %d responses", k, n))
	}
	if checked == 0 {
		bad = append(bad, "no served answer was checked against EvaluateContext")
	}
	return refs, bad
}

// latenciesMs returns every outcome's latency from its due time, in ms.
func latenciesMs(outs []outcome) []float64 {
	out := make([]float64, len(outs))
	for i := range outs {
		out[i] = float64(outs[i].latency()) / 1e6
	}
	return out
}
