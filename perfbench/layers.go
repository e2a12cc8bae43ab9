package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"mega"
	"mega/internal/httpfront"
)

// perLayer lists every per-layer metric with its unit, in BENCHMARK.json
// order. A traced run reports all of them; a layer the workload does not
// exercise reads 0 (NOTES.md says which).
var perLayer = []struct{ name, unit string }{
	{"loadgen.late_p95_ms", "ms"},
	{"loadgen.sent", "count"},
	{"loadgen.conns", "count"},
	{"loadgen.error_ratio", "ratio"},
	{"loadgen.missed", "count"},
	{"httpfront.front_p50_ms", "ms"},
	{"httpfront.resp_bytes", "bytes"},
	{"serve.queue_wait_p95_ms", "ms"},
	{"serve.admitted", "count"},
	{"serve.rejected", "count"},
	{"serve.shed", "count"},
	{"serve.coalesced", "count"},
	{"serve.batched", "count"},
	{"serve.engine_runs_per_query", "ratio"},
	{"qcache.hit_ratio", "ratio"},
	{"qcache.evictions", "count"},
	{"recover.attempts_per_query", "ratio"},
	{"engine.run_seq_p50_ms", "ms"},
	{"engine.run_par_p50_ms", "ms"},
	{"engine.events_per_run", "count"},
	{"engine.par_events_per_run", "count"},
	{"engine.rounds_per_run", "count"},
	{"engine.checkpoints_per_run", "count"},
	{"ckptstore.writes_per_query", "count"},
	{"ckptstore.bytes_per_write", "bytes"},
	{"ckptstore.write_p50_ms", "ms"},
	{"ckptstore.failed", "count"},
	{"gen.window_build_s", "s"},
	{"bench.fig14_s", "s"},
	{"bench.fig16_s", "s"},
	{"bench.ablation-uarch_s", "s"},
	{"sim.mega_ms", "ms"},
	{"sim.jetstream_ms", "ms"},
	{"uarch.boe_ms", "ms"},
	{"uarch.stream_ms", "ms"},
	{"sim.host_ns_per_event", "ns"},
	{"trace.overhead_ms", "ms"},
}

// layerMetrics turns name→value into the result's metric map, filling
// every per-layer metric the workload did not measure with 0.
func layerMetrics(vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = metric{vals[m.name], m.unit}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			panic("perfbench: per-layer metric " + name + " is not in perLayer")
		}
	}
	return out
}

// layerInputs is what a traced serving run measured.
type layerInputs struct {
	nproc    int
	limitMs  float64
	traced   []outcome   // the traced open-loop pass
	untraced []outcome   // the untraced open-loop pass, same rate and size
	counted  [][]outcome // warm-up and both open-loop passes
	body     int64       // response body bytes read in the traced pass
	// Stats before the warm-up (sW) and around the traced pass (sT0,
	// sT1); metrics before the warm-up and after the traced pass.
	sW, sT0, sT1 *httpfront.StatsReply
	mW, mEnd     *mega.MetricsSnapshot
	replay       replayResult
	buildS       float64
}

// servingLayers derives the per-layer metrics of a traced serving run.
// Counts per engine run cover the warm-up and both open-loop passes (a
// seeded, fixed set of queries) so they repeat exactly for one seed;
// serve-, cache- and front-door metrics cover the traced pass.
func servingLayers(in layerInputs) map[string]metric {
	v := map[string]float64{}
	var late, front, qwait []float64
	var failed, ok int
	var wire int64
	for i := range in.traced {
		o := &in.traced[i]
		late = append(late, float64(o.sent.Sub(o.due))/1e6)
		if o.err != nil {
			failed++
			continue
		}
		ok++
		wire += o.wire
		qw, rt := time.Duration(o.rep.QueueWait), time.Duration(o.rep.RunTime)
		front = append(front, float64(o.end.Sub(o.qStart)-qw-rt)/1e6)
		qwait = append(qwait, float64(qw)/1e6)
	}
	v["loadgen.late_p95_ms"] = quantile(late, 0.95)
	v["loadgen.sent"] = float64(len(in.traced))
	v["loadgen.conns"] = float64(in.nproc)
	v["loadgen.error_ratio"] = ratio(float64(failed), float64(len(in.traced)))
	missed := 0
	for _, ms := range latenciesMs(in.traced) {
		if ms > in.limitMs {
			missed++
		}
	}
	v["loadgen.missed"] = float64(missed)
	v["httpfront.front_p50_ms"] = median(front)
	// The response body minus its report and request-id fields: the
	// encoded result the front door ships, which repeats exactly.
	v["httpfront.resp_bytes"] = ratio(float64(in.body-wire), float64(ok))
	v["serve.queue_wait_p95_ms"] = quantile(qwait, 0.95)

	d := func(f func(s *httpfront.StatsReply) uint64) float64 { return float64(f(in.sT1) - f(in.sT0)) }
	admitted := d(func(s *httpfront.StatsReply) uint64 { return s.Admitted })
	v["serve.admitted"] = admitted
	v["serve.rejected"] = d(func(s *httpfront.StatsReply) uint64 { return s.Rejected })
	v["serve.shed"] = d(func(s *httpfront.StatsReply) uint64 { return s.Shed })
	v["serve.coalesced"] = d(func(s *httpfront.StatsReply) uint64 { return s.CoalescedQueries })
	v["serve.batched"] = d(func(s *httpfront.StatsReply) uint64 { return s.BatchedQueries })
	v["serve.engine_runs_per_query"] = ratio(d(func(s *httpfront.StatsReply) uint64 { return s.EngineRuns }), admitted)
	v["qcache.hit_ratio"] = ratio(d(func(s *httpfront.StatsReply) uint64 { return s.Cache.Hits }),
		d(func(s *httpfront.StatsReply) uint64 { return s.Cache.Lookups }))
	v["qcache.evictions"] = float64(in.sT1.Cache.Evictions - in.sW.Cache.Evictions)

	var runSeq, runPar []float64
	for _, outs := range in.counted {
		for i := range outs {
			o := &outs[i]
			if !o.ran() {
				continue
			}
			ms := float64(time.Duration(o.rep.RunTime)) / 1e6
			switch o.rep.Engine {
			case "sequential":
				runSeq = append(runSeq, ms)
			case "parallel":
				runPar = append(runPar, ms)
			}
		}
	}
	// The service's sequential runs go through the multi-source engine
	// (counter label engine=multi); parallel runs are labelled parallel.
	dm := func(name, eng string) float64 {
		return float64(counter(in.mEnd, name, "engine", eng) - counter(in.mW, name, "engine", eng))
	}
	seqRuns := float64(len(runSeq))
	v["engine.run_seq_p50_ms"] = median(runSeq)
	v["engine.run_par_p50_ms"] = median(runPar)
	v["engine.events_per_run"] = ratio(dm("engine_events_processed", "multi"), seqRuns)
	v["engine.par_events_per_run"] = ratio(dm("engine_events_processed", "parallel"), float64(len(runPar)))
	v["engine.rounds_per_run"] = ratio(dm("engine_rounds", "multi"), seqRuns)
	v["engine.checkpoints_per_run"] = ratio(dm("checkpoint_taken", "multi"), seqRuns)

	r := in.replay
	v["recover.attempts_per_query"] = ratio(float64(r.attempts), float64(r.queries))
	v["ckptstore.writes_per_query"] = ratio(float64(r.writes), float64(r.queries))
	v["ckptstore.bytes_per_write"] = ratio(float64(r.bytes), float64(r.writes))
	v["ckptstore.write_p50_ms"] = median(r.writeMs)
	v["ckptstore.failed"] = float64(r.failed) + float64(in.sT1.Store.Failed-in.sW.Store.Failed)
	v["gen.window_build_s"] = in.buildS
	v["trace.overhead_ms"] = median(latenciesMs(in.traced)) - median(latenciesMs(in.untraced))
	return layerMetrics(v)
}

// replayResult is what the direct EvaluateRecover replay measured.
type replayResult struct {
	queries, attempts, writes, failed int
	bytes                             int64
	writeMs                           []float64
}

// replay evaluates pairs directly through mega.EvaluateRecover (span
// recover.evaluate), capturing every checkpoint through
// RecoverOptions.Sink, then writes the captured checkpoints into a
// scratch ckptstore.Store (spans ckptstore.write). The replayed values
// must match the gate's references.
func replay(win *mega.Window, pairs []pair, refs map[string]uint64, dir string, tr *tracer) (replayResult, []string) {
	var res replayResult
	var bad []string
	os.RemoveAll(dir)
	store, err := mega.OpenCheckpointStore(mega.CheckpointStoreConfig{Dir: dir})
	if err != nil {
		return res, []string{"replay store: " + err.Error()}
	}
	defer os.RemoveAll(dir)
	for i, p := range pairs {
		k, err := mega.ParseAlgorithm(p.algo)
		if err != nil {
			bad = append(bad, err.Error())
			continue
		}
		reqID := fmt.Sprintf("replay-%d", i)
		var ckpts [][]byte
		t0 := time.Now()
		root := tr.add("replay.query", reqID, 0, t0, t0)
		vals, rec, err := mega.EvaluateRecover(context.Background(), win, k, mega.VertexID(p.source), mega.BOE,
			mega.RecoverOptions{Sink: func(b []byte) error {
				ckpts = append(ckpts, append([]byte(nil), b...))
				return nil
			}})
		tr.add("recover.evaluate", reqID, root, t0, time.Now())
		if err != nil {
			bad = append(bad, fmt.Sprintf("replay %s: %v", p.key(), err))
			continue
		}
		if ref, ok := refs[p.key()]; ok && hashValues(vals) != ref {
			bad = append(bad, fmt.Sprintf("replay %s: values differ from EvaluateContext", p.key()))
		}
		res.queries++
		res.attempts += rec.Attempts
		tenant := p.tenant
		if tenant == "" {
			tenant = "default"
		}
		id, err := mega.CheckpointIDFor(win, k, mega.VertexID(p.source), tenant)
		if err != nil {
			bad = append(bad, fmt.Sprintf("replay %s: %v", p.key(), err))
			continue
		}
		for _, c := range ckpts {
			w0 := time.Now()
			if err := store.Write(id, c); err != nil {
				res.failed++
			}
			w1 := time.Now()
			tr.add("ckptstore.write", reqID, root, w0, w1)
			res.writes++
			res.bytes += int64(len(c))
			res.writeMs = append(res.writeMs, float64(w1.Sub(w0))/1e6)
		}
		tr.finish(root, time.Now())
		if err := store.Delete(id); err != nil {
			bad = append(bad, fmt.Sprintf("replay %s: delete: %v", p.key(), err))
		}
	}
	if err := store.Close(); err != nil {
		bad = append(bad, "replay store close: "+err.Error())
	}
	return res, bad
}
