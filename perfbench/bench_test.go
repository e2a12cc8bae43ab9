package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests check.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json's per-layer list
// and units in step with what a traced run reports.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the harness reports %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s %s, harness reports %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	want := map[string]string{"setup_s": "s", "p50_ms": "ms", "p95_ms": "ms", "sat_qps": "1/s", "sweep_s": "s", "rss_mb": "MiB"}
	if len(bj.EndToEnd) != len(want) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, want %d", len(bj.EndToEnd), len(want))
	}
	for _, m := range bj.EndToEnd {
		if want[m.Name] != m.Unit {
			t.Errorf("end_to_end %s %s: the harness reports unit %q", m.Name, m.Unit, want[m.Name])
		}
	}
	for _, w := range bj.Workloads {
		if _, err := parseConfig(append(benchmarkArgs(t), "-bin", "b", "-work", "w", "--workload", w.Name)); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
	}
}

// benchmarkArgs returns the harness flags BENCHMARK.json's command fixes
// (everything after the script path).
func benchmarkArgs(t *testing.T) []string {
	t.Helper()
	bj := readBenchmarkJSON(t)
	for i, a := range bj.Command {
		if filepath.Base(a) == "run.sh" {
			return bj.Command[i+1:]
		}
	}
	t.Fatalf("BENCHMARK.json command %q does not run run.sh", bj.Command)
	return nil
}

// deterministic are the per-layer counts that must repeat exactly for
// one seed. Parallel-engine event counts depend on host shape and are
// reported, not asserted.
var deterministic = []string{
	"engine.events_per_run",
	"engine.rounds_per_run",
	"engine.checkpoints_per_run",
	"ckptstore.writes_per_query",
	"ckptstore.bytes_per_write",
	"httpfront.resp_bytes",
	"recover.attempts_per_query",
}

// TestDeterministicCounts runs each serving workload twice, traced, with
// one seed, and requires the deterministic per-layer counts to match
// exactly and every correctness gate to pass.
func TestDeterministicCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("starts megaserve several times per workload")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin, "mega/cmd/megaserve")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building megaserve: %v\n%s", err, out)
	}
	for _, wl := range []string{"fresh", "hot", "durable"} {
		t.Run(wl, func(t *testing.T) {
			var runs [2]map[string]metric
			for i := range runs {
				args := append(benchmarkArgs(t), "-bin", bin, "-work", t.TempDir(),
					"--workload", wl, "--seed", "7", "--seconds", "2", "--trace", "1")
				cfg, err := parseConfig(args)
				if err != nil {
					t.Fatal(err)
				}
				res, _, err := runServing(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 {
					t.Fatalf("run %d: correct=%t failed=%d", i, res.Correct, res.Failed)
				}
				runs[i] = res.Metrics
			}
			for _, name := range deterministic {
				a, b := runs[0][name].Value, runs[1][name].Value
				if a != b {
					t.Errorf("%s: %v then %v with the same seed", name, a, b)
				}
			}
			if v := runs[0]["engine.events_per_run"].Value; v == 0 {
				t.Errorf("engine.events_per_run = 0: no sequential engine run was counted")
			}
		})
	}
}
