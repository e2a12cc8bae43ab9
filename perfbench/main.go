// Command perfbench is the repository benchmark. It drives the real
// megaserve binary over loopback (workloads fresh, hot and durable) or
// the megabench paper sweep (workload paper), checks every output for
// correctness, and prints one JSON result line as the last line of its
// standard output. NOTES.md describes the workloads, the metrics and the
// layer each per-layer metric attributes.
//
// Usage (normally through run.sh, which builds the binaries first):
//
//	perfbench -bin DIR -work DIR -rate fresh=R,... -limit-ms fresh=L,... \
//	          --workload NAME --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, and the spans the run
// recorded are written to the work directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// timed is the sample count behind p50_ms and p95_ms.
	timed int
}

// host records the machine a result was measured on.
type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
}

func hostRecord() host {
	var u syscall.Utsname
	kernel := "unknown"
	if syscall.Uname(&u) == nil {
		b := make([]byte, 0, len(u.Release))
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		kernel = string(b)
	}
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     kernel,
	}
}

// config is the parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	bin      string
	work     string
	rate     float64 // offered open-loop rate, queries per second
	limitMs  float64 // latency limit for sat_qps
}

// perWorkload parses "fresh=40,hot=120" into a map.
func perWorkload(s string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("bad per-workload value %q (want name=number)", part)
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f <= 0 {
			return nil, fmt.Errorf("bad per-workload value %q", part)
		}
		out[k] = f
	}
	return out, nil
}

func parseConfig(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var c config
	var trace int
	var rates, limits string
	fs.StringVar(&c.workload, "workload", "", "workload: fresh, hot, durable or paper")
	fs.Int64Var(&c.seed, "seed", 1, "workload seed")
	fs.IntVar(&c.seconds, "seconds", 12, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&c.bin, "bin", "", "directory holding the megaserve and megabench binaries")
	fs.StringVar(&c.work, "work", "", "scratch directory for state dirs and span files")
	fs.StringVar(&rates, "rate", "", "open-loop offered rate per serving workload, name=qps,...")
	fs.StringVar(&limits, "limit-ms", "", "latency limit per workload, name=ms,...")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if c.bin == "" || c.work == "" {
		return c, fmt.Errorf("-bin and -work are required")
	}
	if c.seconds < 1 {
		return c, fmt.Errorf("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return c, fmt.Errorf("--trace must be 0 or 1")
	}
	c.trace = trace == 1
	rm, err := perWorkload(rates)
	if err != nil {
		return c, err
	}
	lm, err := perWorkload(limits)
	if err != nil {
		return c, err
	}
	switch c.workload {
	case "fresh", "hot", "durable":
		if c.rate = rm[c.workload]; c.rate == 0 {
			return c, fmt.Errorf("-rate names no rate for workload %q", c.workload)
		}
	case "paper":
	default:
		return c, fmt.Errorf("unknown workload %q (want fresh, hot, durable or paper)", c.workload)
	}
	if c.limitMs = lm[c.workload]; c.limitMs == 0 {
		return c, fmt.Errorf("-limit-ms names no limit for workload %q", c.workload)
	}
	return c, nil
}

func main() {
	cfg, err := parseConfig(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	// The load generator is one process capped at the host's CPU count.
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	var res *result
	var tr *tracer
	if cfg.workload == "paper" {
		res, tr, err = runPaper(cfg)
	} else {
		res, tr, err = runServing(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	h := hostRecord()
	if tr != nil {
		path := filepath.Join(cfg.work, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
		if err := tr.write(path, h); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "perfbench: wrote %d spans to %s\n", tr.len(), path)
	}
	hb, _ := json.Marshal(map[string]any{
		"host": h, "workload": cfg.workload, "seed": cfg.seed, "trace": cfg.trace, "latency_samples": res.timed,
	})
	fmt.Println(string(hb))
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// quantile returns the q-quantile (nearest rank) of xs, or 0 when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median is the middle value of xs (the mean of the two middle values
// for an even count), or 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
