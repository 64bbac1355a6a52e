// Command perfbench is the repository's end-to-end benchmark. It drives
// three workloads through the public entry points of the scenario packages
// and prints, as the last line of standard output, one JSON object with
// the run's correctness verdict, op counts and metrics:
//
//	bash perfbench/run.sh --workload wireless-grid --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with tracing
// off. With --trace 1 it traces every other op of the window and reports
// the per-layer metrics, the layers' self times and the tracing overhead;
// the spans go to .bench_build/traces/. See README.md for the
// workloads, the metrics and why they were chosen.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// layerUnits lists every per-layer metric a traced run reports, with its
// unit. Counts and times are per op unless the name says otherwise; a
// layer the workload does not pass through reports 0.
var layerUnits = map[string]string{
	"colog.parse_ms":         "ms",
	"analysis.analyze_ms":    "ms",
	"cluster.spawn_ms":       "ms",
	"cluster.epochs":         "count",
	"cluster.exec_ms":        "ms",
	"cluster.barrier_ms":     "ms",
	"cluster.flush_ms":       "ms",
	"cluster.parallelism":    "x",
	"cluster.agg_msgs":       "count",
	"cluster.restart_p50_ms": "ms",
	"cluster.restart_p90_ms": "ms",
	"core.ground_ms":         "ms",
	"core.ground_full_pct":   "%",
	"core.solves":            "count",
	"core.tick_other_ms":     "ms",
	"core.resync_rows":       "count",
	"core.resync_bytes":      "bytes",
	"solver.search_ms":       "ms",
	"solver.nodes":           "count",
	"transport.msgs":         "count",
	"transport.bytes":        "bytes",
	"serve.tick_p50_ms":      "ms",
	"serve.tick_p99_ms":      "ms",
	"serve.ticks":            "count",
	"serve.coalesced_pct":    "%",
	"serve.rejected":         "count",
	"serve.degraded_ticks":   "count",
	"serve.queue_depth_max":  "count",
	"serve.gen_late_max_ms":  "ms",
	"store.log_records":      "count",
	"store.log_bytes":        "bytes",
	"store.files":            "count",
	"gc.alloc_mb_per_op":     "MB",
	"gc.cpu_pct":             "%",
	"self.scenario_ms":       "ms",
	"self.epoch_ms":          "ms",
	"self.exec_ms":           "ms",
	"self.barrier_ms":        "ms",
	"self.offer_ms":          "ms",
	"self.tick_ms":           "ms",
	"self.ground_ms":         "ms",
	"self.search_ms":         "ms",
	"self.stop_ms":           "ms",
	"self.restart_ms":        "ms",
	"self.settle_ms":         "ms",
	"trace.overhead_ms":      "ms",
	"trace.overhead_pct":     "%",
	"host.load1":             "load",
	"host.steal_pct":         "%",
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	// workers is the epoch worker-pool size: the load is driven from this
	// one process with at most nproc (and at most 2) worker goroutines.
	workers int
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// opsWindow is one timed window: its ops, their latencies and outcomes,
// and the process counters over it.
type opsWindow struct {
	lat       []time.Duration // untraced ops
	tracedLat []time.Duration // traced ops (--trace 1 only)
	attempted int
	failed    int
	use       window
	// layer holds per-layer values already normalized per op.
	layer map[string]float64
	spans *tracer
	// harnessCPU is CPU time the benchmark itself spent inside the window.
	harnessCPU time.Duration
}

// record notes one op's latency.
func (w *opsWindow) record(lat time.Duration, traced bool) {
	if traced {
		w.tracedLat = append(w.tracedLat, lat)
	} else {
		w.lat = append(w.lat, lat)
	}
}

func (w *opsWindow) fail(n int, format string, args ...any) {
	w.failed += n
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// outcome is what a workload hands back to main.
type outcome struct {
	setupS float64
	// tail is the latency percentile reported as op_tail_ms: the highest
	// with at least ten samples beyond it at the workload's op count.
	tail      float64
	window    *opsWindow
	static    map[string]float64
	incorrect []string
	// health holds workload-specific harness facts for the host line.
	health map[string]any
}

type workloadFunc func(cfg config) (*outcome, error)

var workloads = map[string]workloadFunc{
	"wireless-grid":     runWireless,
	"acloud-serve":      runACloud,
	"followsun-durable": runFollowSun,
}

func main() {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (wireless-grid, acloud-serve, followsun-durable)")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload input seed")
	flag.IntVar(&seconds, "seconds", 30, "length of the timed window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 traces every other op and reports per-layer metrics")
	flag.Parse()
	run, ok := workloads[cfg.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload one of %v, --seconds >= 1, --trace 0|1\n", names())
		os.Exit(2)
	}
	cfg.window = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	cfg.workers = min(2, runtime.NumCPU())

	load0 := loadAvg1()
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	// Host and harness health, so that a noisy host can be told apart
	// from a slow program.
	host := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "nproc": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"load1_start": load0, "load1_end": loadAvg1(),
		"steal_pct": out.window.use.stealPct, "workers": cfg.workers,
		"gen_late_max_ms": out.window.layer["serve.gen_late_max_ms"],
	}
	for k, v := range out.health {
		host[k] = v
	}
	res := result(cfg, out)
	if err := printJSON(map[string]any{"host": host, "incorrect": out.incorrect}); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if cfg.trace {
		path := fmt.Sprintf(".bench_build/traces/%s-seed%d.jsonl", cfg.workload, cfg.seed)
		if err := out.window.spans.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
	}
	if err := printJSON(res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func names() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}

// result assembles the final JSON object: the end-to-end metrics, or
// with tracing the per-layer metrics.
func result(cfg config, out *outcome) map[string]any {
	w := out.window
	failed := w.failed
	if len(out.incorrect) > 0 {
		failed = w.attempted
	}
	ops := float64(max(1, w.attempted))
	m := map[string]metric{}
	if !cfg.trace {
		m["setup_s"] = metric{out.setupS, "s"}
		m["op_p50_ms"] = metric{pct(w.lat, 0.5), "ms"}
		m["op_tail_ms"] = metric{pct(w.lat, out.tail), "ms"}
		m["cpu_ms_per_op"] = metric{ms(w.use.cpu) / ops, "ms"}
		m["peak_rss_mb"] = metric{w.use.peakMB, "MB"}
		m["ok_pct"] = metric{100 * float64(w.attempted-failed) / ops, "%"}
	} else {
		vals := map[string]float64{}
		for k, v := range out.static {
			vals[k] = v
		}
		for k, v := range w.layer {
			vals[k] = v
		}
		for name, d := range w.spans.selfTimes() {
			vals["self."+name+"_ms"] = ms(d) / float64(max(1, len(w.tracedLat)))
		}
		vals["gc.alloc_mb_per_op"] = w.use.allocMB / ops
		vals["gc.cpu_pct"] = w.use.gcPct
		untracedP50, tracedP50 := pct(w.lat, 0.5), pct(w.tracedLat, 0.5)
		vals["trace.overhead_ms"] = tracedP50 - untracedP50
		if untracedP50 > 0 {
			vals["trace.overhead_pct"] = 100 * (tracedP50 - untracedP50) / untracedP50
		}
		vals["host.load1"] = loadAvg1()
		vals["host.steal_pct"] = w.use.stealPct
		for name, unit := range layerUnits {
			m[name] = metric{vals[name], unit}
		}
		for name := range vals {
			if _, ok := layerUnits[name]; !ok {
				fmt.Fprintf(os.Stderr, "perfbench: unlisted per-layer metric %s\n", name)
			}
		}
	}
	return map[string]any{
		"correct":   len(out.incorrect) == 0,
		"attempted": w.attempted,
		"failed":    failed,
		"metrics":   m,
	}
}

// errFirstDecision stops a scenario at its first decision; set-up
// measurements return it from the AfterEpoch hook.
var errFirstDecision = errors.New("perfbench: first decision reached")
