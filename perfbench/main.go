// Command perfbench is the dmx engine's benchmark: three workloads driven
// through the public API, each checked for correct output, reporting
// end-to-end metrics from an untraced run and per-layer metrics from a
// traced one.
//
//	perfbench --workload oltp|scan|sharded --seed N --seconds S --trace 0|1
//
// Load comes from one process with at most two client goroutines, each in
// a closed loop: a client sends its next transaction only after the
// previous one returned. The engine's own tracer stays off; with --trace 1
// the benchmark records a span around every call it makes into an engine
// layer, keeps the spans in memory, and writes them to
// .bench_build/trace/<workload>.jsonl when the run ends.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {name: {"value": v, "unit": u}}}
//
// A failed output check prints "correct": false without metrics and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricDef names a reported metric. endToEnd metrics are printed by
// untraced runs, the rest by traced runs.
type metricDef struct {
	name     string
	unit     string
	endToEnd bool
}

var metricDefs = []metricDef{
	{"setup_s", "s", true},
	{"txn_per_s", "1/s", true},
	{"rows_per_s", "1/s", true},
	{"read_p50_us", "us", true},
	{"heap_mb", "MB", true},

	{"read_p99_us", "us", false},
	{"write_p50_us", "us", false},
	{"write_p99_us", "us", false},
	{"join_p50_us", "us", false},
	{"scan_p50_us", "us", false},
	{"scan_p90_us", "us", false},
	{"fail_frac", "ratio", false},
	{"recover_s", "s", false},

	{"core.lookup_us", "us", false},
	{"core.fetch_us", "us", false},
	{"core.insert_us", "us", false},
	{"core.update_us", "us", false},
	{"core.delete_us", "us", false},
	{"core.scan_row_ns", "ns", false},
	{"txn.commit_us", "us", false},
	{"lock.requests_per_txn", "count", false},
	{"lock.waits_per_txn", "count", false},
	{"lock.wait_us_per_txn", "us", false},
	{"lock.deadlocks", "count", false},
	{"wal.appends_per_txn", "count", false},
	{"wal.bytes_per_row", "B", false},
	{"wal.commits_per_sync", "count", false},
	{"wal.ckpt_ms", "ms", false},
	{"wal.ckpt_busy_frac", "ratio", false},
	{"wal.len_records", "count", false},
	{"wal.redo_records", "count", false},
	{"att.calls_per_write", "count", false},
	{"sm.heap.chain_walks_per_read", "count", false},
	{"sm.heap.allocs_per_row_scanned", "count", false},
	{"buffer.hit_ratio", "ratio", false},
	{"buffer.misses_per_query", "count", false},
	{"buffer.evictions_per_query", "count", false},
	{"plan.plan_us", "us", false},
	{"plan.exec_row_ns", "ns", false},
	{"plan.parallel_scans", "count", false},
	{"plan.hash_joins", "count", false},
	{"ddl.exec_us", "us", false},
	{"remote.msgs_per_txn", "count", false},
	{"partsm.prepares_per_txn", "count", false},
	{"partsm.fetch_us", "us", false},
	{"partsm.insert_us", "us", false},
	{"partsm.scan_row_ns", "ns", false},
	{"remotesm.fetch_us", "us", false},
	{"remotesm.insert_us", "us", false},
	{"self.bench_us_per_txn", "us", false},
	{"self.core_us_per_txn", "us", false},
	{"self.partsm_us_per_txn", "us", false},
	{"self.remotesm_us_per_txn", "us", false},
	{"self.txn_us_per_txn", "us", false},
	{"self.plan_us_per_txn", "us", false},
	{"self.ddl_us_per_txn", "us", false},
	{"self.wal_us_per_txn", "us", false},
	{"trace.spans_per_txn", "count", false},
	{"trace.overhead_frac", "ratio", false},
}

// config is one run's settings.
type config struct {
	seed     int64
	window   time.Duration
	tracing  bool
	tiny     bool   // test scale
	dir      string // scratch directory for the run's files
	traceOut string // span file written at the end of a traced run ("" = none)
	log      io.Writer
}

// outcome is a workload's checked result: every metric it measured and
// a description of its inputs for the environment record.
type outcome struct {
	attempted, failed int64
	window            time.Duration // timed window, from start to the last client's stop
	clients           int
	metrics           map[string]float64
	info              map[string]any
}

var workloads = map[string]func(config) (*outcome, error){
	"oltp":    runOLTP,
	"scan":    runScan,
	"sharded": runSharded,
}

// setupRepeats is how many times a run builds its database; setup_s is
// the median and the last build is the one measured.
const setupRepeats = 5

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "oltp", "workload: oltp, scan or sharded")
	seed := fs.Int64("seed", 1, "input generator seed")
	seconds := fs.Float64("seconds", 10, "length of the timed window")
	traceFlag := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *workload, *seconds, *traceFlag)
		return 2
	}
	dir := filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	cfg := config{
		seed:    *seed,
		window:  time.Duration(*seconds * float64(time.Second)),
		tracing: *traceFlag == 1,
		dir:     dir,
		log:     stderr,
	}
	if cfg.tracing {
		cfg.traceOut = filepath.Join(".bench_build", "trace", *workload+".jsonl")
	}
	out, err := fn(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		if isCheck(err) {
			writeJSON(stdout, resultOut{Correct: false, Metrics: map[string]metricOut{}})
		}
		return 1
	}
	writeJSON(stdout, map[string]any{"env": environment(*workload, cfg, out.info)})
	res, err := report(out, cfg.tracing)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(stdout, "%-34s %14.4f %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	writeJSON(stdout, res)
	return 0
}

// report selects the metrics a run prints: the end-to-end set untraced,
// the per-layer set traced.
func report(out *outcome, traced bool) (resultOut, error) {
	res := resultOut{Correct: true, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricOut{}}
	if res.Attempted < 1 {
		return res, fmt.Errorf("no transaction attempted")
	}
	for _, d := range metricDefs {
		if d.endToEnd == traced {
			continue
		}
		v, ok := out.metrics[d.name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	return res, nil
}

// environment describes where and on what a result was measured.
func environment(workload string, cfg config, info map[string]any) map[string]any {
	source := os.Getenv("DMX_BENCH_SOURCE")
	if source == "" {
		source = "unknown"
	}
	return map[string]any{
		"source":     source,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"workload":   workload,
		"seed":       cfg.seed,
		"seconds":    cfg.window.Seconds(),
		"traced":     cfg.tracing,
		"inputs":     info,
	}
}

func writeJSON(w io.Writer, v any) {
	b, _ := json.Marshal(v)
	fmt.Fprintf(w, "%s\n", b)
}
