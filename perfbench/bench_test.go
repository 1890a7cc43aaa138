package main

import (
	"bufio"
	"encoding/json"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"dmx"
	"dmx/internal/plan"
	"dmx/internal/types"
)

// runTiny runs a workload at test scale and returns its outcome and the
// span file of a traced run.
func runTiny(t *testing.T, name string, seed int64, traced bool) (*outcome, string) {
	t.Helper()
	dir := t.TempDir()
	cfg := config{seed: seed, window: 400 * time.Millisecond, tracing: traced, tiny: true,
		dir: dir, log: io.Discard}
	if traced {
		cfg.traceOut = filepath.Join(dir, "spans.jsonl")
	}
	out, err := workloads[name](cfg)
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	if out.attempted < 1 || out.failed != 0 {
		t.Fatalf("%s seed %d: attempted %d, failed %d", name, seed, out.attempted, out.failed)
	}
	return out, cfg.traceOut
}

func metricNames(res resultOut) []string {
	var names []string
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Every workload passes its output checks at tiny scale on two seeds and
// emits every named metric, the same set on both seeds.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			var sets [2][]string
			for i, seed := range []int64{1, 2} {
				out, _ := runTiny(t, name, seed, false)
				e2e, err := report(out, false)
				if err != nil {
					t.Fatal(err)
				}
				layer, err := report(out, true)
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range e2e.Metrics {
					if m.Value <= 0 {
						t.Errorf("seed %d: end-to-end metrics must be positive: %+v", seed, e2e.Metrics)
						break
					}
				}
				sets[i] = append(metricNames(e2e), metricNames(layer)...)
			}
			if len(sets[0]) != len(metricDefs) || len(sets[0]) != len(sets[1]) {
				t.Fatalf("metric sets differ: %v vs %v (want %d)", sets[0], sets[1], len(metricDefs))
			}
		})
	}
}

// The traced run writes spans whose per-layer self times are
// non-negative and, per client, add up to no more than the window.
func TestTracedRunSelfTimes(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			out, path := runTiny(t, name, 3, true)
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			spans := map[int][]span{}
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				var s span
				if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
					t.Fatal(err)
				}
				spans[s.Client] = append(spans[s.Client], s)
			}
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
			if len(spans) != out.clients {
				t.Fatalf("spans from %d clients, want %d", len(spans), out.clients)
			}
			for c, ss := range spans {
				var total int64
				for layer, ns := range selfTimes(ss) {
					if ns < 0 {
						t.Errorf("client %d: layer %s self time %d ns", c, layer, ns)
					}
					total += ns
				}
				if total > out.window.Nanoseconds() {
					t.Errorf("client %d: self times sum to %v, window %v", c, time.Duration(total), out.window)
				}
				for _, s := range ss {
					if s.End < s.Start || (s.Parent >= 0 && ss[s.Parent].Txn != s.Txn) {
						t.Fatalf("client %d: malformed span %+v", c, s)
					}
				}
			}
			if out.metrics["trace.spans_per_txn"] <= 1 {
				t.Errorf("trace.spans_per_txn = %v", out.metrics["trace.spans_per_txn"])
			}
		})
	}
}

// selfTimes recomputes one client's self time per layer from its spans: a
// span's duration minus the time its children cover.
func selfTimes(ss []span) map[string]int64 {
	child := make([]int64, len(ss))
	for _, s := range ss {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]int64{}
	for i, s := range ss {
		self[layerOf(s.Name)] += s.End - s.Start - child[i]
	}
	return self
}

// On scan, snapshot queries take no locks and log nothing; the only lock
// requests and log records come from the SQL statement's autocommit
// transaction (2 of each per rotation of 4 queries).
func TestScanSnapshotsBypassLocksAndLog(t *testing.T) {
	out, _ := runTiny(t, "scan", 1, false)
	for _, name := range []string{"lock.requests_per_txn", "wal.appends_per_txn"} {
		if v := out.metrics[name]; v > 0.51 {
			t.Errorf("%s = %v on scan", name, v)
		}
	}
}

// The forced-scan cross-check catches a B-tree that a stale relation
// handle never maintained.
func TestCrossCheckCatchesStaleHandle(t *testing.T) {
	d := newScanData(scanSizes(true), 1)
	db, err := dmx.Open(dmx.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec("CREATE TABLE fact (id INT NOT NULL, grp INT, dk INT, val INT, pad STRING) USING heap"); err != nil {
		t.Fatal(err)
	}
	stale, err := db.Relation("fact")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("CREATE INDEX fact_id ON fact (id)"); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for id := 0; id < d.sz.rows; id++ {
		if _, err := stale.Insert(tx, d.record(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	cl := &scanClient{d: d, db: db, planner: plan.New(db.Env), rng: rand.New(rand.NewSource(1)), rec: newRecorder(0, false, newErrorLog(io.Discard))}
	if _, err := cl.crossCheck(); !isCheck(err) {
		t.Fatalf("cross-check over a stale index: got %v, want a failed check", err)
	}
}

func TestCheckRange(t *testing.T) {
	d := newScanData(scanSizes(true), 1)
	row := func(id int) types.Record { return types.Record{types.Int(int64(id)), types.Int(d.val[id])} }
	if err := checkRange([]types.Record{row(5), row(4)}, 4, 2, d); err != nil {
		t.Fatal(err)
	}
	for _, rows := range [][]types.Record{{row(4)}, {row(4), row(4)}, {row(4), row(6)}} {
		if err := checkRange(rows, 4, 2, d); !isCheck(err) {
			t.Errorf("checkRange(%v) = %v", rows, err)
		}
	}
}

func TestQuantile(t *testing.T) {
	s := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0, 1}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("empty quantile")
	}
}

// BENCHMARK.json at the repository root names the same metrics, with the
// same units, in the same end-to-end and per-layer sets.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("BENCHMARK.json not beside perfbench:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	want := map[string]metricDef{}
	for _, d := range metricDefs {
		want[d.name] = d
	}
	check := func(name, unit string, e2e bool) {
		d, ok := want[name]
		if !ok || d.unit != unit || d.endToEnd != e2e {
			t.Errorf("BENCHMARK.json metric %s (%s, end-to-end %v) does not match %+v", name, unit, e2e, d)
		}
		delete(want, name)
	}
	for _, m := range spec.EndToEnd {
		check(m.Name, m.Unit, true)
	}
	for _, m := range spec.PerLayer {
		check(m.Name, m.Unit, false)
	}
	for name := range want {
		t.Errorf("metric %s missing from BENCHMARK.json", name)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, want %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
}
