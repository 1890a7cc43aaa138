// Command dmxbench regenerates the experiment tables of EXPERIMENTS.md.
//
// The paper (SIGMOD 1987) contains no quantitative tables — its two
// figures are architecture diagrams — so the experiment suite turns each
// performance claim in the text into a measured comparison (see DESIGN.md
// for the claim → experiment mapping). Figures 1 and 2 are reproduced as
// executable demonstrations by examples/quickstart and examples/bank.
//
// Usage:
//
//	dmxbench [-run E4] [-scale 1.0]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dmx"
	"dmx/internal/att/check"
	"dmx/internal/core"
	"dmx/internal/expr"
	"dmx/internal/lock"
	"dmx/internal/plan"
	"dmx/internal/remote"
	"dmx/internal/rig"
	"dmx/internal/sm/smutil"
	"dmx/internal/txn"
	"dmx/internal/types"
	"dmx/internal/wal"
)

var scale = flag.Float64("scale", 1.0, "scale workload sizes")

// n scales a workload size; every size is at least 1, so no experiment
// divides by zero at small scales.
func n(base int) int { return max(1, int(float64(base)**scale)) }

// best3 runs fn three times and returns the fastest run (reduces GC and
// scheduler noise in the scan-bound measurements).
func best3(fn func()) time.Duration {
	best := rig.Time(fn)
	for i := 0; i < 2; i++ {
		if d := rig.Time(fn); d < best {
			best = d
		}
	}
	return best
}

// timed runs op once and returns its wall time.
func timed(op func() error) time.Duration {
	var err error
	d := rig.Time(func() { err = op() })
	must(err)
	return d
}

// repeat returns an operation that runs op m times.
func repeat(m int, op func() error) func() error {
	return func() error {
		for i := 0; i < m; i++ {
			if err := op(); err != nil {
				return err
			}
		}
		return nil
	}
}

// must panics when an experiment's operation failed.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

type experiment struct {
	id   string
	desc string
	run  func() []*rig.Table
}

func main() {
	runOnly := flag.String("run", "", "run only the experiment with this id (e.g. E4)")
	flag.Parse()

	experiments := []experiment{
		{"E1", "extension activation: procedure vectors vs alternatives", e1Dispatch},
		{"E2", "tuple-at-a-time join call volume", e2Join},
		{"E3", "bound plans vs re-translation per execution", e3BoundPlans},
		{"E4", "early predicate evaluation (filter pushdown)", e4Filter},
		{"E5", "attached-procedure overhead per modification", e5Attachments},
		{"E6", "access path selection by extension cost estimates", e6AccessPaths},
		{"E7", "alternative relation storage methods", e7StorageMethods},
		{"E8", "veto undo and partial rollback cost", e8VetoRollback},
		{"E9", "immediate vs deferred constraint checking", e9Deferred},
		{"E10", "cascading deletes through attachment recursion", e10Cascade},
		{"E11", "record-structured relation descriptor overhead", e11Descriptor},
		{"E12", "common lock manager under contention", e12Locking},
		{"MT", "concurrent commit throughput: group commit and sharded hot paths", mtGroupCommit},
		{"SELFOBS", "per-transaction resource accounting: overhead with counters on vs off", selfObs},
		{"MVCC", "snapshot reads: locked vs lock-free read-only throughput", mvccReads},
		{"INGEST", "LSM tiered ingest: sustained writes, tombstones, bloom-filtered point reads", ingestLSM},
		{"PAR", "partitioned parallel scan and hash join vs serial execution", parExec},
		{"PART", "hash-sharded relations: routed access, scatter-gather, two-phase commit", partRouting},
		{"A1", "ablation: skipping index maintenance when no indexed field changed", a1SkipUnchanged},
		{"A2", "ablation: remote scan batch size", a2RemoteBatch},
		{"A3", "ablation: ORDER BY via ordered access path vs scan + sort", a3OrderedAccess},
		{"OBS", "engine-wide observability snapshot after a mixed workload", obsSnapshot},
		{"TRACE", "span-tracing overhead at off / 1% / 100% sampling", traceOverhead},
		{"CRASH", "restart replay cost vs checkpoint interval", crashRecovery},
	}
	for _, ex := range experiments {
		if *runOnly != "" && !strings.EqualFold(*runOnly, ex.id) {
			continue
		}
		fmt.Printf("\n=== %s: %s ===\n", ex.id, ex.desc)
		for _, table := range ex.run() {
			table.Fprint(os.Stdout)
		}
		runtime.GC() // isolate experiments from each other's garbage
	}
}

// --- E1: extension activation ---

func e1Dispatch() []*rig.Table {
	const iters = 5_000_000
	d := rig.NewDispatch()
	t := rig.NewTable("E1 — activating the extension operation for a descriptor (per call)",
		"dispatch mechanism", "ns/op", "relative")
	t.Note = `"vectors of routine entry points ... makes the activation of the appropriate extension quite efficient"`

	// Each loop calls its method directly, so the activation is not hidden
	// behind one more indirect call.
	dDirect := rig.Time(func() {
		for i := 0; i < iters; i++ {
			d.Direct(i)
		}
	})
	dVector := rig.Time(func() {
		for i := 0; i < iters; i++ {
			d.Vector(i)
		}
	})
	dMap := rig.Time(func() {
		for i := 0; i < iters; i++ {
			d.ByID(i)
		}
	})
	dName := rig.Time(func() {
		for i := 0; i < iters; i++ {
			d.ByName(i)
		}
	})
	rel := func(d time.Duration) float64 { return float64(d) / float64(dVector) }
	t.Add("direct call (no selection)", float64(dDirect.Nanoseconds())/iters, rel(dDirect))
	t.Add("procedure vector (array index)", float64(dVector.Nanoseconds())/iters, rel(dVector))
	t.Add("map by small-int id", float64(dMap.Nanoseconds())/iters, rel(dMap))
	t.Add("map by extension name", float64(dName.Nanoseconds())/iters, rel(dName))
	return []*rig.Table{t}
}

// --- E2: tuple-at-a-time join call volume ---

func e2Join() []*rig.Table {
	outerN := n(2000)
	t := rig.NewTable("E2 — join of two moderate relations: extension calls and time",
		"strategy", "result rows", "extension calls", "time", "per row")
	t.Note = `"the join of two moderate sized relations can easily result in thousands of calls to storage method and attachment routines"`

	for s, label := range rig.JoinLabels {
		j := rig.NewJoin(outerN, s)
		callsBefore := dispatchCalls(j.Env)
		d := timed(j.Run)
		t.Add(label, j.Outer, dispatchCalls(j.Env)-callsBefore, d, rig.PerOp(d, j.Outer))
	}
	return []*rig.Table{t}
}

// dispatchCalls is the engine's total of extension calls so far: storage-
// method and attached-procedure modifications, fetches, and scans opened.
func dispatchCalls(env *core.Env) int64 {
	t := env.MetricsSnapshot().Totals
	return t.SMCalls + t.AttCalls + t.Fetches + t.Scans
}

// --- E3: bound plans ---

func e3BoundPlans() []*rig.Table {
	execs := n(2000)
	w := rig.NewBoundPlans(n(5000))
	dBound := timed(repeat(execs, w.Reused))
	dReplan := timed(repeat(execs, w.Replanned))

	t := rig.NewTable("E3 — executing a saved plan vs re-translating per execution",
		"mode", "executions", "total", "per execution", "relative")
	t.Note = `"retain the translations of queries ... avoids the non-trivial costs of accessing the relation descriptions and optimizing the query at execution time"`
	t.Add("bound plan, reused", execs, dBound, rig.PerOp(dBound, execs), 1.0)
	t.Add("plan + execute each time", execs, dReplan, rig.PerOp(dReplan, execs),
		float64(dReplan)/float64(dBound))

	// Invalidation: dropping the index forces exactly one re-translation.
	rig.WithTxn(w.Env, func(tx *txn.Txn) {
		if _, err := w.Env.DropAttachment(tx, "emp", "btree", core.AttrList{"name": "byeno"}); err != nil {
			panic(err)
		}
	})
	must(w.Reused())
	t2 := rig.NewTable("E3b — automatic re-translation after DDL invalidates the plan",
		"event", "re-translations", "new plan")
	t2.Add("DROP INDEX then next execution", w.Bound.Replans, w.Bound.Explain())
	return []*rig.Table{t, t2}
}

// --- E4: filter pushdown ---

func e4Filter() []*rig.Table {
	rows := n(30000)
	w := rig.NewFilter(rows)
	t := rig.NewTable("E4 — predicate evaluated in the buffer pool vs after copy-out",
		"selectivity", "matches", "pushdown", "copy-then-filter", "speedup")
	t.Note = `"allow filter predicates to be evaluated while the field values from the relation storage or access path are still in the buffer pool"`

	for _, sel := range []struct {
		label string
		limit int
	}{
		{"0.1%", rows / 1000},
		{"1%", rows / 100},
		{"10%", rows / 10},
		{"100%", rows},
	} {
		dPush := best3(func() { must(w.Pushdown(sel.limit)) })
		dCopy := best3(func() { must(w.CopyThenFilter(sel.limit)) })
		t.Add(sel.label, sel.limit, dPush, dCopy, float64(dCopy)/float64(dPush))
	}
	return []*rig.Table{t}
}

// --- E5: attachment overhead ---

func e5Attachments() []*rig.Table {
	inserts := n(5000)
	t := rig.NewTable("E5 — insert cost as attachments accumulate",
		"configuration", "attachment types", "per insert", "attached calls/insert")
	t.Note = "attachment updates are performed implicitly as side effects of relation modification"

	for k := 0; k <= len(rig.AttachmentSteps); k++ {
		label := "bare relation"
		if k > 0 {
			label = rig.AttachmentSteps[k-1].Label
		}
		w := rig.NewAttachmentCost(k)
		callsBefore := w.Env.MetricsSnapshot().Totals.AttCalls
		d := timed(func() error { return w.InsertBatch(inserts) })
		calls := w.Env.MetricsSnapshot().Totals.AttCalls - callsBefore
		t.Add(label, k, rig.PerOp(d, inserts), float64(calls)/float64(inserts))
	}
	return []*rig.Table{t}
}

// --- E6: access path selection ---

func e6AccessPaths() []*rig.Table {
	t := rig.NewTable("E6 — planner choice vs forced storage-method scan",
		"query", "chosen plan", "chosen", "scan", "speedup")
	t.Note = `"a B-tree access path will return a low cost if there is a predicate on the key of the B-tree ... the R-tree access path will recognize the ENCLOSES predicate"`

	measure := func(label string, q *rig.AccessPath) {
		dChosen, dScan := timed(q.Chosen), timed(q.Scan)
		t.Add(label, q.Plan.Explain(), dChosen, dScan, float64(dScan)/float64(dChosen))
	}
	for i, q := range rig.NewAccessPaths(n(50000)) {
		measure(rig.AccessPathLabels[i], q)
	}
	measure("spatial: ENCLOSES window", rig.NewSpatial(n(20000)))
	return []*rig.Table{t}
}

// --- E7: storage methods ---

func e7StorageMethods() []*rig.Table {
	rows := n(10000)
	fetches := n(2000)

	t := rig.NewTable("E7 — the same workload across relation storage methods",
		"storage method", "insert/op", "fetch-by-key/op", "full scan", "page I/Os", "remote msgs")
	t.Note = "alternative implementations of the common relation abstraction (heap, B-tree, main-memory, publishing, foreign)"

	for _, c := range rig.StorageMethods {
		w := rig.NewStorageMethod(c.SM)
		inserts := rows
		if w.Server != nil {
			inserts = max(1, rows/10) // round trips make full size tedious
		}
		var keys []types.Key
		dInsert := timed(func() error {
			for i := 0; i < inserts; i++ {
				k, err := w.Insert()
				if err != nil {
					return err
				}
				keys = append(keys, k)
			}
			return w.Commit()
		})
		dFetch := timed(func() error {
			for i := 0; i < fetches; i++ {
				if _, err := w.Rel.Fetch(w.Tx(), keys[i%len(keys)], []int{0}, nil); err != nil {
					return err
				}
			}
			return w.Commit()
		})
		dScan := timed(w.ScanAll)
		ios := w.Env.Pool.Disk().Stats()
		msgs := int64(0)
		if w.Server != nil {
			msgs = w.Server.Messages.Load()
		}
		t.Add(c.Label, rig.PerOp(dInsert, inserts), rig.PerOp(dFetch, fetches), dScan,
			ios.Reads+ios.Writes, msgs)
	}
	return []*rig.Table{t}
}

// --- INGEST: LSM tiered ingest ---

// ingestLSM measures the append storage method's LSM shape against the
// in-place heap on a write-heavy workload: bulk ingest, scattered
// updates and deletes (tombstones on the LSM side), then random
// point reads across the accumulated runs. A second table reports the
// LSM internals — flush and merge counts, the bounded memtable
// high-water, resident runs, and the bloom filter's skip ratio on the
// point-read phase.
func ingestLSM() []*rig.Table {
	rows := n(30000)
	churn := rows / 10
	points := n(5000)
	const memBytes = 64 * 1024

	t := rig.NewTable("INGEST — LSM tiered ingest vs in-place heap",
		"storage method", "insert/op", "update/op", "delete/op", "point read/op", "full scan")
	t.Note = fmt.Sprintf("%d inserts (64B pad), %d updates, %d deletes, %d random fetches; append runs a %dKiB memtable, fanout 4, inline compaction",
		rows, churn, churn, points, memBytes/1024)

	var lsm *core.Env
	cases := []struct {
		name  string
		sm    string
		attrs core.AttrList
	}{
		{"heap", "heap", nil},
		{"append (lsm)", "append", core.AttrList{
			"memtable": strconv.Itoa(memBytes), "fanout": "4", "compact": "sync"}},
	}
	for _, c := range cases {
		env := core.NewEnv(core.Config{PoolFrames: 1024})
		rel := rig.MustCreate(env, "t", c.sm, c.attrs)
		var keys []types.Key
		dInsert := rig.Time(func() { keys = rig.Load(env, rel, rows, 64) })
		dUpdate := rig.Time(func() {
			tx := env.Begin()
			// Stride-7 targets stay below 0.7·rows, so they never collide
			// with the deleted tail.
			for i := 0; i < churn; i++ {
				k := keys[(i*7)%rows]
				if _, err := rel.Update(tx, k, rig.EmpRecord(i, 64)); err != nil {
					panic(err)
				}
			}
			if err := tx.Commit(); err != nil {
				panic(err)
			}
		})
		dDelete := rig.Time(func() {
			tx := env.Begin()
			for i := 0; i < churn; i++ {
				if err := rel.Delete(tx, keys[rows-1-i]); err != nil {
					panic(err)
				}
			}
			if err := tx.Commit(); err != nil {
				panic(err)
			}
		})
		live := rows - churn
		dPoint := rig.Time(func() {
			tx := env.Begin()
			for i := 0; i < points; i++ {
				if _, err := rel.Fetch(tx, keys[(i*13)%live], []int{0}, nil); err != nil {
					panic(err)
				}
			}
			tx.Commit()
		})
		dScan := rig.Time(func() {
			tx := env.Begin()
			scan, err := rel.OpenScan(tx, core.ScanOptions{Fields: []int{0}})
			if err != nil {
				panic(err)
			}
			if got := rig.Drain(scan); got != live {
				panic(fmt.Sprintf("scan saw %d records, want %d", got, live))
			}
			tx.Commit()
		})
		t.Add(c.name, rig.PerOp(dInsert, rows), rig.PerOp(dUpdate, churn),
			rig.PerOp(dDelete, churn), rig.PerOp(dPoint, points), dScan)
		if c.sm == "append" {
			// A closing major compaction folds every run into one, retiring
			// the delete tombstones the churn phase wrote.
			if err := rel.Storage().(interface{ CompactNow() error }).CompactNow(); err != nil {
				panic(err)
			}
			lsm = env
		}
	}

	s := lsm.Obs.Snapshot().LSM
	t2 := rig.NewTable("INGEST — LSM internals for the run above",
		"metric", "value")
	t2.Note = "the memtable high-water stays at the configured bound; blooms cut most per-run probes on point reads"
	t2.Add("memtable flushes", s.Flushes)
	t2.Add("entries flushed", s.FlushedEntries)
	t2.Add("merge rounds", s.Compactions)
	t2.Add("runs merged away", s.CompactedRuns)
	t2.Add("tombstones dropped (closing major merge)", s.TombstonesDropped)
	t2.Add("memtable bytes (high-water)", s.MemtableBytesMax)
	t2.Add("resident runs (now / high-water)", fmt.Sprintf("%d / %d", s.Runs, s.RunsMax))
	t2.Add("bloom probes (point-read phase)", s.BloomProbes)
	t2.Add("bloom skip ratio", fmt.Sprintf("%.3f", s.BloomSkipRatio))
	t2.Add("bloom false positives", s.BloomFalsePositives)
	return []*rig.Table{t, t2}
}

// --- E8: veto and partial rollback ---

func e8VetoRollback() []*rig.Table {
	w := rig.NewVeto()
	batch := n(2000)
	good := timed(func() error { return w.InsertBatch(batch) })
	vetoed := timed(func() error {
		if err := repeat(batch, w.InsertVetoed)(); err != nil {
			return err
		}
		return w.Commit()
	})
	t := rig.NewTable("E8 — cost of a vetoed modification (storage + 3 attachments undone by the log)",
		"outcome", "per modification", "relative")
	t.Note = `"any attachment can abort the relation operation ... the common recovery log is used to drive the storage method and attachment implementations to undo the partial effects"`
	t.Add("accepted insert", rig.PerOp(good, batch), 1.0)
	t.Add("vetoed insert (undo via log)", rig.PerOp(vetoed, batch), float64(vetoed)/float64(good))

	// Partial rollback cost vs amount of work undone.
	t2 := rig.NewTable("E8b — partial rollback to a savepoint",
		"records undone", "rollback time", "per record")
	for _, m := range []int{10, 100, 1000, 10000} {
		m := n(m)
		must(w.SavepointInserts(m))
		d := timed(w.RollbackSavepoint)
		must(w.Commit())
		t2.Add(m, d, rig.PerOp(d, m))
	}
	return []*rig.Table{t, t2}
}

// --- E9: deferred constraint checking ---

func e9Deferred() []*rig.Table {
	children := n(5000)
	t := rig.NewTable("E9 — immediate vs deferred referential checking (batch insert)",
		"timing", "children", "checks run", "total", "per child")
	t.Note = `"certain integrity constraints cannot be evaluated when a single modification occurs but must be evaluated after all of the modifications have been made"`

	for _, timing := range []string{"immediate", "deferred"} {
		w := rig.NewDeferred(timing)
		scansBefore := w.Env.MetricsSnapshot().Totals.Scans
		d := timed(func() error { return w.InsertBatch(children) })
		checks := w.Env.MetricsSnapshot().Totals.Scans - scansBefore
		t.Add(timing, children, checks, d, rig.PerOp(d, children))
	}
	return []*rig.Table{t}
}

// --- E10: cascading deletes ---

func e10Cascade() []*rig.Table {
	t := rig.NewTable("E10 — cascading delete down a referential chain (fanout 4)",
		"depth", "records deleted", "time", "per record")
	t.Note = `"attachments may access or modify other data in the database ... in this manner, modifications may cascade"`

	for depth := 1; depth <= 6; depth++ {
		c := rig.NewCascade(depth)
		d := timed(c.Delete)
		must(c.Commit())
		t.Add(depth, c.Records, d, rig.PerOp(d, c.Records))
	}
	return []*rig.Table{t}
}

// --- E11: descriptor overhead ---

func e11Descriptor() []*rig.Table {
	t := rig.NewTable("E11 — composite relation descriptor size and decode cost",
		"attachment types present", "encoded bytes", "decode ns/op")
	t.Note = `"this method ... effectively limits the number of different attachment types to a few dozen without beginning to incur significant storage overhead" (absent types cost two bytes each here)`

	for present := 0; present <= 10; present += 2 {
		enc := rig.NewDescriptor(present)
		const iters = 200000
		d := timed(repeat(iters, func() error { return rig.DecodeDescriptor(enc) }))
		t.Add(present, len(enc), float64(d.Nanoseconds())/iters)
	}
	return []*rig.Table{t}
}

// --- E12: locking ---

func e12Locking() []*rig.Table {
	txns := n(2000)
	t := rig.NewTable("E12 — lock manager throughput (X locks, 4 per txn)",
		"goroutines", "transactions", "total", "txn/s")
	t.Note = "all storage method and attachment implementations share the locking-based concurrency controller"

	for _, g := range []int{1, 2, 4, 8} {
		l := rig.NewLocking()
		d := timed(func() error {
			errs := make(chan error, g)
			for w := 0; w < g; w++ {
				go func() {
					var err error
					for i := 0; i < txns/g && err == nil; i++ {
						err = l.Txn(w, i)
					}
					errs <- err
				}()
			}
			var err error
			for w := 0; w < g; w++ {
				err = errors.Join(err, <-errs)
			}
			return err
		})
		total := (txns / g) * g
		t.Add(g, total, d, fmt.Sprintf("%.0f", float64(total)/d.Seconds()))
	}

	// Deadlock resolution: opposing lock orders, victims counted. The
	// request that closes the cycle is the victim, usually t2's (the sleep
	// lets t1's wait register first); either way the victim releases its
	// locks so the other transaction completes.
	t2 := rig.NewTable("E12b — system-wide deadlock detection", "pairs run", "deadlock victims", "completed txns")
	pairs := 200
	victims, completed := 0, 0
	mgr := lock.NewManager()
	tally := func(err error) {
		if err == nil {
			completed++
		} else if errors.Is(err, lock.ErrDeadlock) {
			victims++
		}
	}
	for i := 0; i < pairs; i++ {
		a, b := lock.RelResource(uint32(2*i)), lock.RelResource(uint32(2*i+1))
		t1, t2id := wal.TxnID(10_000+2*i), wal.TxnID(10_000+2*i+1)
		mgr.Acquire(t1, a, lock.ModeX)
		mgr.Acquire(t2id, b, lock.ModeX)
		errCh := make(chan error, 1)
		go func() {
			err := mgr.Acquire(t1, b, lock.ModeX)
			if err != nil {
				mgr.ReleaseAll(t1)
			}
			errCh <- err
		}()
		time.Sleep(50 * time.Microsecond)
		err2 := mgr.Acquire(t2id, a, lock.ModeX)
		if err2 != nil {
			mgr.ReleaseAll(t2id)
		}
		tally(err2)
		tally(<-errCh)
		mgr.ReleaseAll(t1)
		mgr.ReleaseAll(t2id)
	}
	t2.Add(pairs, victims, completed)
	return []*rig.Table{t, t2}
}

// --- MT: concurrent commit throughput ---

// mtGroupCommit measures the commit path under concurrency: worker
// sessions commit single-insert transactions against a file-backed log,
// sweeping worker count with group-commit batching off and on.
// Commits-per-fsync is the tell: above 1 means concurrent committers
// shared a single log force instead of each paying their own.
func mtGroupCommit() []*rig.Table {
	perWorker := n(300)
	t := rig.NewTable("MT — single-insert commit throughput (file-backed WAL, fsync per commit batch)",
		"workers", "batch window", "commits", "total", "commits/s", "fsyncs", "commits/fsync")
	t.Note = "the group-commit leader syncs once for every committer that arrived while the force was in flight; the sharded lock and buffer tables keep the rest of the path parallel"

	for _, window := range []time.Duration{0, 200 * time.Microsecond} {
		wlabel := "off"
		if window > 0 {
			wlabel = window.String()
		}
		for _, workers := range []int{1, 2, 4, 8} {
			dir, err := os.MkdirTemp("", "dmxbench-mt")
			if err != nil {
				panic(err)
			}
			db, err := dmx.Open(dmx.Config{
				LogPath:           filepath.Join(dir, "wal.log"),
				CommitBatchWindow: window,
				CheckpointEvery:   -1,
			})
			if err != nil {
				panic(err)
			}
			if _, err := db.Exec("CREATE TABLE t (id INT NOT NULL, v STRING) USING heap"); err != nil {
				panic(err)
			}
			commitsBefore := db.Env.Obs.WAL.GroupCommits.Load()
			batchesBefore := db.Env.Obs.WAL.GroupBatches.Load()
			var wg sync.WaitGroup
			d := rig.Time(func() {
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						s := db.NewSession()
						for i := 0; i < perWorker; i++ {
							if _, err := s.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, 'r')", w*1_000_000+i)); err != nil {
								panic(err)
							}
						}
					}(w)
				}
				wg.Wait()
			})
			commits := db.Env.Obs.WAL.GroupCommits.Load() - commitsBefore
			batches := db.Env.Obs.WAL.GroupBatches.Load() - batchesBefore
			cpf := float64(commits)
			if batches > 0 {
				cpf = float64(commits) / float64(batches)
			}
			db.Close()
			os.RemoveAll(dir)
			t.Add(workers, wlabel, commits, d,
				fmt.Sprintf("%.0f", float64(commits)/d.Seconds()),
				batches, fmt.Sprintf("%.2f", cpf))
		}
	}
	return []*rig.Table{t}
}

// --- SELFOBS: resource-accounting overhead ---

// selfObs measures what the per-transaction resource counters behind
// sys.stat_activity cost. Two workloads bracket the answer: the MT
// commit workload (file-backed WAL, 8 workers — the realistic case,
// where the fsync path dominates) and a tight single-session insert
// loop over an in-memory WAL (the adversarial case, where the atomic
// increments are the largest possible fraction of the work). Each is
// run with accounting enabled (the default) and disabled via
// txn.SetAccounting, which switches off the ledgers and the row counts
// only: the dispatch histograms stay on in both runs.
func selfObs() []*rig.Table {
	t := rig.NewTable("SELFOBS — per-transaction resource accounting overhead",
		"workload", "accounting", "commits", "total", "commits/s", "overhead")
	t.Note = "accounting is a handful of uncontended atomic adds per row touched; the observability tax stays within noise of the commit path"

	mtRun := func() (time.Duration, int64) {
		perWorker, workers := n(300), 8
		dir, err := os.MkdirTemp("", "dmxbench-selfobs")
		if err != nil {
			panic(err)
		}
		defer os.RemoveAll(dir)
		db, err := dmx.Open(dmx.Config{
			LogPath:           filepath.Join(dir, "wal.log"),
			CommitBatchWindow: 200 * time.Microsecond,
			CheckpointEvery:   -1,
		})
		if err != nil {
			panic(err)
		}
		defer db.Close()
		if _, err := db.Exec("CREATE TABLE t (id INT NOT NULL, v STRING) USING heap"); err != nil {
			panic(err)
		}
		var wg sync.WaitGroup
		d := rig.Time(func() {
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					s := db.NewSession()
					for i := 0; i < perWorker; i++ {
						if _, err := s.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, 'r')", w*1_000_000+i)); err != nil {
							panic(err)
						}
					}
				}(w)
			}
			wg.Wait()
		})
		return d, int64(perWorker * workers)
	}

	tightRun := func() (time.Duration, int64) {
		commits := n(20_000)
		db, err := dmx.Open(dmx.Config{})
		if err != nil {
			panic(err)
		}
		defer db.Close()
		if _, err := db.Exec("CREATE TABLE t (id INT NOT NULL, v STRING) USING heap"); err != nil {
			panic(err)
		}
		rel, err := db.Relation("t")
		if err != nil {
			panic(err)
		}
		d := rig.Time(func() {
			for i := 0; i < commits; i++ {
				tx := db.Begin()
				if _, err := rel.Insert(tx, dmx.Record{dmx.Int(int64(i)), dmx.Str("r")}); err != nil {
					panic(err)
				}
				if err := tx.Commit(); err != nil {
					panic(err)
				}
			}
		})
		return d, int64(commits)
	}

	workloads := []struct {
		label string
		run   func() (time.Duration, int64)
	}{
		{"MT commit (8 workers, file WAL)", mtRun},
		{"tight insert loop (mem WAL)", tightRun},
	}
	for _, wl := range workloads {
		var dOn, dOff time.Duration
		var commits int64
		// Interleave on/off runs and keep the best of three of each, so
		// cache warm-up and GC noise fall on both sides equally.
		for i := 0; i < 3; i++ {
			txn.SetAccounting(true)
			if d, c := wl.run(); dOn == 0 || d < dOn {
				dOn, commits = d, c
			}
			txn.SetAccounting(false)
			if d, _ := wl.run(); dOff == 0 || d < dOff {
				dOff = d
			}
		}
		txn.SetAccounting(true)
		overhead := (float64(dOn) - float64(dOff)) / float64(dOff) * 100
		t.Add(wl.label, "off", commits, dOff,
			fmt.Sprintf("%.0f", float64(commits)/dOff.Seconds()), "—")
		t.Add(wl.label, "on", commits, dOn,
			fmt.Sprintf("%.0f", float64(commits)/dOn.Seconds()),
			fmt.Sprintf("%+.1f%%", overhead))
	}
	return []*rig.Table{t}
}

// --- MVCC: snapshot-read throughput ---

// mvccReads measures the read-only transaction path: worker sessions
// fetch random rows of a heap relation in short transactions, once with
// ordinary (2PL, lock-acquiring) transactions and once with snapshot
// transactions, sweeping the worker count. The lock-requests column is
// the tell: snapshot mode performs zero lock-manager calls, so readers
// scale without touching the shared lock table.
func mvccReads() []*rig.Table {
	rows := n(2000)
	perWorker := n(200) // transactions per worker
	const fetchesPerTxn = 20
	t := rig.NewTable("MVCC — read-only throughput: locked (2PL) vs snapshot (lock-free) transactions",
		"workers", "mode", "reads", "total", "reads/s", "lock requests")
	t.Note = "snapshot transactions pin a commit-stamp high-water instead of acquiring locks; with no concurrent writers every read is served from current page state"

	db, err := dmx.Open(dmx.Config{})
	if err != nil {
		panic(err)
	}
	defer db.Close()
	if _, err := db.Exec("CREATE TABLE t (id INT NOT NULL, v STRING) USING heap"); err != nil {
		panic(err)
	}
	rel, err := db.Relation("t")
	if err != nil {
		panic(err)
	}
	seed := db.Begin()
	keys := make([]dmx.Key, rows)
	for i := range keys {
		if keys[i], err = rel.Insert(seed, dmx.Record{dmx.Int(int64(i)), dmx.Str("payload")}); err != nil {
			panic(err)
		}
	}
	if err := seed.Commit(); err != nil {
		panic(err)
	}

	for _, workers := range []int{1, 4, 8} {
		for _, mode := range []string{"locked", "snapshot"} {
			lockBefore := db.Env.Obs.Lock.Requests.Load()
			var wg sync.WaitGroup
			d := rig.Time(func() {
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						next := w * 131
						for i := 0; i < perWorker; i++ {
							var tx *dmx.Txn
							if mode == "snapshot" {
								tx = db.BeginReadOnly()
							} else {
								tx = db.Begin()
							}
							for j := 0; j < fetchesPerTxn; j++ {
								next = (next*1103515245 + 12345) & 0x7fffffff
								if _, err := rel.Fetch(tx, keys[next%rows], nil, nil); err != nil {
									panic(err)
								}
							}
							if err := tx.Commit(); err != nil {
								panic(err)
							}
						}
					}(w)
				}
				wg.Wait()
			})
			reads := workers * perWorker * fetchesPerTxn
			locks := db.Env.Obs.Lock.Requests.Load() - lockBefore
			t.Add(workers, mode, reads, d,
				fmt.Sprintf("%.0f", float64(reads)/d.Seconds()), locks)
		}
	}
	return []*rig.Table{t}
}

// --- TRACE: span-tracing overhead ---

// traceOverhead reruns the MT insert workload with the transaction tracer
// off, at 1-in-100 sampling, and fully on, so the cost of the span
// machinery is measured against the engine's own commit path rather than a
// microbenchmark. The sampled runs also report how many traces actually
// carried detailed span trees.
func traceOverhead() []*rig.Table {
	perWorker := n(300)
	const workers = 4
	t := rig.NewTable("TRACE — single-insert commit throughput vs trace sampling (file-backed WAL, 4 workers)",
		"sampling", "commits", "total", "commits/s", "sampled txns", "overhead")
	t.Note = "sampling is a per-transaction counter decision; unsampled transactions carry a nil trace and every trace call is a nil-receiver no-op"

	var baseline float64
	for _, cfg := range []struct {
		label  string
		sample float64
	}{{"off", 0}, {"1%", 0.01}, {"100%", 1}} {
		dir, err := os.MkdirTemp("", "dmxbench-trace")
		if err != nil {
			panic(err)
		}
		db, err := dmx.Open(dmx.Config{
			LogPath:         filepath.Join(dir, "wal.log"),
			CheckpointEvery: -1,
			TraceSample:     cfg.sample,
			TraceRing:       64,
		})
		if err != nil {
			panic(err)
		}
		if _, err := db.Exec("CREATE TABLE t (id INT NOT NULL, v STRING) USING heap"); err != nil {
			panic(err)
		}
		var wg sync.WaitGroup
		d := rig.Time(func() {
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					s := db.NewSession()
					for i := 0; i < perWorker; i++ {
						if _, err := s.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, 'r')", w*1_000_000+i)); err != nil {
							panic(err)
						}
					}
				}(w)
			}
			wg.Wait()
		})
		sampled := db.Env.Tracer.Stats().Sampled
		db.Close()
		os.RemoveAll(dir)
		commits := workers * perWorker
		rate := float64(commits) / d.Seconds()
		overhead := "—"
		if baseline == 0 {
			baseline = rate
		} else {
			overhead = fmt.Sprintf("%+.1f%%", (baseline/rate-1)*100)
		}
		t.Add(cfg.label, commits, d, fmt.Sprintf("%.0f", rate), sampled, overhead)
	}
	return []*rig.Table{t}
}

// --- PAR: partitioned parallel scan and hash join vs serial ---

func parExec() []*rig.Table {
	rows := n(150_000)
	env := core.NewEnv(core.Config{})
	emp := rig.MustCreate(env, "emp", "memory", nil)
	rig.Load(env, emp, rows, 20)
	p := plan.New(env)

	t := rig.NewTable(fmt.Sprintf("PAR — partitioned parallel scan, %d records (GOMAXPROCS=%d)",
		rows, runtime.GOMAXPROCS(0)),
		"workers", "rows", "time", "rows/ms", "speedup")
	t.Note = "key-range partitions, one worker goroutine per partition, merged by an exchange; " +
		"the filter and record decode run in the workers"

	// A pass-everything filter keeps the row count fixed while giving the
	// workers per-record predicate work to parallelise.
	filter := expr.Ge(expr.Field(2), expr.Const(types.Float(0)))
	var serial time.Duration
	for _, workers := range []int{1, 4, 8} {
		b, err := p.Plan(plan.Query{Table: "emp", Filter: filter, Fields: []int{0, 2}, ForceDegree: workers})
		if err != nil {
			panic(err)
		}
		count := 0
		d := best3(func() {
			count = 0
			tx := env.Begin()
			rs, err := b.Execute(tx)
			if err != nil {
				panic(err)
			}
			for {
				_, ok, err := rs.Next()
				if err != nil {
					panic(err)
				}
				if !ok {
					break
				}
				count++
			}
			rs.Close()
			tx.Commit()
		})
		if workers == 1 {
			serial = d
		}
		t.Add(workers, count, d,
			fmt.Sprintf("%.0f", float64(count)/float64(d.Milliseconds()+1)),
			fmt.Sprintf("%.2fx", float64(serial)/float64(d)))
	}

	// Join companion: the same emp against a 10k-row inner, naive nested
	// loop vs single hash build at the planner's automatic degree.
	inner := n(10_000)
	dept := rig.MustCreate(env, "dept", "memory", nil)
	rig.WithTxn(env, func(tx *txn.Txn) {
		for i := 0; i < inner; i++ {
			if _, err := dept.Insert(tx, rig.EmpRecord(i, 4)); err != nil {
				panic(err)
			}
		}
	})
	outerN := n(500)
	jt := rig.NewTable(fmt.Sprintf("PAR — equi-join on dno, %d ⋈ %d", outerN, inner),
		"strategy", "rows", "time", "per row")
	for _, s := range []struct{ name, force string }{
		{"nested loop (rescan inner)", "nl"},
		{"hash join (build inner once)", "hash"},
	} {
		b, err := p.Plan(plan.Query{
			Table:     "emp",
			Filter:    expr.Lt(expr.Field(0), expr.Const(types.Int(int64(outerN)))),
			Fields:    []int{0},
			Join:      &plan.JoinSpec{Table: "dept", OuterCol: 1, InnerCol: 1, Fields: []int{0}},
			ForceJoin: s.force,
		})
		if err != nil {
			panic(err)
		}
		count := 0
		d := rig.Time(func() {
			tx := env.Begin()
			rs, err := b.Execute(tx)
			if err != nil {
				panic(err)
			}
			for {
				_, ok, err := rs.Next()
				if err != nil {
					panic(err)
				}
				if !ok {
					break
				}
				count++
			}
			rs.Close()
			tx.Commit()
		})
		jt.Add(s.name, count, d, rig.PerOp(d, count))
	}
	return []*rig.Table{t, jt}
}

// --- PART: hash-sharded relations over foreign shard servers ---

// partRouting measures the partitioned storage method's routing claims on
// a relation hash-sharded across four foreign servers: a point access by
// key talks to exactly one shard, a full scan scatter-gathers per-shard
// cursors, and every multi-shard commit pays a prepare round plus a
// decision delivery per touched shard (two-phase commit). The per-server
// message counters make the routing observable; a second table reports
// the coordinator's own counters for the whole run.
func partRouting() []*rig.Table {
	rows := n(8000)
	fetches := n(2000)
	txns := n(500)
	const shards = 4

	env := core.NewEnv(core.Config{})
	srvs := make([]*remote.Server, shards)
	for i := range srvs {
		srvs[i] = remote.NewServer(20 * time.Microsecond)
		smutil.AttachServer(env, fmt.Sprintf("s%d", i), srvs[i])
	}
	rel := rig.MustCreate(env, "emp", "part", core.AttrList{
		"key": "eno", "servers": "s0,s1,s2,s3", "batch": "100"})

	msgs := func() []int64 {
		out := make([]int64, shards)
		for i, srv := range srvs {
			out[i] = srv.Messages.Load()
		}
		return out
	}
	// touched reports how many shards exchanged messages since before, and
	// the total message count across them.
	touched := func(before []int64) (int, int64) {
		moved, total := 0, int64(0)
		for i, srv := range srvs {
			if d := srv.Messages.Load() - before[i]; d > 0 {
				moved++
				total += d
			}
		}
		return moved, total
	}

	t := rig.NewTable(fmt.Sprintf("PART — relation hash-sharded across %d foreign servers (20µs RTT)", shards),
		"operation", "ops", "per op", "shards touched", "messages")
	t.Note = "a point access by key routes to the single owning shard; scans scatter-gather " +
		"per-shard cursors; multi-shard commits run prepare and decision rounds (2PC)"

	before := msgs()
	var keys []types.Key
	dLoad := rig.Time(func() { keys = rig.Load(env, rel, rows, 40) })
	loadShards, loadMsgs := touched(before)
	t.Add("bulk load (one txn, one 2PC)", rows, rig.PerOp(dLoad, rows), loadShards, loadMsgs)

	before = msgs()
	dFetch := rig.Time(func() {
		tx := env.Begin()
		for i := 0; i < fetches; i++ {
			if _, err := rel.Fetch(tx, keys[(i*13)%len(keys)], []int{0}, nil); err != nil {
				panic(err)
			}
		}
		tx.Commit()
	})
	fetchShards, fetchMsgs := touched(before)
	t.Add("point reads by key (routed)", fetches, rig.PerOp(dFetch, fetches), fetchShards, fetchMsgs)

	before = msgs()
	count := 0
	dScan := rig.Time(func() {
		tx := env.Begin()
		scan, err := rel.OpenScan(tx, core.ScanOptions{Fields: []int{0}})
		if err != nil {
			panic(err)
		}
		count = rig.Drain(scan)
		tx.Commit()
	})
	scanShards, scanMsgs := touched(before)
	t.Add("full scan (scatter-gather)", count, rig.PerOp(dScan, count), scanShards, scanMsgs)

	before = msgs()
	d2pc := rig.Time(func() {
		for i := 0; i < txns; i++ {
			tx := env.Begin()
			for j := 0; j < 3; j++ {
				if _, err := rel.Insert(tx, rig.EmpRecord(1_000_000+i*3+j, 40)); err != nil {
					panic(err)
				}
			}
			if err := tx.Commit(); err != nil {
				panic(err)
			}
		}
	})
	txnShards, txnMsgs := touched(before)
	t.Add("3-row insert txns (2PC each)", txns, rig.PerOp(d2pc, txns), txnShards, txnMsgs)

	s := env.Obs.Snapshot().Part
	ct := rig.NewTable("PART — coordinator counters for the run above", "counter", "value")
	ct.Note = "from env.Obs (also visible per relation through sys.stat_shards)"
	ct.Add("routed point reads", s.RoutedReads)
	ct.Add("routed single-shard scans", s.RoutedScans)
	ct.Add("scatter-gather scans", s.ScatterScans)
	ct.Add("shard prepares", s.Prepares)
	ct.Add("shard commit deliveries", s.Commits)
	ct.Add("shard abort deliveries", s.Aborts)
	ct.Add("commit acks lost", s.AckLost)
	ct.Add("in-doubt resolved at recovery", s.Resolved)
	return []*rig.Table{t, ct}
}

// --- A1: ablation — skip index maintenance when no indexed field changed ---

func a1SkipUnchanged() []*rig.Table {
	rows := n(5000)
	w := rig.NewUpdates(rows)
	t := rig.NewTable("A1 — update cost with and without indexed-field changes (2 B-tree instances)",
		"update touches", "per update", "attachment log records/update")
	t.Note = `"the B-tree update operations should be able to detect when no indexed fields for a given index are modified"`

	for indexed, label := range []string{
		"only the non-indexed pad (skip fires)",
		"one indexed field (1 of 2 maintained)",
		"both indexed fields (2 of 2 maintained)",
	} {
		logBefore := w.Env.Log.Len()
		d := timed(func() error {
			if err := repeat(rows, func() error { return w.Update(indexed) })(); err != nil {
				return err
			}
			return w.Commit()
		})
		t.Add(label, rig.PerOp(d, rows), float64(rig.AttachmentUpdates(w.Env, logBefore))/float64(rows))
	}
	return []*rig.Table{t}
}

// --- A2: ablation — remote scan batch size ---

func a2RemoteBatch() []*rig.Table {
	rows := n(2000)
	t := rig.NewTable("A2 — foreign-database scan cost vs batch size (20µs per message)",
		"batch size", "messages", "scan time", "per record")
	t.Note = "tuple-at-a-time access to remote data amplifies round trips; the remote storage method batches key-sequential accesses"

	for _, batch := range []int{1, 10, 100, 1000} {
		w := rig.NewRemoteScan(rows, batch)
		before := w.Server.Messages.Load()
		d := timed(w.ScanAll)
		t.Add(batch, w.Server.Messages.Load()-before, d, rig.PerOp(d, rows))
	}
	return []*rig.Table{t}
}

// --- A3: ablation — ordered access path vs scan + sort ---

func a3OrderedAccess() []*rig.Table {
	rows := n(30000)
	env := core.NewEnv(core.Config{PoolFrames: 2048})
	emp := rig.MustCreate(env, "emp", "heap", nil)
	rig.Load(env, emp, rows, 40)
	rig.MustAttach(env, "emp", "btree", core.AttrList{"name": "bysalary", "on": "salary"})
	p := plan.New(env)

	t := rig.NewTable("A3 — ORDER BY salary: streaming ordered access vs scan + sort",
		"query", "planner choice", "time")
	t.Note = `"the query planner will be able to determine the cost of ... scan[ning] a relation in a random order or with the tuples ordered by particular record fields" — the ordered pass fetches record-at-a-time, so it wins only when the caller stops early (top-k)`

	measure := func(label string, q plan.Query, pull int) {
		b, err := p.Plan(q)
		if err != nil {
			panic(err)
		}
		needSort := len(q.OrderBy) > 0 && !b.Ordered()
		d := best3(func() {
			tx := env.Begin()
			rs, err := b.Execute(tx)
			if err != nil {
				panic(err)
			}
			var all []types.Record
			for pull < 0 || len(all) < pull || needSort {
				rec, ok, err := rs.Next()
				if err != nil {
					panic(err)
				}
				if !ok {
					break
				}
				all = append(all, rec)
			}
			rs.Close()
			tx.Commit()
			if needSort {
				sort.Slice(all, func(i, j int) bool {
					return all[i][0].AsFloat() < all[j][0].AsFloat()
				})
			}
		})
		plan := b.Explain()
		if needSort {
			plan += " + sort"
		}
		t.Add(label, plan, d)
	}
	measure("top-10 (ORDER BY ... LIMIT 10)",
		plan.Query{Table: "emp", Fields: []int{2}, OrderBy: []int{2}, Limit: 10}, 10)
	measure("full table (ORDER BY, no limit)",
		plan.Query{Table: "emp", Fields: []int{2}, OrderBy: []int{2}}, -1)
	return []*rig.Table{t}
}

// --- OBS: engine-wide observability snapshot ---

// obsSnapshot drives every instrumented subsystem — per-extension dispatch
// (heap + b-tree index + check constraint), a veto with log-driven undo,
// lock contention, file-backed log appends and syncs, buffer traffic —
// then prints the Env.MetricsSnapshot JSON document.
func obsSnapshot() []*rig.Table {
	check.RegisterPredicate("obspos", expr.Ge(expr.Field(0), expr.Const(types.Int(0))))
	dir, err := os.MkdirTemp("", "dmxbench-obs")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	log, err := wal.Open(filepath.Join(dir, "wal.log"))
	if err != nil {
		panic(err)
	}
	defer log.Close()
	env := core.NewEnv(core.Config{Log: log, PoolFrames: 64})
	rig.MustCreate(env, "emp", "heap", nil)
	rig.MustAttach(env, "emp", "btree", core.AttrList{"name": "i1", "on": "dno"})
	rig.MustAttach(env, "emp", "check", core.AttrList{"name": "pos", "predicate": "obspos"})
	emp, err := env.OpenRelationByName("emp")
	if err != nil {
		panic(err)
	}

	rows := n(1000)
	var keys []types.Key
	rig.WithTxn(env, func(tx *txn.Txn) {
		for i := 0; i < rows; i++ {
			k, err := emp.Insert(tx, rig.EmpRecord(i, 20))
			if err != nil {
				panic(err)
			}
			keys = append(keys, k)
		}
	})
	rig.WithTxn(env, func(tx *txn.Txn) {
		for i := 0; i < rows/10; i++ {
			if _, err := emp.Fetch(tx, keys[i], nil, nil); err != nil {
				panic(err)
			}
		}
		if _, err := emp.Update(tx, keys[0], rig.EmpRecord(rows, 20)); err != nil {
			panic(err)
		}
		if err := emp.Delete(tx, keys[1]); err != nil {
			panic(err)
		}
		scan, err := emp.OpenScan(tx, core.ScanOptions{})
		if err != nil {
			panic(err)
		}
		for {
			if _, _, ok, err := scan.Next(); err != nil || !ok {
				break
			}
		}
		scan.Close()
	})
	// A vetoed insert exercises the per-attachment veto counter and the
	// log-driven undo path.
	rig.WithTxn(env, func(tx *txn.Txn) {
		rec := rig.EmpRecord(rows+1, 20)
		rec[0] = types.Int(-1)
		if _, err := emp.Insert(tx, rec); err == nil {
			panic("vetoed insert accepted")
		}
	})
	// Lock contention: a second transaction waits on a key the first holds.
	hot := lock.KeyResource(999, []byte("hot"))
	tx1 := env.Begin()
	if err := tx1.Lock(hot, lock.ModeX); err != nil {
		panic(err)
	}
	released := make(chan struct{})
	go func() {
		time.Sleep(2 * time.Millisecond)
		tx1.Commit()
		close(released)
	}()
	tx2 := env.Begin()
	if err := tx2.Lock(hot, lock.ModeX); err != nil {
		panic(err)
	}
	tx2.Commit()
	<-released
	if err := log.Sync(); err != nil {
		panic(err)
	}

	fmt.Println("engine metrics snapshot (Env.MetricsSnapshot):")
	raw, err := json.MarshalIndent(env.MetricsSnapshot(), "", "  ")
	if err != nil {
		panic(err)
	}
	fmt.Println(string(raw))
	return nil
}

// --- CRASH: restart replay cost vs checkpoint interval ---

// crashRecovery measures what fuzzy checkpointing buys at restart: a
// small relation is churned by a long update history, the process
// "crashes" (the database is abandoned without Close), and the database
// is reopened with recovery. Without checkpoints redo replays the whole
// history; with them it replays the last snapshot plus the tail since,
// so restart time is bounded by the checkpoint interval.
func crashRecovery() []*rig.Table {
	rows, updates := n(50), n(2000)
	table := rig.NewTable(
		fmt.Sprintf("restart replay: %d-row relation, %d-update history", rows, updates),
		"checkpoint every", "checkpoints", "records at crash", "redo records", "restart time")
	for _, every := range []int{-1, 1024, 256, 64} {
		dir, err := os.MkdirTemp("", "dmxbench-crash")
		if err != nil {
			panic(err)
		}
		cfg := dmx.Config{LogPath: filepath.Join(dir, "wal.log"), CheckpointEvery: every}
		db, err := dmx.Open(cfg)
		if err != nil {
			panic(err)
		}
		if _, err := db.Exec("CREATE TABLE t (id INT NOT NULL, v STRING) USING heap"); err != nil {
			panic(err)
		}
		for i := 0; i < rows; i++ {
			if _, err := db.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, 'v0')", i)); err != nil {
				panic(err)
			}
		}
		for i := 0; i < updates; i++ {
			if _, err := db.Exec(fmt.Sprintf("UPDATE t SET v = 'v%d' WHERE id = %d", i, i%rows)); err != nil {
				panic(err)
			}
		}
		ckpts := db.Env.Obs.WAL.Checkpoints.Load()
		atCrash := db.Env.Log.Len()

		// Crash: no Close. Reopen from the surviving files with recovery.
		cfg.Recover, cfg.CheckpointEvery = true, -1
		var db2 *dmx.DB
		d := rig.Time(func() {
			if db2, err = dmx.Open(cfg); err != nil {
				panic(err)
			}
		})
		redo := db2.Env.Obs.WAL.RedoRecords.Load()
		db2.Close()
		os.RemoveAll(dir)

		label := "none"
		if every > 0 {
			label = strconv.Itoa(every)
		}
		table.Add(label, ckpts, atCrash, redo, d)
	}
	return []*rig.Table{table}
}
