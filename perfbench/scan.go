package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"dmx"
	"dmx/internal/core"
	"dmx/internal/ddl"
	"dmx/internal/expr"
	"dmx/internal/plan"
	"dmx/internal/txn"
	"dmx/internal/types"
)

// scan is the read and query path: one client runs snapshot queries in a
// fixed rotation over a relation about ten times the default 256-frame
// buffer pool, with an in-memory log and disk:
//
//   - a 1%-selective filter on a non-indexed column (full scan with pushdown)
//   - a 0.5% B-tree key range
//   - a hash join of a 1% key range with a 10-row dimension relation
//   - a SQL SELECT COUNT(*) ... WHERE ... through a session
type scanSize struct {
	rows      int // fact rows
	pad       int // bytes of filler per row
	loadBatch int
}

func scanSizes(tiny bool) scanSize {
	if tiny {
		return scanSize{rows: 3000, pad: 40, loadBatch: 1000}
	}
	return scanSize{rows: 100_000, pad: 40, loadBatch: 5000}
}

const (
	scanGroups = 100 // distinct grp values: an equality filter is 1% selective
	scanDims   = 10
	scanValMax = 1_000_000
)

// scanData is the seeded input and the expected answers derived from it.
type scanData struct {
	sz       scanSize
	grp, val []int64
	grpCount [scanGroups]int
	sortedV  []int64 // val, sorted, for the expected SQL counts
}

func newScanData(sz scanSize, seed int64) *scanData {
	rng := rand.New(rand.NewSource(seed))
	d := &scanData{sz: sz, grp: make([]int64, sz.rows), val: make([]int64, sz.rows)}
	for i := range d.grp {
		d.grp[i] = rng.Int63n(scanGroups)
		d.val[i] = rng.Int63n(scanValMax)
		d.grpCount[d.grp[i]]++
	}
	d.sortedV = append([]int64(nil), d.val...)
	sort.Slice(d.sortedV, func(i, j int) bool { return d.sortedV[i] < d.sortedV[j] })
	return d
}

func (d *scanData) record(id int) types.Record {
	return types.Record{types.Int(int64(id)), types.Int(d.grp[id]), types.Int(int64(id % scanDims)),
		types.Int(d.val[id]), types.Str(fmt.Sprintf("%0*d", d.sz.pad, id))}
}

// countBelow is the expected answer of COUNT(*) WHERE val < x.
func (d *scanData) countBelow(x int64) int {
	return sort.Search(len(d.sortedV), func(i int) bool { return d.sortedV[i] >= x })
}

func dimName(dk int64) string { return fmt.Sprintf("dim-%d", dk) }

func scanSetup(d *scanData) (*dmx.DB, error) {
	db, err := dmx.Open(dmx.Config{})
	if err != nil {
		return nil, err
	}
	if _, err := db.Exec(
		"CREATE TABLE fact (id INT NOT NULL, grp INT, dk INT, val INT, pad STRING) USING heap",
		"CREATE INDEX fact_id ON fact (id)",
		"CREATE ATTACHMENT stats ON fact",
		"CREATE TABLE dim (dk INT NOT NULL, name STRING) USING heap",
	); err != nil {
		db.Close()
		return nil, err
	}
	// Handles are opened after the DDL (see oltpSetup).
	fact, err := db.Relation("fact")
	if err != nil {
		db.Close()
		return nil, err
	}
	dim, err := db.Relation("dim")
	if err != nil {
		db.Close()
		return nil, err
	}
	tx := db.Begin()
	for k := int64(0); k < scanDims; k++ {
		if _, err := dim.Insert(tx, types.Record{types.Int(k), types.Str(dimName(k))}); err != nil {
			tx.Abort()
			db.Close()
			return nil, err
		}
	}
	if err := tx.Commit(); err != nil {
		db.Close()
		return nil, err
	}
	for lo := 0; lo < d.sz.rows; lo += d.sz.loadBatch {
		tx := db.Begin()
		for id := lo; id < lo+d.sz.loadBatch && id < d.sz.rows; id++ {
			if _, err := fact.Insert(tx, d.record(id)); err != nil {
				tx.Abort()
				db.Close()
				return nil, err
			}
		}
		if err := tx.Commit(); err != nil {
			db.Close()
			return nil, err
		}
	}
	return db, nil
}

type scanClient struct {
	d       *scanData
	db      *dmx.DB
	planner *plan.Planner
	sess    *ddl.Session
	rng     *rand.Rand
	rec     *recorder
	scanned int64 // rows the storage method visited
}

func idRange(lo, n int) *expr.Expr {
	return expr.And(expr.Ge(expr.Field(0), expr.Const(types.Int(int64(lo)))),
		expr.Lt(expr.Field(0), expr.Const(types.Int(int64(lo+n)))))
}

// query plans and runs q in tx, returning its rows.
func (cl *scanClient) query(tx *txn.Txn, q plan.Query) ([]types.Record, error) {
	t := cl.rec.mark()
	b, err := cl.planner.Plan(q)
	cl.rec.done("plan.plan", t)
	if err != nil {
		return nil, err
	}
	t = cl.rec.mark()
	rows, err := b.Execute(tx)
	if err != nil {
		return nil, err
	}
	var out []types.Record
	for {
		r, ok, err := rows.Next()
		if err != nil {
			rows.Close()
			return nil, err
		}
		if !ok {
			break
		}
		out = append(out, r)
	}
	err = rows.Close()
	cl.rec.done("plan.exec", t)
	cl.rec.scanned("plan.exec", int64(len(out)))
	return out, err
}

// snapshot runs fn in a snapshot transaction.
func (cl *scanClient) snapshot(fn func(tx *txn.Txn) error) error {
	tx := cl.db.BeginReadOnly()
	cl.rec.setTxn(uint64(tx.ID()))
	if err := fn(tx); err != nil {
		tx.Abort()
		return err
	}
	t := cl.rec.mark()
	err := tx.Commit()
	cl.rec.done("txn.commit", t)
	return err
}

func (cl *scanClient) filterQuery() error {
	g := cl.rng.Int63n(scanGroups)
	return cl.snapshot(func(tx *txn.Txn) error {
		rows, err := cl.query(tx, plan.Query{Table: "fact", Filter: expr.Eq(expr.Field(1), expr.Const(types.Int(g))), Fields: []int{0, 1}})
		if err != nil {
			return err
		}
		if len(rows) != cl.d.grpCount[g] {
			return checkf("scan: filter grp=%d returned %d rows, want %d", g, len(rows), cl.d.grpCount[g])
		}
		for _, r := range rows {
			if r[1].I != g || cl.d.grp[r[0].I] != g {
				return checkf("scan: filter grp=%d returned %v", g, r)
			}
		}
		cl.scanned += int64(cl.d.sz.rows)
		cl.rec.txRead += int64(len(rows))
		return nil
	})
}

func (cl *scanClient) rangeQuery() error {
	n := cl.d.sz.rows / 200
	lo := cl.rng.Intn(cl.d.sz.rows - n)
	return cl.snapshot(func(tx *txn.Txn) error {
		rows, err := cl.query(tx, plan.Query{Table: "fact", Filter: idRange(lo, n), Fields: []int{0, 3}})
		if err != nil {
			return err
		}
		if err := checkRange(rows, lo, n, cl.d); err != nil {
			return err
		}
		cl.scanned += int64(n)
		cl.rec.txRead += int64(n)
		return nil
	})
}

// checkRange checks that rows (id, val) are exactly ids lo..lo+n-1.
func checkRange(rows []types.Record, lo, n int, d *scanData) error {
	if len(rows) != n {
		return checkf("scan: range [%d,%d) returned %d rows", lo, lo+n, len(rows))
	}
	seen := make([]bool, n)
	for _, r := range rows {
		i := int(r[0].I) - lo
		if i < 0 || i >= n || seen[i] || r[1].I != d.val[r[0].I] {
			return checkf("scan: range [%d,%d) returned %v", lo, lo+n, r)
		}
		seen[i] = true
	}
	return nil
}

func (cl *scanClient) joinQuery() error {
	n := cl.d.sz.rows / 100
	lo := cl.rng.Intn(cl.d.sz.rows - n)
	return cl.snapshot(func(tx *txn.Txn) error {
		rows, err := cl.query(tx, plan.Query{
			Table: "fact", Filter: idRange(lo, n), Fields: []int{0, 2},
			Join: &plan.JoinSpec{Table: "dim", OuterCol: 2, InnerCol: 0, Fields: []int{1}},
		})
		if err != nil {
			return err
		}
		if len(rows) != n {
			return checkf("scan: join of [%d,%d) returned %d rows", lo, lo+n, len(rows))
		}
		for _, r := range rows {
			if id := r[0].I; id < int64(lo) || id >= int64(lo+n) || r[2].S != dimName(id%scanDims) {
				return checkf("scan: join of [%d,%d) returned %v", lo, lo+n, r)
			}
		}
		cl.scanned += int64(n + scanDims)
		cl.rec.txRead += int64(n)
		return nil
	})
}

// sqlQuery runs through a session, which executes each statement in its
// own autocommit transaction.
func (cl *scanClient) sqlQuery() error {
	// 1% to 2% of the rows qualify, so every count costs about the same.
	x := scanValMax/100 + cl.rng.Int63n(scanValMax/100)
	t := cl.rec.mark()
	res, err := cl.sess.Exec(fmt.Sprintf("SELECT COUNT(*) FROM fact WHERE val < %d", x))
	cl.rec.done("ddl.exec", t)
	if err != nil {
		return err
	}
	want := cl.d.countBelow(x)
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 || res.Rows[0][0].I != int64(want) {
		return checkf("scan: SQL count below %d returned %v, want %d", x, res.Rows, want)
	}
	cl.scanned += int64(cl.d.sz.rows)
	cl.rec.txRead++
	return nil
}

// crossCheck answers one key range three ways on one snapshot: through
// the planner's B-tree path, through a forced heap scan, and through a
// direct storage-method scan with the filter pushed down. It returns the
// direct scan's time per visited row.
func (cl *scanClient) crossCheck() (float64, error) {
	n := cl.d.sz.rows / 200
	lo := cl.rng.Intn(cl.d.sz.rows - n)
	q := plan.Query{Table: "fact", Filter: idRange(lo, n), Fields: []int{0, 3}}
	tx := cl.db.BeginReadOnly()
	defer tx.Commit()
	forced := q
	forced.ForcePath = &plan.ForcedPath{Att: core.AttBTree}
	viaIndex, err := cl.query(tx, forced)
	if err != nil {
		return 0, err
	}
	forced.ForcePath = &plan.ForcedPath{Att: 0}
	viaHeap, err := cl.query(tx, forced)
	if err != nil {
		return 0, err
	}
	rel, err := cl.db.Relation("fact")
	if err != nil {
		return 0, err
	}
	start := time.Now()
	s, err := rel.OpenScan(tx, core.ScanOptions{Filter: q.Filter, Fields: q.Fields})
	if err != nil {
		return 0, err
	}
	var direct []types.Record
	for {
		_, r, ok, err := s.Next()
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		direct = append(direct, r)
	}
	perRow := float64(time.Since(start).Nanoseconds()) / float64(cl.d.sz.rows)
	for name, rows := range map[string][]types.Record{"B-tree path": viaIndex, "forced heap scan": viaHeap, "direct scan": direct} {
		if err := checkRange(rows, lo, n, cl.d); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	return perRow, nil
}

func runScan(cfg config) (*outcome, error) {
	sz := scanSizes(cfg.tiny)
	d := newScanData(sz, cfg.seed)
	db, setupS, err := timedSetups(func(int) (*dmx.DB, error) { return scanSetup(d) }, func(db *dmx.DB) { db.Close() })
	if err != nil {
		return nil, fmt.Errorf("scan setup: %w", err)
	}
	defer db.Close()

	errs := newErrorLog(cfg.log)
	rec := newRecorder(0, cfg.tracing, errs)
	cl := &scanClient{d: d, db: db, planner: plan.New(db.Env), sess: db.NewSession(),
		rng: rand.New(rand.NewSource(cfg.seed*1_000_003 + 7)), rec: newRecorder(0, false, errs)}
	coreRowNs, err := cl.crossCheck()
	if err != nil {
		return nil, err
	}
	cl.rec, cl.scanned = rec, 0

	// The rotation: each query is one transaction.
	rotation := []struct {
		class int
		run   func() error
	}{
		{classScan, cl.filterQuery},
		{classRead, cl.rangeQuery},
		{classJoin, cl.joinQuery},
		{classScan, cl.sqlQuery},
	}
	runtime.GC()
	before := takeProbe(db.Env)
	rn := &run{recs: []*recorder{rec}}
	var heapMB float64
	rn.window, heapMB, err = timedWindow(cfg.window, func(deadline time.Time, _ *atomic.Bool) error {
		for i := 0; time.Now().Before(deadline); i++ {
			q := rotation[i%len(rotation)]
			t := rec.begin()
			err := q.run()
			rec.end(q.class, t, err)
			if isCheck(err) {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	after := takeProbe(db.Env)

	attempted, failed, _ := rn.totals()
	wk := work{txns: rn.committed(), queries: attempted, rowsVisited: cl.scanned}
	m := finish(rn, before, after, wk, cfg.tracing)
	m["heap_mb"] = heapMB

	m["setup_s"] = setupS
	m["core.scan_row_ns"] = coreRowNs
	m["recover_s"] = 0
	m["wal.ckpt_busy_frac"] = 0
	m["wal.len_records"] = float64(db.Env.Log.Len())
	m["wal.redo_records"] = 0
	m["remote.msgs_per_txn"] = 0
	if err := writeSpans(cfg.traceOut, rn.recs); err != nil {
		return nil, err
	}
	return &outcome{
		attempted: attempted, failed: failed, window: rn.window, clients: 1, metrics: m,
		info: map[string]any{
			"rows": sz.rows, "row_pad_bytes": sz.pad, "pool_frames": 256, "dim_rows": scanDims, "clients": 1,
			"mix":          "rotation: 1% filter scan, 0.5% B-tree range, 1% range hash-joined with dim, SQL COUNT(*)",
			"flush_policy": "in-memory log and disk",
		},
	}, nil
}
