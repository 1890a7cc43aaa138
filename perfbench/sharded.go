package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"dmx"
	"dmx/internal/core"
	"dmx/internal/expr"
	"dmx/internal/txn"
	"dmx/internal/types"
)

// sharded is the foreign-server and two-phase-commit path: a relation
// hash-sharded over three in-process servers (no injected latency) plus
// a USING remote relation on a fourth, with a file-backed log whose
// forced commit record is the coordinator's decision. Two clients run
// 50% routed point-read transactions, 40% 3-row inserts across shards,
// 5% remote fetch+insert transactions and 5% filtered scatter-gather
// scans. After a clean close the database is reopened onto the same
// servers with Recover and every acknowledged row is checked.
type shardedSize struct {
	rows      int // loaded partitioned rows
	audit     int // loaded remote rows
	pad       int
	batch     int // rows per scatter-gather batch message
	loadBatch int
}

func shardedSizes(tiny bool) shardedSize {
	if tiny {
		return shardedSize{rows: 600, audit: 50, pad: 40, batch: 100, loadBatch: 200}
	}
	return shardedSize{rows: 20_000, audit: 200, pad: 40, batch: 100, loadBatch: 1000}
}

const (
	shardedClients = 2
	shardedShards  = 3
	shardedCusts   = 50 // distinct cust values: a scan filter is 2% selective
	shardedReads   = 4  // routed reads per read transaction
	shardedInserts = 3  // rows per insert transaction
)

type shardedData struct {
	sz        shardedSize
	cust, amt []int64
	custCount [shardedCusts]int
}

func (d *shardedData) order(id, cust, amt int64) types.Record {
	return types.Record{types.Int(id), types.Int(cust), types.Int(amt), types.Str(fmt.Sprintf("%0*d", d.sz.pad, id))}
}

func auditRecord(id int64) types.Record {
	return types.Record{types.Int(id), types.Str(fmt.Sprintf("audit-%d", id))}
}

type shardedDB struct {
	db       *dmx.DB
	orders   *core.Relation
	audit    *core.Relation
	servers  []*dmx.ForeignServer // shards, then the remote relation's server
	logPath  string
	auditKey []types.Key // record keys of the loaded audit rows, by id
}

func attachServers(db *dmx.DB, servers []*dmx.ForeignServer) {
	for i := 0; i < shardedShards; i++ {
		db.AttachShardServer(fmt.Sprintf("s%d", i), servers[i])
	}
	db.AttachForeignServer("r0", servers[shardedShards])
}

func shardedSetup(d *shardedData, dir string) (*shardedDB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &shardedDB{logPath: filepath.Join(dir, "wal.log")}
	for i := 0; i <= shardedShards; i++ {
		s.servers = append(s.servers, dmx.NewForeignServer(0))
	}
	db, err := dmx.Open(dmx.Config{LogPath: s.logPath, CommitBatchWindow: 0})
	if err != nil {
		return nil, err
	}
	s.db = db
	attachServers(db, s.servers)
	if _, err := db.Exec(
		fmt.Sprintf("CREATE TABLE orders (id INT NOT NULL, cust INT, amt INT, pad STRING) USING part WITH (key=id, servers='s0,s1,s2', batch=%d)", d.sz.batch),
		"CREATE TABLE audit (id INT NOT NULL, note STRING) USING remote WITH (server=r0)",
	); err != nil {
		db.Close()
		return nil, err
	}
	if s.orders, err = db.Relation("orders"); err != nil {
		db.Close()
		return nil, err
	}
	if s.audit, err = db.Relation("audit"); err != nil {
		db.Close()
		return nil, err
	}
	for lo := 0; lo < d.sz.rows; lo += d.sz.loadBatch {
		tx := db.Begin()
		for id := lo; id < lo+d.sz.loadBatch && id < d.sz.rows; id++ {
			if _, err := s.orders.Insert(tx, d.order(int64(id), d.cust[id], d.amt[id])); err != nil {
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
	tx := db.Begin()
	for id := 0; id < d.sz.audit; id++ {
		k, err := s.audit.Insert(tx, auditRecord(int64(id)))
		if err != nil {
			tx.Abort()
			db.Close()
			return nil, err
		}
		s.auditKey = append(s.auditKey, k)
	}
	if err := tx.Commit(); err != nil {
		db.Close()
		return nil, err
	}
	return s, nil
}

type shardedRun struct {
	d        *shardedData
	s        *shardedDB
	inserted atomic.Int64 // acknowledged partitioned inserts, for rows visited by scans
}

// shardedClient inserts partitioned ids above the loaded range and audit
// ids above the loaded audit rows, congruent to its number, and remembers
// every insert that was acknowledged.
type shardedClient struct {
	c         int
	w         *shardedRun
	rng       *rand.Rand
	mix       *mixer
	rec       *recorder
	nextOrder int64
	nextAudit int64
	orders    map[int64][2]int64 // acknowledged inserts: id → (cust, amt)
	audits    []int64
	scanned   int64
}

func (cl *shardedClient) commit(tx *txn.Txn) error {
	t := cl.rec.mark()
	err := tx.Commit()
	cl.rec.done("txn.commit", t)
	return err
}

// inTxn runs fn in a transaction, aborting it on error. Read-only
// transactions still lock (partsm keeps no versions) but log nothing.
func (cl *shardedClient) inTxn(readOnly bool, fn func(tx *txn.Txn) error) error {
	var tx *txn.Txn
	if readOnly {
		tx = cl.w.s.db.BeginReadOnly()
	} else {
		tx = cl.w.s.db.Begin()
	}
	cl.rec.setTxn(uint64(tx.ID()))
	if err := fn(tx); err != nil {
		if tx.State() == txn.StateActive {
			tx.Abort()
		}
		return err
	}
	return cl.commit(tx)
}

func (cl *shardedClient) readTxn() error {
	d := cl.w.d
	return cl.inTxn(true, func(tx *txn.Txn) error {
		for i := 0; i < shardedReads; i++ {
			id := cl.rng.Int63n(int64(d.sz.rows))
			t := cl.rec.mark()
			r, err := cl.w.s.orders.Fetch(tx, types.EncodeKeyValues(types.Int(id)), nil, nil)
			cl.rec.done("partsm.fetch", t)
			if err != nil {
				return err
			}
			if len(r) != 4 || r[0].I != id || r[1].I != d.cust[id] || r[2].I != d.amt[id] {
				return checkf("sharded: fetch of id %d returned %v", id, r)
			}
			cl.rec.txRead++
			cl.scanned++
		}
		return nil
	})
}

func (cl *shardedClient) insertTxn() error {
	pending := map[int64][2]int64{}
	err := cl.inTxn(false, func(tx *txn.Txn) error {
		for i := 0; i < shardedInserts; i++ {
			id := cl.nextOrder + int64(i*shardedClients)
			// Inserted rows carry a negative cust, so the scans' expected
			// counts stay those of the loaded rows.
			v := [2]int64{-1 - int64(cl.c), cl.rng.Int63n(1_000_000)}
			t := cl.rec.mark()
			_, err := cl.w.s.orders.Insert(tx, cl.w.d.order(id, v[0], v[1]))
			cl.rec.done("partsm.insert", t)
			if err != nil {
				return err
			}
			pending[id] = v
			cl.rec.txWritten++
		}
		return nil
	})
	if err != nil {
		return err
	}
	for id, v := range pending {
		cl.orders[id] = v
	}
	cl.nextOrder += shardedInserts * shardedClients
	cl.w.inserted.Add(shardedInserts)
	return nil
}

func (cl *shardedClient) remoteTxn() error {
	s := cl.w.s
	err := cl.inTxn(false, func(tx *txn.Txn) error {
		id := cl.rng.Intn(len(s.auditKey))
		t := cl.rec.mark()
		r, err := s.audit.Fetch(tx, s.auditKey[id], nil, nil)
		cl.rec.done("remotesm.fetch", t)
		if err != nil {
			return err
		}
		if want := auditRecord(int64(id)); len(r) != 2 || r[0].I != want[0].I || r[1].S != want[1].S {
			return checkf("sharded: remote fetch of audit %d returned %v", id, r)
		}
		cl.rec.txRead++
		cl.scanned++
		t = cl.rec.mark()
		_, err = s.audit.Insert(tx, auditRecord(cl.nextAudit))
		cl.rec.done("remotesm.insert", t)
		if err != nil {
			return err
		}
		cl.rec.txWritten++
		return nil
	})
	if err != nil {
		return err
	}
	cl.audits = append(cl.audits, cl.nextAudit)
	cl.nextAudit += shardedClients
	return nil
}

func (cl *shardedClient) scanTxn() error {
	d := cl.w.d
	c := cl.rng.Int63n(shardedCusts)
	return cl.inTxn(true, func(tx *txn.Txn) error {
		visited := int64(d.sz.rows) + cl.w.inserted.Load()
		t := cl.rec.mark()
		s, err := cl.w.s.orders.OpenScan(tx, core.ScanOptions{Filter: expr.Eq(expr.Field(1), expr.Const(types.Int(c)))})
		if err != nil {
			return err
		}
		n := 0
		for {
			_, r, ok, err := s.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			if r[1].I != c || d.cust[r[0].I] != c {
				return checkf("sharded: scan cust=%d returned %v", c, r)
			}
			n++
		}
		cl.rec.done("partsm.scan", t)
		cl.rec.scanned("partsm.scan", visited)
		if n != d.custCount[c] {
			return checkf("sharded: scan cust=%d returned %d rows, want %d", c, n, d.custCount[c])
		}
		cl.rec.txRead += int64(n)
		cl.scanned += visited
		return nil
	})
}

func (cl *shardedClient) loop(deadline time.Time, stop *atomic.Bool) error {
	for !stop.Load() && time.Now().Before(deadline) {
		start := cl.rec.begin()
		var class int
		var err error
		switch cl.mix.next() {
		case 0:
			class, err = classRead, cl.readTxn()
		case 1:
			class, err = classWrite, cl.insertTxn()
		case 2:
			class, err = classWrite, cl.remoteTxn()
		default:
			class, err = classScan, cl.scanTxn()
		}
		cl.rec.end(class, start, err)
		if isCheck(err) {
			return err
		}
	}
	return nil
}

func runSharded(cfg config) (*outcome, error) {
	sz := shardedSizes(cfg.tiny)
	rng := rand.New(rand.NewSource(cfg.seed))
	d := &shardedData{sz: sz, cust: make([]int64, sz.rows), amt: make([]int64, sz.rows)}
	for i := range d.cust {
		d.cust[i] = rng.Int63n(shardedCusts)
		d.amt[i] = rng.Int63n(1_000_000)
		d.custCount[d.cust[i]]++
	}

	s, setupS, err := timedSetups(func(n int) (*shardedDB, error) {
		return shardedSetup(d, filepath.Join(cfg.dir, fmt.Sprintf("sharded-%d", n)))
	}, func(s *shardedDB) { s.db.Close() })
	if err != nil {
		return nil, fmt.Errorf("sharded setup: %w", err)
	}
	closed := false
	defer func() {
		if !closed {
			s.db.Close()
		}
	}()

	w := &shardedRun{d: d, s: s}
	errs := newErrorLog(cfg.log)
	rn := &run{}
	clients := make([]*shardedClient, shardedClients)
	for c := range clients {
		rec := newRecorder(c, cfg.tracing, errs)
		rng := rand.New(rand.NewSource(cfg.seed*1_000_003 + int64(c)))
		// Per 20 transactions: 10 routed reads, 8 inserts, 1 remote, 1 scan.
		clients[c] = &shardedClient{c: c, w: w, rng: rng, mix: newMixer(rng, 10, 8, 1, 1), rec: rec,
			nextOrder: int64(sz.rows + c), nextAudit: int64(sz.audit + c), orders: map[int64][2]int64{}}
		rn.recs = append(rn.recs, rec)
	}
	msgs := func() int64 {
		var n int64
		for _, srv := range s.servers {
			n += srv.Messages.Load()
		}
		return n
	}

	runtime.GC()
	before, msgsBefore := takeProbe(s.db.Env), msgs()
	loops := make([]clientLoop, len(clients))
	for c, cl := range clients {
		loops[c] = cl.loop
	}
	var heapMB float64
	rn.window, heapMB, err = timedWindow(cfg.window, loops...)
	after, msgsAfter := takeProbe(s.db.Env), msgs()
	if err != nil {
		return nil, err
	}
	logLen := s.db.Env.Log.Len()

	attempted, failed, _ := rn.totals()
	wk := work{txns: rn.committed(), queries: attempted}
	for i, r := range rn.recs {
		wk.rowsWritten += r.rowsWritten
		wk.rowsVisited += clients[i].scanned
	}
	m := finish(rn, before, after, wk, cfg.tracing)
	m["heap_mb"] = heapMB

	m["setup_s"] = setupS
	m["wal.len_records"] = float64(logLen)
	m["wal.ckpt_busy_frac"] = 0
	m["remote.msgs_per_txn"] = ratio(float64(msgsAfter-msgsBefore), float64(wk.txns))

	// Clean restart onto the same servers.
	closed = true
	if err := s.db.Close(); err != nil {
		return nil, fmt.Errorf("sharded close: %w", err)
	}
	t := time.Now()
	rdb, err := dmx.Open(dmx.Config{LogPath: s.logPath})
	if err != nil {
		return nil, fmt.Errorf("sharded reopen: %w", err)
	}
	defer rdb.Close()
	attachServers(rdb, s.servers)
	if err := rdb.Env.Recover(); err != nil {
		return nil, fmt.Errorf("sharded recover: %w", err)
	}
	m["recover_s"] = time.Since(t).Seconds()
	m["wal.redo_records"] = float64(rdb.Env.Obs.WAL.RedoRecords.Load())
	if err := shardedVerify(rdb, d, clients); err != nil {
		return nil, err
	}
	if err := writeSpans(cfg.traceOut, rn.recs); err != nil {
		return nil, err
	}
	return &outcome{
		attempted: attempted, failed: failed, window: rn.window, clients: shardedClients, metrics: m,
		info: map[string]any{
			"rows": sz.rows, "audit_rows": sz.audit, "row_pad_bytes": sz.pad, "shards": shardedShards,
			"scan_batch": sz.batch, "server_latency": "0", "clients": shardedClients,
			"mix":          "50% routed point reads (4), 40% 3-row inserts (2PC), 5% remote fetch+insert, 5% filtered scatter scan",
			"flush_policy": "file WAL, fsync per commit group, CommitBatchWindow 0",
		},
	}, nil
}

// shardedVerify checks the reopened database: every loaded and every
// acknowledged row is there with its values, and nothing else.
func shardedVerify(db *dmx.DB, d *shardedData, clients []*shardedClient) error {
	want := map[int64][2]int64{}
	for id := range d.cust {
		want[int64(id)] = [2]int64{d.cust[id], d.amt[id]}
	}
	wantAudit := map[int64]bool{}
	for id := 0; id < d.sz.audit; id++ {
		wantAudit[int64(id)] = true
	}
	for _, cl := range clients {
		for id, v := range cl.orders {
			want[id] = v
		}
		for _, id := range cl.audits {
			wantAudit[id] = true
		}
	}
	tx := db.Begin()
	defer tx.Commit()
	scanAll := func(name string, visit func(types.Record) error) (int, error) {
		rel, err := db.Relation(name)
		if err != nil {
			return 0, err
		}
		s, err := rel.OpenScan(tx, core.ScanOptions{})
		if err != nil {
			return 0, err
		}
		n := 0
		for {
			_, r, ok, err := s.Next()
			if err != nil || !ok {
				return n, err
			}
			if err := visit(r); err != nil {
				return n, err
			}
			n++
		}
	}
	n, err := scanAll("orders", func(r types.Record) error {
		v, ok := want[r[0].I]
		if !ok || r[1].I != v[0] || r[2].I != v[1] {
			return checkf("sharded recover: unexpected row %v", r)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if n != len(want) {
		return checkf("sharded recover: %d partitioned rows, want %d", n, len(want))
	}
	n, err = scanAll("audit", func(r types.Record) error {
		if !wantAudit[r[0].I] || r[1].S != auditRecord(r[0].I)[1].S {
			return checkf("sharded recover: unexpected audit row %v", r)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if n != len(wantAudit) {
		return checkf("sharded recover: %d audit rows, want %d", n, len(wantAudit))
	}
	return nil
}
