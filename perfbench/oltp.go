package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"dmx"
	"dmx/internal/core"
	"dmx/internal/txn"
	"dmx/internal/types"
)

// oltp is the commit path: two clients share one heap relation with a
// B-tree index and a unique constraint on its key. 70% of transactions
// write (4 point reads, 2 updates of a non-indexed column, 1 insert), 30%
// are snapshot reads (8 point reads). Once a client has liveCap inserted
// rows, each of its write transactions also deletes its oldest one, so
// the relation, and with it the cost of a checkpoint, stays the same size
// through the run. Client 0 checkpoints every
// ckptEvery of its commits. After the window a fresh environment is
// opened over the log as it stands and recovers, as after a crash.
//
// The log is the in-memory one. On a 2-CPU VM with a shared disk the
// fsync of a file-backed log dominated the commit path and its latency
// varied two- to threefold from minute to minute, which no run length
// could average out; every other step of the commit path (record
// append, group-commit bookkeeping, commit-stamp publication, lock
// release) still runs.
type oltpSize struct {
	rows      int // loaded accounts
	pad       int // bytes of filler per row
	frames    int // buffer pool frames: enough to hold the data
	ckptEvery int // client-0 commits between checkpoints
	liveCap   int // inserted rows a client keeps before deleting its oldest
	loadBatch int // rows per load transaction
}

func oltpSizes(tiny bool) oltpSize {
	if tiny {
		return oltpSize{rows: 400, pad: 48, frames: 256, ckptEvery: 40, liveCap: 50, loadBatch: 100}
	}
	return oltpSize{rows: 20_000, pad: 48, frames: 8192, ckptEvery: 10000, liveCap: 5000, loadBatch: 500}
}

const (
	oltpClients     = 2
	oltpWrites      = 7 // write transactions in every 10
	oltpWriteReads  = 4
	oltpWriteUpds   = 2
	oltpSnapshotRds = 8
)

// oltpData is the seeded input: every loaded row's starting balance.
type oltpData struct {
	sz   oltpSize
	bal0 []int64
}

func oltpTag(id int64, pad int) types.Value { return types.Str(fmt.Sprintf("%0*d", pad, id)) }

func (d *oltpData) record(id, bal int64) types.Record {
	return types.Record{types.Int(id), types.Int(bal), oltpTag(id, d.sz.pad)}
}

type oltpDB struct {
	db  *dmx.DB
	rel *core.Relation
}

// oltpSetup creates and loads one database.
func oltpSetup(d *oltpData) (*oltpDB, error) {
	db, err := dmx.Open(dmx.Config{PoolFrames: d.sz.frames, CommitBatchWindow: 0})
	if err != nil {
		return nil, err
	}
	if _, err := db.Exec(
		"CREATE TABLE acct (id INT NOT NULL, bal INT, tag STRING) USING heap",
		"CREATE INDEX acct_id ON acct (id)",
		"CREATE ATTACHMENT unique ON acct WITH (name=acct_key, on=id)",
	); err != nil {
		db.Close()
		return nil, err
	}
	// The handle is opened after the DDL: a handle opened before an
	// attachment was created does not maintain it.
	rel, err := db.Relation("acct")
	if err != nil {
		db.Close()
		return nil, err
	}
	for lo := 0; lo < len(d.bal0); lo += d.sz.loadBatch {
		tx := db.Begin()
		for id := lo; id < lo+d.sz.loadBatch && id < len(d.bal0); id++ {
			if _, err := rel.Insert(tx, d.record(int64(id), d.bal0[id])); err != nil {
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
	return &oltpDB{db: db, rel: rel}, nil
}

// oltpClient is one closed-loop session. Client c alone updates the
// loaded ids congruent to c modulo the client count and inserts ids
// above the loaded range congruent to c, so it knows the last
// acknowledged value of every row it wrote.
type oltpClient struct {
	c    int
	w    *oltpRun
	rng  *rand.Rand
	mix  *mixer
	rec  *recorder
	own  []int64         // loaded ids this client updates
	bal  map[int64]int64 // acknowledged balance of every live row this client wrote
	live []int64         // ids this client inserted and has not deleted, oldest first
	next int64           // next id to insert

	commits   int
	lastCkpt  int
	ckptOK    int64
	ckptBusy  int64
	ckptRecs  int64
	ckptBytes int64
}

type oltpRun struct {
	d *oltpData
	o *oltpDB
}

func (w *oltpRun) newClient(c int, seed int64, rec *recorder) *oltpClient {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(c)))
	cl := &oltpClient{c: c, w: w, rng: rng, mix: newMixer(rng, oltpWrites, 10-oltpWrites), rec: rec,
		bal: map[int64]int64{}, next: int64(len(w.d.bal0) + c)}
	for id := int64(c); id < int64(len(w.d.bal0)); id += oltpClients {
		cl.own = append(cl.own, id)
		cl.bal[id] = w.d.bal0[id]
	}
	return cl
}

// lookup finds the record key of id through the B-tree index.
func (cl *oltpClient) lookup(tx *txn.Txn, id int64) (types.Key, error) {
	t := cl.rec.mark()
	keys, err := cl.w.o.rel.LookupAccess(tx, core.AttBTree, 0, types.EncodeKeyValues(types.Int(id)))
	cl.rec.done("core.lookup", t)
	if err != nil {
		return nil, err
	}
	if len(keys) != 1 {
		return nil, checkf("oltp: id %d: index lookup returned %d keys, want 1", id, len(keys))
	}
	return keys[0], nil
}

// read is one point read; want < 0 skips the balance check.
func (cl *oltpClient) read(tx *txn.Txn, id, want int64) error {
	key, err := cl.lookup(tx, id)
	if err != nil {
		return err
	}
	t := cl.rec.mark()
	r, err := cl.w.o.rel.Fetch(tx, key, nil, nil)
	cl.rec.done("core.fetch", t)
	if err != nil {
		return err
	}
	if len(r) != 3 || r[0].I != id {
		return checkf("oltp: fetch of id %d returned %v", id, r)
	}
	if want >= 0 && r[1].I != want {
		return checkf("oltp: id %d: balance %d, last acknowledged %d", id, r[1].I, want)
	}
	cl.rec.txRead++
	return nil
}

func (cl *oltpClient) commit(tx *txn.Txn) error {
	t := cl.rec.mark()
	err := tx.Commit()
	cl.rec.done("txn.commit", t)
	return err
}

// writeTxn reads and updates rows only this client writes, so a locking
// read must return the last acknowledged balance exactly.
func (cl *oltpClient) writeTxn() error {
	db := cl.w.o.db
	tx := db.Begin()
	cl.rec.setTxn(uint64(tx.ID()))
	pending := map[int64]int64{}
	err := func() error {
		for i := 0; i < oltpWriteReads; i++ {
			id := cl.own[cl.rng.Intn(len(cl.own))]
			if err := cl.read(tx, id, cl.bal[id]); err != nil {
				return err
			}
		}
		for i := 0; i < oltpWriteUpds; i++ {
			id := cl.own[cl.rng.Intn(len(cl.own))]
			key, err := cl.lookup(tx, id)
			if err != nil {
				return err
			}
			nb := cl.rng.Int63n(1_000_000)
			t := cl.rec.mark()
			_, err = cl.w.o.rel.Update(tx, key, cl.w.d.record(id, nb))
			cl.rec.done("core.update", t)
			if err != nil {
				return err
			}
			pending[id] = nb
			cl.rec.txWritten++
		}
		nb := cl.rng.Int63n(1_000_000)
		t := cl.rec.mark()
		_, err := cl.w.o.rel.Insert(tx, cl.w.d.record(cl.next, nb))
		cl.rec.done("core.insert", t)
		if err != nil {
			return err
		}
		pending[cl.next] = nb
		cl.rec.txWritten++
		if len(cl.live) >= cl.w.d.sz.liveCap {
			key, err := cl.lookup(tx, cl.live[0])
			if err != nil {
				return err
			}
			t := cl.rec.mark()
			err = cl.w.o.rel.Delete(tx, key)
			cl.rec.done("core.delete", t)
			if err != nil {
				return err
			}
			cl.rec.txWritten++
		}
		return cl.commit(tx)
	}()
	if err != nil {
		if tx.State() == txn.StateActive {
			tx.Abort()
		}
		return err
	}
	for id, b := range pending {
		cl.bal[id] = b
	}
	if len(cl.live) >= cl.w.d.sz.liveCap {
		delete(cl.bal, cl.live[0])
		cl.live = cl.live[1:]
	}
	cl.live = append(cl.live, cl.next)
	cl.next += oltpClients
	return nil
}

// readTxn is a snapshot transaction over rows of both clients.
func (cl *oltpClient) readTxn() error {
	tx := cl.w.o.db.BeginReadOnly()
	cl.rec.setTxn(uint64(tx.ID()))
	for i := 0; i < oltpSnapshotRds; i++ {
		if err := cl.read(tx, cl.rng.Int63n(int64(len(cl.w.d.bal0))), -1); err != nil {
			tx.Abort()
			return err
		}
	}
	return cl.commit(tx)
}

// maybeCheckpoint runs on client 0 between its transactions. A refused
// (busy) checkpoint is retried after the next transaction.
func (cl *oltpClient) maybeCheckpoint() error {
	if cl.commits-cl.lastCkpt < cl.w.d.sz.ckptEvery {
		return nil
	}
	wal := &cl.w.o.db.Env.Obs.WAL
	recs, bytes := wal.Appends.Load(), wal.AppendBytes.Load()
	t := cl.rec.mark()
	err := cl.w.o.db.Checkpoint()
	if errors.Is(err, core.ErrCheckpointBusy) {
		cl.ckptBusy++
		cl.rec.errs.note(err)
		return nil
	}
	if err != nil {
		return err
	}
	cl.rec.done("wal.checkpoint", t)
	cl.ckptRecs += wal.Appends.Load() - recs
	cl.ckptBytes += wal.AppendBytes.Load() - bytes
	cl.ckptOK++
	cl.lastCkpt = cl.commits
	return nil
}

func (cl *oltpClient) loop(deadline time.Time, stop *atomic.Bool) error {
	for !stop.Load() && time.Now().Before(deadline) {
		start := cl.rec.begin()
		class, err := classWrite, error(nil)
		if cl.mix.next() == 0 {
			err = cl.writeTxn()
		} else {
			class, err = classRead, cl.readTxn()
		}
		cl.rec.end(class, start, err)
		if isCheck(err) {
			return err
		}
		if err == nil {
			cl.commits++
		}
		if cl.c == 0 {
			if err := cl.maybeCheckpoint(); err != nil {
				return err
			}
		}
	}
	return nil
}

func runOLTP(cfg config) (*outcome, error) {
	sz := oltpSizes(cfg.tiny)
	rng := rand.New(rand.NewSource(cfg.seed))
	d := &oltpData{sz: sz, bal0: make([]int64, sz.rows)}
	for i := range d.bal0 {
		d.bal0[i] = rng.Int63n(1_000_000)
	}

	o, setupS, err := timedSetups(func(int) (*oltpDB, error) { return oltpSetup(d) }, func(o *oltpDB) { o.db.Close() })
	if err != nil {
		return nil, fmt.Errorf("oltp setup: %w", err)
	}
	// The measured database is not closed: a clean close would checkpoint
	// the log the crash restart below recovers from. It holds no files.

	w := &oltpRun{d: d, o: o}
	errs := newErrorLog(cfg.log)
	clients := make([]*oltpClient, oltpClients)
	rn := &run{}
	for c := range clients {
		rec := newRecorder(c, cfg.tracing, errs)
		clients[c] = w.newClient(c, cfg.seed, rec)
		rn.recs = append(rn.recs, rec)
	}

	runtime.GC()
	before := takeProbe(o.db.Env)
	loops := make([]clientLoop, len(clients))
	for c, cl := range clients {
		loops[c] = cl.loop
	}
	var heapMB float64
	rn.window, heapMB, err = timedWindow(cfg.window, loops...)
	after := takeProbe(o.db.Env)
	if err != nil {
		return nil, err
	}
	logLen := o.db.Env.Log.Len()

	var wk work
	for _, cl := range clients {
		wk.ckptAppends += cl.ckptRecs
		wk.ckptBytes += cl.ckptBytes
	}
	attempted, failed, _ := rn.totals()
	wk.txns, wk.queries = rn.committed(), attempted
	for _, r := range rn.recs {
		wk.rowsWritten += r.rowsWritten
		wk.rowsVisited += r.rowsRead
	}
	m := finish(rn, before, after, wk, cfg.tracing)
	m["heap_mb"] = heapMB
	m["setup_s"] = setupS
	m["wal.len_records"] = float64(logLen)
	ok, busy := clients[0].ckptOK, clients[0].ckptBusy
	m["wal.ckpt_busy_frac"] = ratio(float64(busy), float64(ok+busy))
	m["remote.msgs_per_txn"] = 0
	if ok == 0 {
		return nil, fmt.Errorf("oltp: no checkpoint completed in the window (%d refused as busy)", busy)
	}

	if err := oltpRestart(o, sz, clients, m); err != nil {
		return nil, err
	}
	if err := writeSpans(cfg.traceOut, rn.recs); err != nil {
		return nil, err
	}
	return &outcome{
		attempted: attempted, failed: failed, window: rn.window, clients: oltpClients, metrics: m,
		info: map[string]any{
			"rows": sz.rows, "row_pad_bytes": sz.pad, "pool_frames": sz.frames, "clients": oltpClients,
			"mix":          fmt.Sprintf("70%% write (4 point reads, 2 updates, 1 insert, 1 delete once %d inserted), 30%% snapshot read (8 point reads)", sz.liveCap),
			"checkpoint":   fmt.Sprintf("client 0 every %d commits; %d done, %d refused busy", sz.ckptEvery, ok, busy),
			"flush_policy": "in-memory log (no fsync), CommitBatchWindow 0",
		},
	}, nil
}

// oltpRestart is the crash restart: a fresh environment over the log as
// it stands, without a clean close, recovers, and every acknowledged write
// is checked.
func oltpRestart(o *oltpDB, sz oltpSize, clients []*oltpClient, m map[string]float64) error {
	t := time.Now()
	env := core.NewEnv(core.Config{Log: o.db.Env.Log, PoolFrames: sz.frames})
	if err := env.Recover(); err != nil {
		return fmt.Errorf("oltp recover: %w", err)
	}
	m["recover_s"] = time.Since(t).Seconds()
	m["wal.redo_records"] = float64(env.Obs.WAL.RedoRecords.Load())
	return oltpVerify(env, clients)
}

// oltpVerify checks the recovered database: every acknowledged update
// and insert is there with its last acknowledged value, no acknowledged
// delete or unacknowledged write is, and the index answers for every row.
func oltpVerify(env *core.Env, clients []*oltpClient) error {
	want := map[int64]int64{}
	for _, cl := range clients {
		for id, b := range cl.bal {
			want[id] = b
		}
	}
	rel, err := env.OpenRelationByName("acct")
	if err != nil {
		return err
	}
	tx := env.BeginReadOnly()
	defer tx.Commit()
	scan, err := rel.OpenScan(tx, core.ScanOptions{})
	if err != nil {
		return err
	}
	got := 0
	for {
		_, r, ok, err := scan.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		got++
		b, ok := want[r[0].I]
		if !ok {
			return checkf("oltp recover: unacknowledged row id %d", r[0].I)
		}
		if r[1].I != b {
			return checkf("oltp recover: id %d balance %d, last acknowledged %d", r[0].I, r[1].I, b)
		}
	}
	if got != len(want) {
		return checkf("oltp recover: %d rows, want %d", got, len(want))
	}
	for id := range want {
		keys, err := rel.LookupAccess(tx, core.AttBTree, 0, types.EncodeKeyValues(types.Int(id)))
		if err != nil {
			return err
		}
		if len(keys) != 1 {
			return checkf("oltp recover: index has %d keys for id %d", len(keys), id)
		}
	}
	return nil
}
