package rig

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"dmx/internal/att/check"
	"dmx/internal/core"
	"dmx/internal/ddl"
	"dmx/internal/expr"
	"dmx/internal/lock"
	"dmx/internal/plan"
	"dmx/internal/remote"
	"dmx/internal/sm/smutil"
	"dmx/internal/txn"
	"dmx/internal/types"
	"dmx/internal/wal"

	_ "dmx/internal/att/aggmv"
	_ "dmx/internal/att/btreeix"
	_ "dmx/internal/att/hashidx"
	_ "dmx/internal/att/joinidx"
	_ "dmx/internal/att/refint"
	_ "dmx/internal/att/rtreeix"
	_ "dmx/internal/att/stats"
	_ "dmx/internal/att/unique"
	_ "dmx/internal/sm/appendsm"
	_ "dmx/internal/sm/btreesm"
	_ "dmx/internal/sm/heap"
	_ "dmx/internal/sm/memsm"
	_ "dmx/internal/sm/remotesm"
	_ "dmx/internal/sm/tempsm"
)

// The workloads of experiments E1–E12 and ablations A1–A2 are defined
// once, here. cmd/dmxbench builds each at its report sizes and times it
// with its own timers; the root package's testing.B targets build each at
// fixed sizes and run its operation under b.Loop. Constructors panic on a
// setup failure, like MustCreate; operations return an error when they
// fail or their result check does not hold.

// posPredicate names the check constraint eno >= 0 used by E5 and E8.
const posPredicate = "rig.pos"

func init() {
	check.RegisterPredicate(posPredicate, expr.Ge(expr.Field(0), expr.Const(types.Int(0))))
}

// Attachment is one attachment instance a workload adds to its relation.
type Attachment struct {
	Label, Type string
	Attrs       core.AttrList
}

// Workload is a workload over one relation: its environment, the
// relation, and the open transaction its single-record operations run in.
type Workload struct {
	Env    *core.Env
	Rel    *core.Relation
	Server *remote.Server // the foreign server of a remote relation, else nil
	Rows   int            // records inserted so far; the next Insert writes record Rows
	Pad    int            // filler bytes per record
	tx     *txn.Txn
	sp     int         // Rows at the last savepoint
	keys   []types.Key // keys of the records loaded at build
}

// build creates relation emp in env under storage method sm, loads rows
// standard records, then adds atts. A remote relation gets a foreign
// server named fed with 20µs latency per message.
func build(env *core.Env, sm string, attrs core.AttrList, rows, pad int, atts ...Attachment) *Workload {
	w := &Workload{Env: env, Rows: rows, Pad: pad}
	if sm == "remote" {
		w.Server = remote.NewServer(20 * time.Microsecond)
		smutil.AttachServer(env, "fed", w.Server)
	}
	w.Rel = MustCreate(env, "emp", sm, attrs)
	w.keys = Load(env, w.Rel, rows, pad)
	w.attach(atts...)
	return w
}

// attach adds atts to emp and reopens it, so w.Rel carries every
// attachment.
func (w *Workload) attach(atts ...Attachment) {
	for _, a := range atts {
		MustAttach(w.Env, "emp", a.Type, a.Attrs)
	}
	w.Rel = must(w.Env.OpenRelationByName("emp"))
}

// Tx returns the open transaction, beginning one if none is open.
func (w *Workload) Tx() *txn.Txn {
	if w.tx == nil {
		w.tx = w.Env.Begin()
	}
	return w.tx
}

// Commit commits the open transaction, if any.
func (w *Workload) Commit() error {
	tx := w.tx
	w.tx = nil
	if tx == nil {
		return nil
	}
	return tx.Commit()
}

// Insert inserts the next standard record in the open transaction.
func (w *Workload) Insert() (types.Key, error) {
	k, err := w.Rel.Insert(w.Tx(), EmpRecord(w.Rows, w.Pad))
	w.Rows++
	return k, err
}

// Count scans the relation in a fresh transaction and checks that want
// records come back.
func (w *Workload) Count(opts core.ScanOptions, want int) error {
	got, err := w.count(opts)
	return expect(err, "scan", got, want)
}

// ScanAll scans every record's eno and checks that all Rows come back.
func (w *Workload) ScanAll() error { return w.Count(core.ScanOptions{Fields: []int{0}}, w.Rows) }

func (w *Workload) count(opts core.ScanOptions) (n int, err error) {
	err = inTxn(w.Env, func(tx *txn.Txn) error {
		scan, err := w.Rel.OpenScan(tx, opts)
		if err != nil {
			return err
		}
		defer scan.Close()
		for {
			_, _, ok, err := scan.Next()
			if err != nil || !ok {
				return err
			}
			n++
		}
	})
	return n, err
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// inTxn runs fn in a fresh transaction, committing it unless fn fails.
func inTxn(env *core.Env, fn func(tx *txn.Txn) error) error {
	tx := env.Begin()
	if err := fn(tx); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

// expect passes err on, or reports a got count that is not want.
func expect(err error, what string, got, want int) error {
	if err == nil && got != want {
		err = fmt.Errorf("%s: got %d records, want %d", what, got, want)
	}
	return err
}

// runPlan executes b in a fresh transaction and checks it returns want rows.
func runPlan(env *core.Env, b *plan.Bound, want int) error {
	got := 0
	err := inTxn(env, func(tx *txn.Txn) error {
		rows, err := b.Execute(tx)
		if err != nil {
			return err
		}
		defer rows.Close()
		for {
			_, ok, err := rows.Next()
			if err != nil || !ok {
				return err
			}
			got++
		}
	})
	return expect(err, b.Explain(), got, want)
}

// --- E1: extension activation ---

// Dispatch is E1: six storage-method entries, activated through the
// procedure vector, a map keyed by small-integer id, or a map keyed by
// name. Each method activates the entry for call i and invokes it.
type Dispatch struct {
	reg    *core.Registry
	direct func(*types.Schema, core.AttrList) error
	byID   map[core.SMID]*core.StorageOps
	byName map[string]*core.StorageOps
	names  []string
}

// NewDispatch builds E1's registry and lookup tables.
func NewDispatch() *Dispatch {
	d := &Dispatch{reg: core.NewRegistry(), byID: map[core.SMID]*core.StorageOps{}, byName: map[string]*core.StorageOps{}}
	validate := func(*types.Schema, core.AttrList) error { return nil }
	for id := core.SMID(1); id <= 6; id++ {
		d.reg.RegisterStorageMethod(&core.StorageOps{ID: id, Name: fmt.Sprintf("sm%d", id), ValidateAttrs: validate})
		ops := d.reg.StorageOps(id)
		d.byID[id], d.byName[ops.Name] = ops, ops
		d.names = append(d.names, ops.Name)
	}
	d.direct = d.reg.StorageOps(2).ValidateAttrs
	return d
}

// Direct invokes one entry with no selection at all.
func (d *Dispatch) Direct(int) error { return d.direct(nil, nil) }

// Vector selects by indexing the procedure vector.
func (d *Dispatch) Vector(i int) error {
	return d.reg.StorageOps(core.SMID(1+i%6)).ValidateAttrs(nil, nil)
}

// ByID selects through a map keyed by the small-integer id.
func (d *Dispatch) ByID(i int) error { return d.byID[core.SMID(1+i%6)].ValidateAttrs(nil, nil) }

// ByName selects through a map keyed by the extension's name.
func (d *Dispatch) ByName(i int) error { return d.byName[d.names[i%6]].ValidateAttrs(nil, nil) }

// --- E2: join strategies ---

// E2's join strategies, in report order.
const (
	JoinNestedLoop = iota
	JoinIndexNL
	JoinHash
	JoinIndex
)

// JoinLabels names E2's strategies, indexed by strategy.
var JoinLabels = []string{"nested loop (rescan inner)", "index NL (B-tree probe)", "hash join (build inner)", "join index"}

// Join is E2: emp (heap) joined on dno to a 10-record dept (memory).
type Join struct {
	Env   *core.Env
	Plan  *plan.Bound
	Outer int // emp records; each joins exactly one dept record
}

// NewJoin plans E2's join with the given strategy. The first three are
// forced, so each times the strategy it is named for; the join index
// is chosen because the query names it.
func NewJoin(outer, strategy int) *Join {
	env := core.NewEnv(core.Config{})
	Load(env, MustCreate(env, "emp", "heap", nil), outer, 20)
	dept := MustCreate(env, "dept", "memory", nil)
	WithTxn(env, func(tx *txn.Txn) {
		for i := 0; i < 10; i++ {
			if _, err := dept.Insert(tx, types.Record{types.Int(int64(i)), types.Int(int64(i)), types.Float(0), types.Str("d")}); err != nil {
				panic(err)
			}
		}
	})
	spec := plan.JoinSpec{Table: "dept", OuterCol: 1, InnerCol: 0, Fields: []int{1}}
	force := [...]string{"nl", "indexnl", "hash", ""}[strategy]
	switch strategy {
	case JoinIndexNL:
		// The join probes dept's field 0 (its records carry eno == dno), so
		// the index must cover eno; on dno the probe path is unusable.
		MustAttach(env, "dept", "btree", core.AttrList{"on": "eno"})
	case JoinIndex:
		MustAttach(env, "emp", "joinindex", core.AttrList{"name": "ed", "on": "dno", "peer": "dept"})
		MustAttach(env, "dept", "joinindex", core.AttrList{"name": "ed", "on": "dno", "peer": "emp"})
		spec.JoinIndex = "ed"
	}
	b := must(plan.New(env).Plan(plan.Query{Table: "emp", Fields: []int{0}, Join: &spec, ForceJoin: force}))
	return &Join{Env: env, Plan: b, Outer: outer}
}

// Run executes the join and checks every emp record found its dept.
func (j *Join) Run() error { return runPlan(j.Env, j.Plan, j.Outer) }

// --- E3: bound plans ---

// BoundPlans is E3: a point query through a unique B-tree on emp.eno
// (memory), as a saved plan, as a query planned each time, and as SQL.
type BoundPlans struct {
	Env     *core.Env
	Planner *plan.Planner
	Query   plan.Query
	Bound   *plan.Bound
	SQL     string
}

// NewBoundPlans loads rows emp records and saves the plan for eno = 123
// (the last record when there are fewer).
func NewBoundPlans(rows int) *BoundPlans {
	w := build(core.NewEnv(core.Config{}), "memory", nil, rows, 20,
		Attachment{Type: "btree", Attrs: core.AttrList{"name": "byeno", "on": "eno", "unique": "true"}})
	key := min(123, rows-1)
	q := plan.Query{Table: "emp", Fields: []int{2}, Filter: expr.Eq(expr.Field(0), expr.Const(types.Int(int64(key))))}
	p := plan.New(w.Env)
	return &BoundPlans{Env: w.Env, Planner: p, Query: q, Bound: must(p.Plan(q)),
		SQL: fmt.Sprintf("SELECT salary FROM emp WHERE eno = %d", key)}
}

// Reused executes the saved plan.
func (w *BoundPlans) Reused() error { return runPlan(w.Env, w.Bound, 1) }

// Replanned plans the query again, then executes it.
func (w *BoundPlans) Replanned() error {
	b, err := w.Planner.Plan(w.Query)
	if err != nil {
		return err
	}
	return runPlan(w.Env, b, 1)
}

// ParseBindExecute runs the query as SQL in a fresh session, which
// defeats the saved-plan cache: it pays parse, catalog access and
// optimization every time.
func (w *BoundPlans) ParseBindExecute() error {
	res, err := ddl.NewSession(w.Env).Exec(w.SQL)
	if err != nil {
		return err
	}
	return expect(nil, w.SQL, len(res.Rows), 1)
}

// --- E4: filter pushdown ---

// Filter is E4: emp (heap, 100-byte pads) over a 64-frame buffer pool,
// filtered on eno < limit, which matches limit records.
type Filter struct{ *Workload }

// NewFilter loads rows records.
func NewFilter(rows int) Filter {
	return Filter{build(core.NewEnv(core.Config{PoolFrames: 64}), "heap", nil, rows, 100)}
}

func enoBelow(limit int) *expr.Expr {
	return expr.Lt(expr.Field(0), expr.Const(types.Int(int64(limit))))
}

// Pushdown scans with the predicate evaluated inside the storage method,
// while the record is still in the buffer pool.
func (w Filter) Pushdown(limit int) error {
	return w.Count(core.ScanOptions{Filter: enoBelow(limit), Fields: []int{0}}, limit)
}

// CopyThenFilter copies every record out of the storage method and then
// evaluates the predicate, as an application filtering a scan would.
func (w Filter) CopyThenFilter(limit int) error {
	filter, matches := enoBelow(limit), 0
	err := inTxn(w.Env, func(tx *txn.Txn) error {
		scan, err := w.Rel.OpenScan(tx, core.ScanOptions{})
		if err != nil {
			return err
		}
		defer scan.Close()
		for {
			_, rec, ok, err := scan.Next()
			if err != nil || !ok {
				return err
			}
			keep, err := w.Env.Eval.EvalBool(filter, rec, nil)
			if err != nil {
				return err
			}
			if keep {
				matches++
			}
		}
	})
	return expect(err, "copy-then-filter", matches, limit)
}

// --- E5: attachment maintenance cost ---

// AttachmentSteps is E5's attachment list, accumulated in this order.
var AttachmentSteps = []Attachment{
	{"+ btree index (dno)", "btree", core.AttrList{"name": "i1", "on": "dno"}},
	{"+ btree index (salary)", "btree", core.AttrList{"name": "i2", "on": "salary"}},
	{"+ hash index (eno)", "hash", core.AttrList{"name": "h1", "on": "eno"}},
	{"+ unique (eno)", "unique", core.AttrList{"name": "u1", "on": "eno"}},
	{"+ check constraint", "check", core.AttrList{"name": "c1", "predicate": posPredicate}},
	{"+ stats", "stats", nil},
	{"+ aggregate (salary by dno)", "aggregate", core.AttrList{"name": "a1", "group": "dno", "value": "salary"}},
}

// NewAttachmentCost is E5: an empty emp (memory) carrying the first k
// AttachmentSteps; Insert is the measured operation.
func NewAttachmentCost(k int) *Workload {
	return build(core.NewEnv(core.Config{}), "memory", nil, 0, 20, AttachmentSteps[:k]...)
}

// --- E6: access path selection ---

// AccessPath is one E6 query: the plan the planner chose for it and the
// record count a storage-method scan returns for it.
type AccessPath struct {
	*Workload
	Filter *expr.Expr
	Plan   *plan.Bound
	Want   int
}

// E6's emp queries, indexed as NewAccessPaths returns them.
const (
	PathPoint = iota
	PathRange
	PathEquality
	PathNonIndexed
)

// AccessPathLabels names E6's emp queries, indexed as above.
var AccessPathLabels = []string{"point: eno = K", "range: eno < N/100", "equality: dno = 3 (10%)", "non-indexed: salary > N-10"}

// NewAccessPaths is E6 over emp (heap, 2,048 frames) with a unique B-tree
// on eno and a hash index on dno.
func NewAccessPaths(rows int) []*AccessPath {
	w := build(core.NewEnv(core.Config{PoolFrames: 2048}), "heap", nil, rows, 40,
		Attachment{Type: "btree", Attrs: core.AttrList{"name": "byeno", "on": "eno", "unique": "true"}},
		Attachment{Type: "hash", Attrs: core.AttrList{"name": "bydno", "on": "dno"}})
	p := plan.New(w.Env)
	return []*AccessPath{
		newAccessPath(w, p, expr.Eq(expr.Field(0), expr.Const(types.Int(int64(rows/2))))),
		newAccessPath(w, p, expr.Lt(expr.Field(0), expr.Const(types.Int(int64(rows/100))))),
		newAccessPath(w, p, expr.Eq(expr.Field(1), expr.Const(types.Int(3)))),
		newAccessPath(w, p, expr.Gt(expr.Field(2), expr.Const(types.Float(float64(rows-10))))),
	}
}

// NewSpatial is E6's spatial query: rows 2×2 boxes on a square grid in
// parcels (memory) under an R-tree, and an ENCLOSES window over the
// grid's first tenth in each direction.
func NewSpatial(rows int) *AccessPath {
	env := core.NewEnv(core.Config{})
	s := types.MustSchema(
		types.Column{Name: "id", Kind: types.KindInt, NotNull: true},
		types.Column{Name: "shape", Kind: types.KindBytes},
	)
	side := 1
	for side*side < rows {
		side++
	}
	WithTxn(env, func(tx *txn.Txn) {
		if _, err := env.CreateRelation(tx, "parcels", s, "memory", nil); err != nil {
			panic(err)
		}
	})
	w := &Workload{Env: env, Rows: rows}
	w.Rel = must(env.OpenRelationByName("parcels"))
	WithTxn(env, func(tx *txn.Txn) {
		for i := 0; i < rows; i++ {
			x, y := float64(i%side)*10, float64(i/side)*10
			if _, err := w.Rel.Insert(tx, types.Record{types.Int(int64(i)), expr.NewBox(x, y, x+2, y+2).Value()}); err != nil {
				panic(err)
			}
		}
	})
	MustAttach(env, "parcels", "rtree", core.AttrList{"on": "shape"})
	w.Rel = must(env.OpenRelationByName("parcels"))
	window := expr.NewBox(0, 0, float64(side)/10, float64(side)/10)
	return newAccessPath(w, plan.New(env), expr.Encloses(expr.Const(window.Value()), expr.Field(1)))
}

func newAccessPath(w *Workload, p *plan.Planner, filter *expr.Expr) *AccessPath {
	q := &AccessPath{Workload: w, Filter: filter,
		Plan: must(p.Plan(plan.Query{Table: w.Rel.Desc().Name, Fields: []int{0}, Filter: filter}))}
	q.Want = must(w.count(q.scanOptions()))
	return q
}

func (q *AccessPath) scanOptions() core.ScanOptions {
	return core.ScanOptions{Filter: q.Filter, Fields: []int{0}}
}

// Chosen executes the planned access path and checks it returns what the
// storage-method scan does.
func (q *AccessPath) Chosen() error { return runPlan(q.Env, q.Plan, q.Want) }

// Scan runs the storage-method scan with the predicate pushed down.
func (q *AccessPath) Scan() error { return q.Count(q.scanOptions(), q.Want) }

// --- E7: storage methods ---

// StorageMethods is E7's list of storage methods, in report order.
var StorageMethods = []struct {
	Label, SM string
	Attrs     core.AttrList
}{
	{"heap", "heap", nil},
	{"btree (key=eno)", "btree", core.AttrList{"key": "eno"}},
	{"memory", "memory", nil},
	{"temp (unlogged)", "temp", nil},
	{"append (lsm)", "append", nil},
	{"remote (20µs RTT)", "remote", core.AttrList{"server": "fed"}},
}

// NewStorageMethod is E7: an empty emp under the StorageMethods entry
// for sm, over a 1,024-frame buffer pool; Insert is the measured operation.
func NewStorageMethod(sm string) *Workload {
	for _, c := range StorageMethods {
		if c.SM == sm {
			return build(core.NewEnv(core.Config{PoolFrames: 1024}), sm, c.Attrs, 0, 40)
		}
	}
	panic("rig: no E7 storage method " + sm)
}

// --- E8: veto and partial rollback ---

// NewVeto is E8: an empty emp (memory) with B-trees on dno and salary,
// stats, and the check constraint eno >= 0. The check has the highest
// attachment id among these, so a veto fires after the storage method
// and both indexes applied.
func NewVeto() *Workload {
	return build(core.NewEnv(core.Config{}), "memory", nil, 0, 20,
		Attachment{Type: "btree", Attrs: core.AttrList{"name": "i1", "on": "dno"}},
		Attachment{Type: "btree", Attrs: core.AttrList{"name": "i2", "on": "salary"}},
		Attachment{Type: "stats"},
		Attachment{Type: "check", Attrs: core.AttrList{"name": "pos", "predicate": posPredicate}})
}

// InsertVetoed inserts, in the open transaction, a record the check
// constraint rejects, and checks that an attachment vetoed it.
func (w *Workload) InsertVetoed() error {
	rec := EmpRecord(w.Rows, w.Pad)
	rec[0] = types.Int(-1)
	_, err := w.Rel.Insert(w.Tx(), rec)
	var ve *core.VetoError
	if !errors.As(err, &ve) {
		return fmt.Errorf("insert of eno -1 not vetoed: %v", err)
	}
	return nil
}

// SavepointInserts sets a savepoint in the open transaction, then
// inserts m records.
func (w *Workload) SavepointInserts(m int) error {
	if _, err := w.Tx().Savepoint("sp"); err != nil {
		return err
	}
	w.sp = w.Rows
	for i := 0; i < m; i++ {
		if _, err := w.Insert(); err != nil {
			return err
		}
	}
	return nil
}

// RollbackSavepoint rolls back to the savepoint and checks the relation
// holds what it held there.
func (w *Workload) RollbackSavepoint() error {
	if err := w.Tx().RollbackTo("sp"); err != nil {
		return err
	}
	w.Rows = w.sp
	return expect(nil, "rollback to savepoint", w.Rel.Storage().RecordCount(), w.Rows)
}

// --- E9: deferred constraints ---

// NewDeferred is E9: an empty emp (memory) whose dno references dept.dno,
// with 200 dept records, checked at timing "immediate" or "deferred".
func NewDeferred(timing string) *Workload {
	env := core.NewEnv(core.Config{})
	Load(env, MustCreate(env, "dept", "memory", nil), 200, 4)
	return build(env, "memory", nil, 0, 4, Attachment{Type: "refint", Attrs: core.AttrList{
		"name": "fk", "role": "child", "on": "dno", "peer": "dept", "peerkey": "dno", "timing": timing,
	}})
}

// InsertBatch inserts m records in one transaction; deferred checks run
// at its commit.
func (w *Workload) InsertBatch(m int) error {
	for i := 0; i < m; i++ {
		if _, err := w.Insert(); err != nil {
			w.Tx().Abort()
			w.tx = nil
			return err
		}
	}
	return w.Commit()
}

// --- E10: cascading deletes ---

// Cascade is E10: relations r0 (one record) to r<depth>, where each
// record of level L has 4 children in level L+1 and deletes cascade down.
type Cascade struct {
	*Workload
	Records int // records in all levels
	levels  []*core.Relation
	root    types.Key
}

// NewCascade builds a chain of depth cascading references.
func NewCascade(depth int) *Cascade {
	const fanout = 4
	env := core.NewEnv(core.Config{})
	for level := 0; level <= depth; level++ {
		MustCreate(env, fmt.Sprintf("r%d", level), "memory", nil)
	}
	for level := 0; level < depth; level++ {
		MustAttach(env, fmt.Sprintf("r%d", level), "refint", core.AttrList{
			"name": "cascade", "role": "parent", "on": "eno",
			"peer": fmt.Sprintf("r%d", level+1), "peerkey": "dno", "action": "cascade",
		})
	}
	c := &Cascade{}
	// Record i at level L references its parent i/fanout at level L-1 by dno.
	WithTxn(env, func(tx *txn.Txn) {
		count := 1
		for level := 0; level <= depth; level++ {
			rel := must(env.OpenRelationByName(fmt.Sprintf("r%d", level)))
			for i := 0; i < count; i++ {
				k, err := rel.Insert(tx, types.Record{types.Int(int64(i)), types.Int(int64(i / fanout)), types.Float(0), types.Str("")})
				if err != nil {
					panic(err)
				}
				if level == 0 {
					c.root = k
				}
			}
			c.levels = append(c.levels, rel)
			c.Records += count
			count *= fanout
		}
	})
	c.Workload = &Workload{Env: env, Rel: c.levels[0], Rows: 1}
	return c
}

// Delete deletes the root record in the open transaction.
func (c *Cascade) Delete() error { return c.Rel.Delete(c.Tx(), c.root) }

// Commit checks that the delete reached every level, then commits.
func (c *Cascade) Commit() error {
	for _, rel := range c.levels {
		if n := rel.Storage().RecordCount(); n != 0 {
			return fmt.Errorf("cascade left %d records in %s", n, rel.Desc().Name)
		}
	}
	return c.Workload.Commit()
}

// --- E11: descriptor encoding ---

// NewDescriptor is E11: emp's encoded descriptor with present attachment
// types, each carrying a 24-byte descriptor.
func NewDescriptor(present int) []byte {
	rd := &core.RelDesc{RelID: 7, Name: "emp", Schema: EmpSchema(), SM: core.SMHeap, SMDesc: []byte{1, 2, 3, 4}}
	for i := 0; i < present; i++ {
		rd.AttDesc[core.AttID(i+1)] = []byte("dddddddddddddddddddddddd")
	}
	return rd.AppendEncode(nil)
}

// DecodeDescriptor decodes enc and checks that it consumed every byte.
func DecodeDescriptor(enc []byte) error {
	_, n, err := core.DecodeRelDesc(enc)
	return expect(err, "descriptor bytes decoded", n, len(enc))
}

// --- E12: lock manager ---

// Locking is E12: one lock manager whose transactions each take 4 X
// locks on keys no other worker uses, then release them.
type Locking struct{ Mgr *lock.Manager }

// NewLocking returns E12's lock manager.
func NewLocking() Locking { return Locking{lock.NewManager()} }

// Txn runs worker w's i-th transaction; w must be below 256.
func (l Locking) Txn(w, i int) error {
	id := wal.TxnID(i<<8|w) + 1
	for k := 0; k < 4; k++ {
		if err := l.Mgr.Acquire(id, lock.KeyResource(1, []byte{byte(w), byte(i), byte(k)}), lock.ModeX); err != nil {
			return err
		}
	}
	l.Mgr.ReleaseAll(id)
	return nil
}

// --- A1: index-maintenance skip on unchanged fields ---

// Updates is A1: emp (memory) under B-trees on dno and eno, whose
// records Update rewrites round-robin.
type Updates struct {
	*Workload
	recs []types.Record // the current record under each of w.keys
	n    int
}

// NewUpdates loads rows records, then indexes them.
func NewUpdates(rows int) *Updates {
	w := &Updates{Workload: build(core.NewEnv(core.Config{}), "memory", nil, rows, 20,
		Attachment{Type: "btree", Attrs: core.AttrList{"name": "i1", "on": "dno"}},
		Attachment{Type: "btree", Attrs: core.AttrList{"name": "i2", "on": "eno"}})}
	for i := 0; i < rows; i++ {
		w.recs = append(w.recs, EmpRecord(i, w.Pad))
	}
	return w
}

// Update rewrites the next record in the open transaction with a new pad
// and, when indexed is 1 or 2, a new dno, or a new dno and eno: that many
// of the two indexes need maintenance.
func (w *Updates) Update(indexed int) error {
	idx := w.n % len(w.keys)
	w.n++
	rec := append(types.Record(nil), w.recs[idx]...)
	rec[3] = types.Str("pad" + strconv.Itoa(w.n))
	if indexed >= 1 {
		rec[1] = types.Int((rec[1].AsInt() + 1) % 10)
	}
	if indexed >= 2 {
		rec[0] = types.Int(rec[0].AsInt() + 1_000_000)
	}
	k, err := w.Rel.Update(w.Tx(), w.keys[idx], rec)
	w.keys[idx], w.recs[idx] = k, rec
	return err
}

// AttachmentUpdates counts the attachment update records in env's log
// from position since on.
func AttachmentUpdates(env *core.Env, since int) int {
	n := 0
	for _, lr := range env.Log.Records()[since:] {
		if lr.Kind == wal.RecUpdate && lr.Owner.Class == wal.OwnerAttachment {
			n++
		}
	}
	return n
}

// --- A2: remote scan batch size ---

// NewRemoteScan is A2: rows records in a remote relation whose scans
// fetch batch records per message; ScanAll is the measured operation.
func NewRemoteScan(rows, batch int) *Workload {
	return build(core.NewEnv(core.Config{}), "remote", core.AttrList{"server": "fed", "batch": strconv.Itoa(batch)}, rows, 20)
}
