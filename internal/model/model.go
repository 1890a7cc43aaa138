package model

import (
	"errors"
	"sort"

	"dmx/internal/att/refint"
	"dmx/internal/att/unique"
	"dmx/internal/core"
	"dmx/internal/sm/smutil"
	"dmx/internal/types"
)

// The fuzzed relations share one schema so records are interchangeable
// across storage methods: ColID feeds key-organised storage and unique
// constraints, ColGrp doubles as foreign key and aggregate group, ColVal
// feeds aggregates and the veto trigger, ColNote is filler payload.
const (
	ColID = iota
	ColGrp
	ColVal
	ColNote
)

// FuzzSchema is the shared schema of every fuzzed relation.
func FuzzSchema() *types.Schema {
	return types.MustSchema(
		types.Column{Name: "id", Kind: types.KindInt, NotNull: true},
		types.Column{Name: "grp", Kind: types.KindInt},
		types.Column{Name: "val", Kind: types.KindFloat, NotNull: true},
		types.Column{Name: "note", Kind: types.KindString},
	)
}

// IxDef describes one index instance (B-tree or hash access path) or one
// uniqueness constraint.
type IxDef struct {
	Name   string
	Fields []int
}

// AggDef describes one aggregate attachment instance.
type AggDef struct {
	Name       string
	GroupField int // -1 = global aggregate
	ValueField int
}

// FKDef describes one referential-integrity constraint pair: the def is
// stored on the child relation (OwnFields are the foreign-key columns)
// and mirrored by a parent-role def on the peer.
type FKDef struct {
	Name       string
	OwnFields  []int  // FK columns on the child
	Peer       string // parent relation
	PeerFields []int  // parent key columns
	Cascade    bool   // parent action (false = restrict)
	Deferred   bool   // child timing (false = immediate)
}

// RelCfg is the model's view of one relation: storage method, key
// organisation, and the attachment instances defined on it. BTree and
// Hash are ordered def lists — list position is the engine's dense
// access-path instance number, and index DDL appends/removes in place.
type RelCfg struct {
	Name      string
	SM        string        // storage method DDL name
	SMAttrs   core.AttrList // storage method DDL attributes
	KeyFields []int         // btree-SM key columns (nil otherwise)
	BTree     []IxDef
	Hash      []IxDef
	Uniques   []IxDef
	Aggs      []AggDef
	ChildFK   *FKDef // child-role refint def on this relation
	ParentOf  *FKDef // parent-role refint def on this relation
	Trig      bool   // veto trigger (events=insert,update; vetoes val < 0)
}

func (c *RelCfg) clone() *RelCfg {
	out := *c
	out.BTree = append([]IxDef(nil), c.BTree...)
	out.Hash = append([]IxDef(nil), c.Hash...)
	return &out
}

// Fleet is the set of relations one scenario runs over.
type Fleet []*RelCfg

// ErrTriggerVeto is the veto reason the registered model trigger returns
// for negative values.
var ErrTriggerVeto = errors.New("model: trigger vetoed negative value")

// Outcome is the model's prediction for one operation: success, or a veto
// by a particular extension for a particular reason.
type Outcome struct {
	OK  bool
	Ext string // expected core.VetoError.Extension ("" when the error is not a statement veto)
	Err error  // expected errors.Is sentinel
}

func success() Outcome                   { return Outcome{OK: true} }
func veto(ext string, err error) Outcome { return Outcome{Ext: ext, Err: err} }

// keyedSM reports whether a storage method is key-organised: its key
// fields are the primary key and inserts/updates colliding on them are
// vetoed by the method itself.
func keyedSM(sm string) bool { return sm == "btree" || sm == "part" }

// Row is one live record in the oracle: the record value plus the engine
// record key once the harness has learned it (nil in generator mode).
type Row struct {
	Rec types.Record
	Key types.Key
}

func (r *Row) clone() *Row {
	out := &Row{Rec: r.Rec.Clone()}
	if r.Key != nil {
		out.Key = r.Key.Clone()
	}
	return out
}

type relState struct {
	cfg  *RelCfg
	rows map[int]*Row
}

// undoEntry is one journal record: restore rid in rel to row (nil row =
// the rid did not exist). Pure data, so a mid-transaction Model can be
// cloned for crash-ambiguity resolution.
type undoEntry struct {
	rel string
	rid int
	row *Row
}

type savept struct {
	name string
	mark int // journal length at the savepoint
}

// deferredFK is one queued deferred referential-integrity check.
type deferredFK struct {
	rel  string
	def  *FKDef
	vals []types.Value
}

// Model is the pure in-memory reference implementation of the engine's
// visible semantics: relations as record maps with per-transaction undo,
// plus reference semantics for the unique, refint, trigger, and aggregate
// attachments (including veto outcomes). Derived attachment state
// (indexes, aggregates) is recomputed from the rows at verification time
// rather than maintained incrementally, so the model cannot share an
// incremental-maintenance bug with the engine.
type Model struct {
	rels  map[string]*relState
	names []string // deterministic iteration order

	inTxn    bool
	journal  []undoEntry
	saves    []savept
	deferred []deferredFK
	defSeen  map[string]bool

	// snapRows is the committed state of each MVCC-capable (heap-SM)
	// relation captured when the open model snapshot began; nil when no
	// snapshot transaction is open. Snapshot reads must keep seeing exactly
	// these rows no matter what commits afterwards.
	snapOpen bool
	snapRows map[string][]*Row
}

// NewModel builds the oracle for a fleet. The fleet is deep-copied:
// index DDL ops mutate only the model's copy, so the caller's Fleet can
// seed engine setup and repeated replays.
func NewModel(fleet Fleet) *Model {
	m := &Model{rels: make(map[string]*relState), defSeen: make(map[string]bool)}
	for _, cfg := range fleet {
		c := cfg.clone()
		m.rels[c.Name] = &relState{cfg: c, rows: make(map[int]*Row)}
		m.names = append(m.names, c.Name)
	}
	return m
}

// Clone deep-copies the model, including any open-transaction journal, so
// crash-ambiguity candidates can be built from a mid-transaction state.
func (m *Model) Clone() *Model {
	out := &Model{
		rels:  make(map[string]*relState, len(m.rels)),
		names: append([]string(nil), m.names...),
		inTxn: m.inTxn,
	}
	for name, rs := range m.rels {
		nrs := &relState{cfg: rs.cfg.clone(), rows: make(map[int]*Row, len(rs.rows))}
		for rid, row := range rs.rows {
			nrs.rows[rid] = row.clone()
		}
		out.rels[name] = nrs
	}
	for _, e := range m.journal {
		ne := undoEntry{rel: e.rel, rid: e.rid}
		if e.row != nil {
			ne.row = e.row.clone()
		}
		out.journal = append(out.journal, ne)
	}
	out.saves = append([]savept(nil), m.saves...)
	out.deferred = append([]deferredFK(nil), m.deferred...)
	out.defSeen = make(map[string]bool, len(m.defSeen))
	for k := range m.defSeen {
		out.defSeen[k] = true
	}
	out.snapOpen = m.snapOpen
	if m.snapRows != nil {
		out.snapRows = make(map[string][]*Row, len(m.snapRows))
		for name, rows := range m.snapRows {
			cp := make([]*Row, 0, len(rows))
			for _, row := range rows {
				cp = append(cp, row.clone())
			}
			out.snapRows[name] = cp
		}
	}
	return out
}

// InTxn reports whether a transaction is open.
func (m *Model) InTxn() bool { return m.inTxn }

// Begin opens a transaction.
func (m *Model) Begin() {
	m.inTxn = true
	m.journal = m.journal[:0]
	m.saves = m.saves[:0]
	m.deferred = m.deferred[:0]
	m.defSeen = make(map[string]bool)
}

// KeyOf returns the learned engine record key of a live row (nil when the
// row is absent or the key is unknown).
func (m *Model) KeyOf(rel string, rid int) types.Key {
	if rs := m.rels[rel]; rs != nil {
		if row := rs.rows[rid]; row != nil {
			return row.Key
		}
	}
	return nil
}

// LearnKey records the engine key the storage method assigned to a row.
func (m *Model) LearnKey(rel string, rid int, key types.Key) {
	if rs := m.rels[rel]; rs != nil {
		if row := rs.rows[rid]; row != nil {
			row.Key = key.Clone()
		}
	}
}

// Rels returns the relation names in deterministic order.
func (m *Model) Rels() []string { return m.names }

// Cfg returns the model's current view of a relation's configuration.
func (m *Model) Cfg(rel string) *RelCfg { return m.rels[rel].cfg }

// Rows returns the live rows of a relation sorted by logical rid.
func (m *Model) Rows(rel string) []*Row {
	rs := m.rels[rel]
	rids := m.sortedRIDs(rs)
	out := make([]*Row, 0, len(rids))
	for _, rid := range rids {
		out = append(out, rs.rows[rid])
	}
	return out
}

// RowCount returns the live row count of a relation.
func (m *Model) RowCount(rel string) int { return len(m.rels[rel].rows) }

// RIDs returns the live logical record ids of a relation, sorted.
func (m *Model) RIDs(rel string) []int { return m.sortedRIDs(m.rels[rel]) }

// Savepoints returns the currently valid savepoint names, oldest first.
func (m *Model) Savepoints() []string {
	out := make([]string, 0, len(m.saves))
	for _, s := range m.saves {
		out = append(out, s.name)
	}
	return out
}

func (m *Model) sortedRIDs(rs *relState) []int {
	rids := make([]int, 0, len(rs.rows))
	for rid := range rs.rows {
		rids = append(rids, rid)
	}
	sort.Ints(rids)
	return rids
}

// Eligible reports whether op executes against the current state. Ops
// whose target is gone (a dead rid, an unknown savepoint, a missing
// index) and transaction control without an open transaction are skipped
// — deterministically, which is what keeps arbitrary shrinking
// subsequences replayable.
func (m *Model) Eligible(op Op) bool {
	switch op.Kind {
	case OpInsert:
		return true
	case OpUpdate, OpDelete:
		rs := m.rels[op.Rel]
		return rs != nil && rs.rows[op.RID] != nil
	case OpSavepoint:
		for _, s := range m.saves {
			if s.name == op.Name {
				return false
			}
		}
		return true
	case OpRollbackTo:
		if !m.inTxn {
			return false
		}
		for _, s := range m.saves {
			if s.name == op.Name {
				return true
			}
		}
		return false
	case OpCommit, OpAbort:
		return m.inTxn
	case OpAddIndex:
		return !m.inTxn && !m.hasIndex(op.Rel, op.Att, op.Name)
	case OpDropIndex:
		return !m.inTxn && m.hasIndex(op.Rel, op.Att, op.Name)
	case OpCheckpoint:
		return !m.inTxn
	case OpCrash:
		return true
	case OpSnapBegin:
		return !m.snapOpen
	case OpSnapRead, OpSnapEnd:
		return m.snapOpen
	default:
		return false
	}
}

// Step applies an eligible op to the model and returns the predicted
// outcome. DML auto-opens a transaction, mirroring the harness.
func (m *Model) Step(op Op) Outcome {
	switch op.Kind {
	case OpInsert, OpUpdate, OpDelete, OpSavepoint:
		if !m.inTxn {
			m.Begin()
		}
	}
	switch op.Kind {
	case OpInsert:
		return m.insert(op.Rel, op.RID, op.Rec)
	case OpUpdate:
		return m.update(op.Rel, op.RID, op.Rec)
	case OpDelete:
		return m.delete(op.Rel, op.RID)
	case OpSavepoint:
		m.saves = append(m.saves, savept{name: op.Name, mark: len(m.journal)})
		return success()
	case OpRollbackTo:
		m.rollbackTo(op.Name)
		return success()
	case OpCommit:
		return m.Commit()
	case OpAbort:
		m.Rollback()
		return success()
	case OpAddIndex:
		m.addIndex(op.Rel, op.Att, op.Name, op.Cols)
		return success()
	case OpDropIndex:
		m.dropIndex(op.Rel, op.Att, op.Name)
		return success()
	case OpCheckpoint, OpCrash:
		return success()
	case OpSnapBegin:
		m.snapBegin()
		return success()
	case OpSnapRead:
		// The reads themselves are checked by the harness against SnapRows;
		// the model only predicts that they succeed.
		return success()
	case OpSnapEnd:
		m.snapEnd()
		return success()
	default:
		return success()
	}
}

// --- snapshot transactions ---

// SnapOpen reports whether a model snapshot transaction is open.
func (m *Model) SnapOpen() bool { return m.snapOpen }

// SnapRows returns the committed rows captured for rel when the open
// snapshot began (nil when rel is not snapshot-readable or no snapshot is
// open).
func (m *Model) SnapRows(rel string) []*Row { return m.snapRows[rel] }

// snapBegin captures the committed state a snapshot transaction must keep
// observing: the live rows with the open writer transaction's journal
// undone, restricted to heap-SM relations (the only storage method with
// versioned snapshot reads — elsewhere read-only transactions still read
// via locks and are not modelled here).
func (m *Model) snapBegin() {
	committed := m
	if m.inTxn {
		committed = m.Clone()
		committed.Rollback()
	}
	m.snapRows = make(map[string][]*Row)
	for _, name := range m.names {
		if m.rels[name].cfg.SM != "heap" {
			continue
		}
		rows := committed.Rows(name)
		cp := make([]*Row, 0, len(rows))
		for _, row := range rows {
			cp = append(cp, row.clone())
		}
		m.snapRows[name] = cp
	}
	m.snapOpen = true
}

func (m *Model) snapEnd() {
	m.snapOpen = false
	m.snapRows = nil
}

// --- DML prediction + application ---

func fieldsChanged(fields []int, old, new types.Record) bool {
	for _, f := range fields {
		if !types.Equal(old[f], new[f]) {
			return true
		}
	}
	return false
}

// fkValues extracts the constrained field values; nil if any is NULL.
func fkValues(fields []int, rec types.Record) []types.Value {
	vals := make([]types.Value, len(fields))
	for i, f := range fields {
		if rec[f].IsNull() {
			return nil
		}
		vals[i] = rec[f]
	}
	return vals
}

// findMatch returns the smallest live rid (excluding exclRID) whose
// fields equal rec's, or -1.
func (m *Model) findMatch(rs *relState, fields []int, rec types.Record, exclRID int) int {
	for _, rid := range m.sortedRIDs(rs) {
		if rid == exclRID {
			continue
		}
		if !fieldsChanged(fields, rs.rows[rid].Rec, rec) {
			return rid
		}
	}
	return -1
}

// findVals returns the smallest live rid whose fields equal vals, or -1.
func (m *Model) findVals(rs *relState, fields []int, vals []types.Value) int {
	for _, rid := range m.sortedRIDs(rs) {
		match := true
		for i, f := range fields {
			if !types.Equal(rs.rows[rid].Rec[f], vals[i]) {
				match = false
				break
			}
		}
		if match {
			return rid
		}
	}
	return -1
}

func (m *Model) parentExists(d *FKDef, vals []types.Value) bool {
	return m.findVals(m.rels[d.Peer], d.PeerFields, vals) >= 0
}

// childMatches returns the child rids referencing vals, sorted.
func (m *Model) childMatches(d *FKDef, vals []types.Value) []int {
	rs := m.rels[d.Peer]
	var out []int
	for _, rid := range m.sortedRIDs(rs) {
		match := true
		for i, f := range d.PeerFields {
			if !types.Equal(rs.rows[rid].Rec[f], vals[i]) {
				match = false
				break
			}
		}
		if match {
			out = append(out, rid)
		}
	}
	return out
}

// enqueueDeferred mirrors the engine's deferred-action queue with its
// stash-based dedup. The enqueue happens during the refint notify, so it
// survives even when a later attachment vetoes the statement (the
// statement's row is undone, and the commit-time self-match check then
// skips the orphaned entry — on both sides).
func (m *Model) enqueueDeferred(rel string, d *FKDef, vals []types.Value) {
	key := rel + "\x00" + d.Name
	for _, v := range vals {
		key += "\x00" + v.String()
	}
	if m.defSeen[key] {
		return
	}
	m.defSeen[key] = true
	m.deferred = append(m.deferred, deferredFK{rel: rel, def: d, vals: vals})
}

func (m *Model) journalSet(rel string, rid int, prior *Row) {
	if m.rels[rel].cfg.SM == "temp" {
		// Unlogged storage: abort and rollback do not undo temp effects.
		return
	}
	m.journal = append(m.journal, undoEntry{rel: rel, rid: rid, row: prior})
}

func (m *Model) insert(rel string, rid int, rec types.Record) Outcome {
	rs := m.rels[rel]
	cfg := rs.cfg

	// Storage method first: a key-organised method rejects duplicates
	// before any attached procedure runs.
	if keyedSM(cfg.SM) && m.findMatch(rs, cfg.KeyFields, rec, -1) >= 0 {
		return veto(cfg.SM, smutil.ErrDuplicateKey)
	}

	// Attached procedures in attachment-identifier order. The deferred
	// refint enqueue (AttRefInt=6) happens before the trigger (7) and
	// unique (10) checks, so it sticks even when they veto.
	if d := cfg.ChildFK; d != nil {
		if vals := fkValues(d.OwnFields, rec); vals != nil {
			if d.Deferred {
				m.enqueueDeferred(rel, d, vals)
			} else if !m.parentExists(d, vals) {
				return veto(refint.Name, refint.ErrNoParent)
			}
		}
	}
	if cfg.Trig && rec[ColVal].AsFloat() < 0 {
		return veto("trigger", ErrTriggerVeto)
	}
	for _, u := range cfg.Uniques {
		if vals := fkValues(u.Fields, rec); vals != nil && m.findMatch(rs, u.Fields, rec, -1) >= 0 {
			return veto(unique.Name, unique.ErrViolation)
		}
	}

	m.journalSet(rel, rid, nil)
	rs.rows[rid] = &Row{Rec: rec.Clone()}
	return success()
}

func (m *Model) update(rel string, rid int, rec types.Record) Outcome {
	rs := m.rels[rel]
	cfg := rs.cfg
	old := rs.rows[rid]

	if keyedSM(cfg.SM) && fieldsChanged(cfg.KeyFields, old.Rec, rec) &&
		m.findMatch(rs, cfg.KeyFields, rec, rid) >= 0 {
		return veto(cfg.SM, smutil.ErrDuplicateKey)
	}

	var cascade []int
	if d := cfg.ChildFK; d != nil && fieldsChanged(d.OwnFields, old.Rec, rec) {
		if vals := fkValues(d.OwnFields, rec); vals != nil {
			if d.Deferred {
				m.enqueueDeferred(rel, d, vals)
			} else if !m.parentExists(d, vals) {
				return veto(refint.Name, refint.ErrNoParent)
			}
		}
	}
	if d := cfg.ParentOf; d != nil && fieldsChanged(d.OwnFields, old.Rec, rec) {
		if vals := fkValues(d.OwnFields, old.Rec); vals != nil {
			if kids := m.childMatches(d, vals); len(kids) > 0 {
				if !d.Cascade {
					return veto(refint.Name, refint.ErrHasChildren)
				}
				cascade = kids
			}
		}
	}
	if cfg.Trig && rec[ColVal].AsFloat() < 0 {
		return veto("trigger", ErrTriggerVeto)
	}
	for _, u := range cfg.Uniques {
		if !fieldsChanged(u.Fields, old.Rec, rec) {
			continue
		}
		if vals := fkValues(u.Fields, rec); vals != nil && m.findMatch(rs, u.Fields, rec, rid) >= 0 {
			return veto(unique.Name, unique.ErrViolation)
		}
	}

	if d := cfg.ParentOf; d != nil {
		m.cascadeDelete(d, cascade)
	}
	m.journalSet(rel, rid, old)
	rs.rows[rid] = &Row{Rec: rec.Clone(), Key: old.Key}
	return success()
}

func (m *Model) delete(rel string, rid int) Outcome {
	rs := m.rels[rel]
	cfg := rs.cfg
	old := rs.rows[rid]

	var cascade []int
	if d := cfg.ParentOf; d != nil {
		if vals := fkValues(d.OwnFields, old.Rec); vals != nil {
			if kids := m.childMatches(d, vals); len(kids) > 0 {
				if !d.Cascade {
					return veto(refint.Name, refint.ErrHasChildren)
				}
				cascade = kids
			}
		}
	}

	if d := cfg.ParentOf; d != nil {
		m.cascadeDelete(d, cascade)
	}
	m.journalSet(rel, rid, old)
	delete(rs.rows, rid)
	return success()
}

// cascadeDelete removes the given child rows through the child relation's
// own semantics (its attachments fire on each cascaded delete; in the
// fleets the generator builds, none of them can veto a delete).
func (m *Model) cascadeDelete(d *FKDef, rids []int) {
	child := m.rels[d.Peer]
	for _, rid := range rids {
		m.journalSet(d.Peer, rid, child.rows[rid])
		delete(child.rows, rid)
	}
}

// --- transaction boundaries ---

// Commit evaluates the deferred constraint queue in order; the first
// failing check turns the commit into a whole-transaction abort. A
// deferred check whose triggering row no longer exists (deleted or rolled
// back to a savepoint) is skipped, mirroring the engine's commit-time
// self-match re-check.
func (m *Model) Commit() Outcome {
	for _, dc := range m.deferred {
		if m.findVals(m.rels[dc.rel], dc.def.OwnFields, dc.vals) < 0 {
			continue
		}
		if !m.parentExists(dc.def, dc.vals) {
			m.Rollback()
			// A deferred veto aborts the transaction; Commit returns the
			// raw constraint error, not a statement VetoError.
			return Outcome{OK: false, Err: refint.ErrNoParent}
		}
	}
	m.endTxn()
	return success()
}

// Rollback aborts the open transaction: the journal is undone in reverse
// (temp-relation effects were never journaled and stick, like the
// engine's unlogged storage method).
func (m *Model) Rollback() {
	for i := len(m.journal) - 1; i >= 0; i-- {
		e := m.journal[i]
		if e.row == nil {
			delete(m.rels[e.rel].rows, e.rid)
		} else {
			m.rels[e.rel].rows[e.rid] = e.row
		}
	}
	m.endTxn()
}

func (m *Model) endTxn() {
	m.inTxn = false
	m.journal = m.journal[:0]
	m.saves = m.saves[:0]
	m.deferred = m.deferred[:0]
	m.defSeen = make(map[string]bool)
}

func (m *Model) rollbackTo(name string) {
	idx := -1
	for i, s := range m.saves {
		if s.name == name {
			idx = i
			break
		}
	}
	mark := m.saves[idx].mark
	for i := len(m.journal) - 1; i >= mark; i-- {
		e := m.journal[i]
		if e.row == nil {
			delete(m.rels[e.rel].rows, e.rid)
		} else {
			m.rels[e.rel].rows[e.rid] = e.row
		}
	}
	m.journal = m.journal[:mark]
	// The target savepoint stays valid; later ones are gone. The deferred
	// queue deliberately survives partial rollback, as in the engine.
	m.saves = m.saves[:idx+1]
}

// CrashRestart reconciles the model with a crash: the open transaction
// (if any) is a loser and is undone, an open snapshot transaction dies
// with the process, and unlogged temp relations lose their contents while
// keeping their catalog entries.
func (m *Model) CrashRestart() {
	m.Rollback()
	m.snapEnd()
	for _, name := range m.names {
		rs := m.rels[name]
		if rs.cfg.SM == "temp" {
			rs.rows = make(map[int]*Row)
		}
	}
}

// --- index DDL ---

func (m *Model) hasIndex(rel, att, name string) bool {
	rs := m.rels[rel]
	if rs == nil {
		return false
	}
	defs := rs.cfg.BTree
	if att == "hash" {
		defs = rs.cfg.Hash
	}
	for _, d := range defs {
		if d.Name == name {
			return true
		}
	}
	return false
}

func (m *Model) addIndex(rel, att, name, cols string) {
	cfg := m.rels[rel].cfg
	def := IxDef{Name: name, Fields: parseCols(cols)}
	if att == "hash" {
		cfg.Hash = append(cfg.Hash, def)
	} else {
		cfg.BTree = append(cfg.BTree, def)
	}
}

func (m *Model) dropIndex(rel, att, name string) {
	cfg := m.rels[rel].cfg
	defs := &cfg.BTree
	if att == "hash" {
		defs = &cfg.Hash
	}
	for i, d := range *defs {
		if d.Name == name {
			*defs = append(append([]IxDef(nil), (*defs)[:i]...), (*defs)[i+1:]...)
			return
		}
	}
}

// parseCols maps a comma-separated column spec of the shared fuzz schema
// to field positions.
func parseCols(spec string) []int {
	names := map[string]int{"id": ColID, "grp": ColGrp, "val": ColVal, "note": ColNote}
	var out []int
	start := 0
	for i := 0; i <= len(spec); i++ {
		if i == len(spec) || spec[i] == ',' {
			if f, ok := names[spec[start:i]]; ok {
				out = append(out, f)
			}
			start = i + 1
		}
	}
	return out
}
