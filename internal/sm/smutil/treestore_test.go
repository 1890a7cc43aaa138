package smutil_test

import (
	"encoding/hex"
	"errors"
	"testing"

	"dmx/internal/core"
	"dmx/internal/expr"
	"dmx/internal/remote"
	_ "dmx/internal/sm/btreesm"
	_ "dmx/internal/sm/partsm"
	_ "dmx/internal/sm/remotesm"
	"dmx/internal/sm/smutil"
	_ "dmx/internal/sm/tempsm"
	"dmx/internal/types"
)

func schema() *types.Schema {
	return types.MustSchema(
		types.Column{Name: "id", Kind: types.KindInt, NotNull: true},
		types.Column{Name: "v", Kind: types.KindString},
	)
}

func newStore(t *testing.T, logged bool, keyFields []int) (*core.Env, *smutil.TreeStore) {
	t.Helper()
	env := core.NewEnv(core.Config{})
	rd := &core.RelDesc{RelID: 1, Name: "t", Schema: schema(), SM: core.SMTemp}
	return env, smutil.NewTreeStore(env, rd, logged, keyFields)
}

// keyShapes are the two record-key definitions a TreeStore supports: the
// insertion sequence (memory, temp) and key fields (btree, key=id).
type keyShape struct {
	name   string
	fields []int
}

var keyShapes = []keyShape{{"seq", nil}, {"key=id", []int{0}}}

// wantKey is the key a store of the given shape gives rec, or fallback
// for a sequence-keyed store (whose keys never move).
func wantKey(keyFields []int, rec types.Record, fallback types.Key) types.Key {
	if keyFields == nil {
		return fallback
	}
	return types.EncodeKeyFields(rec, keyFields)
}

func rec(id int64, v string) types.Record {
	return types.Record{types.Int(id), types.Str(v)}
}

func TestTreeStoreCRUD(t *testing.T) {
	for _, shape := range keyShapes {
		t.Run(shape.name, func(t *testing.T) { testTreeStoreCRUD(t, shape.fields) })
	}
}

func testTreeStoreCRUD(t *testing.T, keyFields []int) {
	env, s := newStore(t, false, keyFields)
	tx := env.Begin()
	defer tx.Commit()

	k1, err := s.Insert(tx, rec(1, "a"))
	if err != nil {
		t.Fatal(err)
	}
	k2, _ := s.Insert(tx, rec(2, "b"))
	if k1.Equal(k2) {
		t.Fatal("keys not unique")
	}
	if s.RecordCount() != 2 {
		t.Fatal("count")
	}
	got, err := s.FetchByKey(tx, k1, nil, nil)
	if err != nil || got[1].S != "a" {
		t.Fatalf("fetch: %v %v", got, err)
	}
	// Update keeps the key.
	nk, err := s.Update(tx, k1, got, rec(1, "a2"))
	if err != nil || !nk.Equal(k1) {
		t.Fatalf("update: %v %v", nk, err)
	}
	got, _ = s.FetchByKey(tx, k1, []int{1}, nil)
	if len(got) != 1 || got[0].S != "a2" {
		t.Fatalf("projected fetch: %v", got)
	}
	got = rec(1, "a2")
	if keyFields != nil {
		// The key fields are the primary key: an insert or a key-moving
		// update onto a stored key is refused.
		if _, err := s.Insert(tx, rec(2, "dup")); !errors.Is(err, smutil.ErrDuplicateKey) {
			t.Fatalf("duplicate insert: %v", err)
		}
		if _, err := s.Update(tx, k1, got, rec(2, "dup")); !errors.Is(err, smutil.ErrDuplicateKey) {
			t.Fatalf("duplicate update: %v", err)
		}
		// Updating the key fields moves the record, and back again.
		k3, err := s.Update(tx, k1, got, rec(3, "a3"))
		if err != nil || !k3.Equal(types.EncodeKeyFields(rec(3, "a3"), keyFields)) {
			t.Fatalf("key-moving update: %v %v", k3, err)
		}
		if _, err := s.FetchByKey(tx, k1, nil, nil); !errors.Is(err, core.ErrNotFound) {
			t.Fatalf("fetch of the vacated key: %v", err)
		}
		if back, err := s.Update(tx, k3, rec(3, "a3"), got); err != nil || !back.Equal(k1) {
			t.Fatalf("move back: %v %v", back, err)
		}
	}
	// Update of a missing key fails.
	if _, err := s.Update(tx, types.Key{9, 9}, nil, rec(9, "x")); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("update missing: %v", err)
	}
	if err := s.Delete(tx, k1, got); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(tx, k1, got); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	if _, err := s.FetchByKey(tx, k1, nil, nil); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("fetch deleted: %v", err)
	}
}

func TestTreeStoreFilterAndScan(t *testing.T) {
	env, s := newStore(t, false, nil)
	tx := env.Begin()
	defer tx.Commit()
	var k5 types.Key
	for i := 0; i < 10; i++ {
		k, _ := s.Insert(tx, rec(int64(i), "x"))
		if i == 5 {
			k5 = k
		}
	}
	pass := expr.Eq(expr.Field(0), expr.Const(types.Int(5)))
	if _, err := s.FetchByKey(tx, k5, nil, pass); err != nil {
		t.Fatal(err)
	}
	fail := expr.Eq(expr.Field(0), expr.Const(types.Int(6)))
	if _, err := s.FetchByKey(tx, k5, nil, fail); !errors.Is(err, core.ErrFiltered) {
		t.Fatalf("filtered fetch: %v", err)
	}
	scan, err := s.OpenScan(tx, core.ScanOptions{
		Filter: expr.Lt(expr.Field(0), expr.Const(types.Int(3))),
		Fields: []int{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, r, ok, err := scan.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if len(r) != 1 || r[0].AsInt() >= 3 {
			t.Fatalf("row %v", r)
		}
		n++
	}
	if n != 3 {
		t.Fatalf("matches = %d", n)
	}
}

func TestTreeStoreLoggedApply(t *testing.T) {
	// key=v adds a key shorter than a sequence number: redo of a keyed
	// insert must not read its key as one.
	for _, shape := range append([]keyShape{{"key=v", []int{1}}}, keyShapes...) {
		t.Run(shape.name, func(t *testing.T) { testTreeStoreLoggedApply(t, shape.fields) })
	}
}

func testTreeStoreLoggedApply(t *testing.T, keyFields []int) {
	env, s := newStore(t, true, keyFields)
	tx := env.Begin()
	k, err := s.Insert(tx, rec(1, "a"))
	if err != nil {
		t.Fatal(err)
	}
	// The insert was logged; undo via ApplyLogged removes it.
	recs := env.Log.Records()
	if len(recs) != 1 {
		t.Fatalf("log records = %d", len(recs))
	}
	if err := s.ApplyLogged(recs[0].Payload, true); err != nil {
		t.Fatal(err)
	}
	if s.RecordCount() != 0 {
		t.Fatal("undo did not remove the record")
	}
	// Redo restores it, and the sequence does not collide afterwards.
	if err := s.ApplyLogged(recs[0].Payload, false); err != nil {
		t.Fatal(err)
	}
	if s.RecordCount() != 1 {
		t.Fatal("redo did not restore the record")
	}
	k2, _ := s.Insert(tx, rec(2, "b"))
	if k2.Equal(k) || !k2.Equal(wantKey(keyFields, rec(2, "b"), k2)) {
		t.Fatalf("key %v after replay (first key %v)", k2, k)
	}
	// A key-moving update (in place for the sequence shape) undoes and
	// redoes through the logged payload.
	nk, err := s.Update(tx, k, rec(1, "a"), rec(3, "c"))
	if err != nil || !nk.Equal(wantKey(keyFields, rec(3, "c"), k)) {
		t.Fatalf("update: %v %v", nk, err)
	}
	upd := env.Log.Records()[2].Payload
	check := func(step string, at, gone types.Key, v string) {
		t.Helper()
		got, err := s.FetchByKey(tx, at, nil, nil)
		if err != nil || got[1].S != v {
			t.Fatalf("%s: fetch = %v %v, want %q", step, got, err, v)
		}
		if !gone.Equal(at) {
			if _, err := s.FetchByKey(tx, gone, nil, nil); !errors.Is(err, core.ErrNotFound) {
				t.Fatalf("%s: vacated key still present: %v", step, err)
			}
		}
		if s.RecordCount() != 2 {
			t.Fatalf("%s: count = %d", step, s.RecordCount())
		}
	}
	if err := s.ApplyLogged(upd, true); err != nil {
		t.Fatal(err)
	}
	check("undo", k, nk, "a")
	if err := s.ApplyLogged(upd, false); err != nil {
		t.Fatal(err)
	}
	check("redo", nk, k, "c")
	tx.Commit()
}

func TestTreeStoreUnloggedWritesNothing(t *testing.T) {
	env, s := newStore(t, false, nil)
	tx := env.Begin()
	s.Insert(tx, rec(1, "a"))
	if env.Log.Len() != 0 {
		t.Fatal("unlogged store wrote log records")
	}
	tx.Commit()
}

func TestTreeStoreEstimate(t *testing.T) {
	env, s := newStore(t, false, nil)
	tx := env.Begin()
	for i := 0; i < 50; i++ {
		s.Insert(tx, rec(int64(i), "x"))
	}
	tx.Commit()
	est := s.EstimateCost(core.CostRequest{})
	if !est.Usable || est.IO != 0 || est.CPU != 50 {
		t.Fatalf("estimate = %+v", est)
	}
}

// TestSMDescGolden pins the storage descriptors of the key-organised and
// foreign-server storage methods: the bytes live in the catalog, so their
// shared codecs must keep encoding them exactly as before.
func TestSMDescGolden(t *testing.T) {
	env := core.NewEnv(core.Config{})
	for _, name := range []string{"fed", "s0", "s1"} {
		smutil.AttachServer(env, name, remote.NewServer(0))
	}
	tx := env.Begin()
	defer tx.Commit()
	for _, c := range []struct {
		rel, sm string
		attrs   core.AttrList
		want    string
	}{
		{"b", "btree", core.AttrList{"key": "v,id"}, "0200010000"},
		{"p", "part", core.AttrList{"key": "id", "servers": "s0,s1", "shards": "3", "batch": "7"}, "01000003000702027330027331"},
		{"r", "remote", core.AttrList{"server": "fed", "table": "rt", "batch": "9"}, "036665640272740009"},
		{"r2", "remote", core.AttrList{"server": "fed"}, "036665640272320064"},
	} {
		rd, err := env.CreateRelation(tx, c.rel, schema(), c.sm, c.attrs)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(rd.SMDesc); got != c.want {
			t.Errorf("%s descriptor = %s, want %s", c.sm, got, c.want)
		}
	}
}
