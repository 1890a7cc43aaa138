package remotesm_test

import (
	"errors"
	"testing"
	"time"

	"dmx/internal/core"
	"dmx/internal/expr"
	"dmx/internal/remote"
	_ "dmx/internal/sm/remotesm"
	"dmx/internal/sm/smutil"
	"dmx/internal/types"
	"dmx/internal/wal"
)

func schema() *types.Schema {
	return types.MustSchema(
		types.Column{Name: "id", Kind: types.KindInt, NotNull: true},
		types.Column{Name: "val", Kind: types.KindString},
	)
}

func setup(t *testing.T) (*core.Env, *remote.Server, *core.Relation) {
	t.Helper()
	env := core.NewEnv(core.Config{})
	srv := remote.NewServer(0)
	smutil.AttachServer(env, "fed", srv)
	tx := env.Begin()
	rd, err := env.CreateRelation(tx, "orders", schema(), "remote",
		core.AttrList{"server": "fed", "table": "remote_orders"})
	if err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	r, err := env.OpenRelation(rd)
	if err != nil {
		t.Fatal(err)
	}
	return env, srv, r
}

func rec(id int64, val string) types.Record {
	return types.Record{types.Int(id), types.Str(val)}
}

func TestRemoteRoundTrips(t *testing.T) {
	env, srv, r := setup(t)
	tx := env.Begin()
	before := srv.Messages.Load()
	k, err := r.Insert(tx, rec(1, "a"))
	if err != nil {
		t.Fatal(err)
	}
	if srv.Messages.Load() != before+1 {
		t.Fatalf("insert should be one round trip, got %d", srv.Messages.Load()-before)
	}
	got, err := r.Fetch(tx, k, nil, nil)
	if err != nil || got[1].S != "a" {
		t.Fatalf("fetch: %v %v", got, err)
	}
	if _, err := r.Update(tx, k, rec(1, "b")); err != nil {
		t.Fatal(err)
	}
	got, _ = r.Fetch(tx, k, nil, nil)
	if got[1].S != "b" {
		t.Fatalf("after update: %v", got)
	}
	if err := r.Delete(tx, k); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Fetch(tx, k, nil, nil); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("after delete: %v", err)
	}
	tx.Commit()
}

// TestFaultedFetchIsNotNotFound checks that a fetch failing in transport
// is reported as that failure, not as an absent key.
func TestFaultedFetchIsNotNotFound(t *testing.T) {
	env, srv, r := setup(t)
	tx := env.Begin()
	defer tx.Commit()
	k, err := r.Insert(tx, rec(1, "a"))
	if err != nil {
		t.Fatal(err)
	}
	srv.InjectFault(remote.OpGet, remote.FaultReject, 1)
	_, err = r.Fetch(tx, k, nil, nil)
	if err == nil || errors.Is(err, core.ErrNotFound) {
		t.Fatalf("faulted fetch = %v, want a non-not-found error", err)
	}
	if _, err := r.Fetch(tx, k, nil, nil); err != nil {
		t.Fatalf("fetch after the fault: %v", err)
	}
}

func TestRequiresServerAttr(t *testing.T) {
	env := core.NewEnv(core.Config{})
	tx := env.Begin()
	if _, err := env.CreateRelation(tx, "x", schema(), "remote", nil); err == nil {
		t.Fatal("missing server attribute accepted")
	}
	if _, err := env.CreateRelation(tx, "x", schema(), "remote",
		core.AttrList{"server": "ghost"}); err == nil {
		t.Fatal("unattached server accepted")
	}
	tx.Commit()
}

func TestBatchedScan(t *testing.T) {
	env, srv, r := setup(t)
	tx := env.Begin()
	for i := 0; i < 250; i++ {
		r.Insert(tx, rec(int64(i), "x"))
	}
	tx.Commit()

	tx2 := env.Begin()
	before := srv.Messages.Load()
	scan, err := r.OpenScan(tx2, core.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, _, ok, err := scan.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	if n != 250 {
		t.Fatalf("scanned %d", n)
	}
	rounds := srv.Messages.Load() - before
	// 250 records at 100/batch: 3 batches + 1 empty terminator.
	if rounds > 5 {
		t.Fatalf("scan used %d round trips, batching broken", rounds)
	}
	tx2.Commit()
}

func TestScanFilterRunsLocally(t *testing.T) {
	env, _, r := setup(t)
	tx := env.Begin()
	for i := 0; i < 50; i++ {
		r.Insert(tx, rec(int64(i), "x"))
	}
	scan, _ := r.OpenScan(tx, core.ScanOptions{
		Filter: expr.Ge(expr.Field(0), expr.Const(types.Int(45))),
		Fields: []int{0},
	})
	n := 0
	for {
		_, g, ok, err := scan.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if len(g) != 1 || g[0].AsInt() < 45 {
			t.Fatalf("got %v", g)
		}
		n++
	}
	if n != 5 {
		t.Fatalf("filtered = %d", n)
	}
	tx.Commit()
}

func TestAbortCompensatesRemotely(t *testing.T) {
	env, _, r := setup(t)
	tx := env.Begin()
	k1, _ := r.Insert(tx, rec(1, "keep"))
	tx.Commit()

	tx2 := env.Begin()
	r.Insert(tx2, rec(2, "drop"))
	r.Update(tx2, k1, rec(1, "changed"))
	r.Delete(tx2, k1)
	tx2.Abort()

	// The foreign database must show the pre-transaction state.
	if r.Storage().RecordCount() != 1 {
		t.Fatalf("remote count after abort = %d", r.Storage().RecordCount())
	}
	tx3 := env.Begin()
	got, err := r.Fetch(tx3, k1, nil, nil)
	if err != nil || got[1].S != "keep" {
		t.Fatalf("after abort: %v %v", got, err)
	}
	tx3.Commit()
}

func TestRecoveryReplaysOntoFreshForeignDB(t *testing.T) {
	log := wal.New()
	env := core.NewEnv(core.Config{Log: log})
	srv := remote.NewServer(0)
	smutil.AttachServer(env, "fed", srv)
	tx := env.Begin()
	rd, err := env.CreateRelation(tx, "orders", schema(), "remote", core.AttrList{"server": "fed"})
	if err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	r, _ := env.OpenRelation(rd)
	tx2 := env.Begin()
	r.Insert(tx2, rec(1, "durable"))
	tx2.Commit()

	// Restart with a brand-new (empty) foreign database: replay restores it.
	env2 := core.NewEnv(core.Config{Log: log})
	srv2 := remote.NewServer(0)
	smutil.AttachServer(env2, "fed", srv2)
	if err := env2.Recover(); err != nil {
		t.Fatal(err)
	}
	r2, err := env2.OpenRelationByName("orders")
	if err != nil {
		t.Fatal(err)
	}
	if r2.Storage().RecordCount() != 1 {
		t.Fatalf("recovered remote count = %d", r2.Storage().RecordCount())
	}
}

// TestScanBatchBoundaryMutation pins the strictly-after refill contract.
// A batched scan anchors every refill on the last key it returned; records
// mutated on the foreign server between refills — including the anchor
// itself, deleted out from under the scan by another of the server's
// clients — must neither skip nor repeat anything the scan still owes.
func TestScanBatchBoundaryMutation(t *testing.T) {
	env := core.NewEnv(core.Config{})
	srv := remote.NewServer(0)
	smutil.AttachServer(env, "fed", srv)
	tx := env.Begin()
	rd, err := env.CreateRelation(tx, "orders", schema(), "remote",
		core.AttrList{"server": "fed", "table": "remote_orders", "batch": "8"})
	if err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	r, err := env.OpenRelation(rd)
	if err != nil {
		t.Fatal(err)
	}

	tx = env.Begin()
	var keys []types.Key
	for i := 0; i < 40; i++ {
		k, err := r.Insert(tx, rec(int64(i), "x"))
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	tx.Commit()

	tx2 := env.Begin()
	scan, err := r.OpenScan(tx2, core.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer scan.Close()
	var ids []int64
	vals := map[int64]string{}
	read := func() bool {
		_, g, ok, err := scan.Next()
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			ids = append(ids, g[0].AsInt())
			vals[g[0].AsInt()] = g[1].S
		}
		return ok
	}
	// Drain exactly the first batch; the next Next() must refill anchored
	// on keys[7], the last record returned.
	for i := 0; i < 8; i++ {
		if !read() {
			t.Fatalf("scan ended after %d records", i)
		}
	}

	// Another client of the foreign server mutates around the boundary:
	// the refill anchor vanishes, the first not-yet-returned record
	// vanishes, an already-owed record changes, and a new record lands
	// past the end.
	c := remote.Dial(srv)
	defer c.Close()
	if err := c.Delete("remote_orders", keys[7]); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("remote_orders", keys[8]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put("remote_orders", keys[20], rec(20, "patched")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put("remote_orders", nil, rec(100, "late")); err != nil {
		t.Fatal(err)
	}

	for read() {
	}

	want := []int64{0, 1, 2, 3, 4, 5, 6, 7}
	for i := int64(9); i < 40; i++ {
		want = append(want, i)
	}
	want = append(want, 100)
	if len(ids) != len(want) {
		t.Fatalf("scanned %d ids %v, want %d %v", len(ids), ids, len(want), want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("position %d: got id %d, want %d (full: %v)", i, ids[i], want[i], ids)
		}
	}
	if vals[20] != "patched" {
		t.Fatalf("id 20 read %q, want the patched value", vals[20])
	}
	tx2.Commit()
}

func TestLatencyInjection(t *testing.T) {
	env := core.NewEnv(core.Config{})
	srv := remote.NewServer(2 * time.Millisecond)
	smutil.AttachServer(env, "slow", srv)
	tx := env.Begin()
	rd, err := env.CreateRelation(tx, "t", schema(), "remote", core.AttrList{"server": "slow"})
	if err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	r, _ := env.OpenRelation(rd)
	tx2 := env.Begin()
	start := time.Now()
	for i := 0; i < 5; i++ {
		if _, err := r.Insert(tx2, rec(int64(i), "x")); err != nil {
			t.Fatal(err)
		}
	}
	if el := time.Since(start); el < 10*time.Millisecond {
		t.Fatalf("latency not applied: %v", el)
	}
	tx2.Commit()
}
