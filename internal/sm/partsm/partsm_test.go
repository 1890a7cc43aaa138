package partsm_test

import (
	"errors"
	"fmt"
	"testing"

	"dmx/internal/core"
	"dmx/internal/fault"
	"dmx/internal/remote"
	"dmx/internal/sm/partsm"
	"dmx/internal/sm/smutil"
	"dmx/internal/types"
)

func schema() *types.Schema {
	return types.MustSchema(
		types.Column{Name: "id", Kind: types.KindInt, NotNull: true},
		types.Column{Name: "val", Kind: types.KindString},
	)
}

func rec(id int64, val string) types.Record {
	return types.Record{types.Int(id), types.Str(val)}
}

func attach(env *core.Env, srvs []*remote.Server) {
	for i, s := range srvs {
		smutil.AttachServer(env, fmt.Sprintf("s%d", i), s)
	}
}

func setup(t *testing.T, shards int) (*core.Env, []*remote.Server, *core.Relation) {
	t.Helper()
	env := core.NewEnv(core.Config{})
	srvs := make([]*remote.Server, shards)
	names := ""
	for i := range srvs {
		srvs[i] = remote.NewServer(0)
		if i > 0 {
			names += ","
		}
		names += fmt.Sprintf("s%d", i)
	}
	attach(env, srvs)
	tx := env.Begin()
	rd, err := env.CreateRelation(tx, "users", schema(), "part",
		core.AttrList{"key": "id", "servers": names, "batch": "3"})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	r, err := env.OpenRelation(rd)
	if err != nil {
		t.Fatal(err)
	}
	return env, srvs, r
}

func scanAll(t *testing.T, env *core.Env, r *core.Relation) []types.Record {
	t.Helper()
	tx := env.Begin()
	defer tx.Commit()
	sc, err := r.OpenScan(tx, core.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	var out []types.Record
	for {
		_, rec, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, rec)
	}
}

// TestPartBasic drives inserts/updates/deletes across shards and checks
// that scans merge the shards back into global key order, with staged
// writes invisible until commit.
func TestPartBasic(t *testing.T) {
	env, srvs, r := setup(t, 3)
	tx := env.Begin()
	const n = 20
	for i := 1; i <= n; i++ {
		if _, err := r.Insert(tx, rec(int64(i), fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Before commit nothing has reached committed shard state (the
	// writes are staged server-side under the transaction id).
	for i, s := range srvs {
		c := remote.Dial(s)
		n, err := c.Count(fmt.Sprintf("users#%d", i))
		c.Close()
		if err != nil {
			t.Fatal(err)
		}
		if n != 0 {
			t.Fatalf("staged writes leaked: shard %d holds %d records before commit", i, n)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	got := scanAll(t, env, r)
	if len(got) != n {
		t.Fatalf("want %d records, got %d", n, len(got))
	}
	for i, g := range got {
		if g[0].I != int64(i+1) {
			t.Fatalf("scan out of key order at %d: %v", i, g)
		}
	}
	// The records actually spread across shards.
	perShard := 0
	for i, s := range srvs {
		c := remote.Dial(s)
		n, err := c.Count(fmt.Sprintf("users#%d", i))
		c.Close()
		if err != nil {
			t.Fatal(err)
		}
		if n > 0 {
			perShard++
		}
	}
	if perShard < 2 {
		t.Fatalf("hash sharding left %d of 3 shards populated", perShard)
	}
}

// TestPartRollback checks that an aborted transaction's staged writes
// never reach committed shard state, including partial rollback of
// updates and deletes over committed records.
func TestPartRollback(t *testing.T) {
	env, _, r := setup(t, 3)
	tx := env.Begin()
	keys := make([]types.Key, 0, 5)
	for i := 1; i <= 5; i++ {
		k, err := r.Insert(tx, rec(int64(i), "base"))
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx = env.Begin()
	if _, err := r.Update(tx, keys[0], rec(1, "changed")); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete(tx, keys[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Insert(tx, rec(99, "new")); err != nil {
		t.Fatal(err)
	}
	// Read-your-writes inside the transaction.
	got, err := r.Fetch(tx, keys[0], nil, nil)
	if err != nil || got[1].S != "changed" {
		t.Fatalf("read-your-writes: %v %v", got, err)
	}
	if _, err := r.Fetch(tx, keys[1], nil, nil); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("deleted key still visible in txn: %v", err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	got2 := scanAll(t, env, r)
	if len(got2) != 5 {
		t.Fatalf("abort left %d records, want 5", len(got2))
	}
	for _, g := range got2 {
		if g[1].S != "base" {
			t.Fatalf("abort leaked a staged write: %v", g)
		}
	}
}

// TestPartDuplicateKey checks primary-key enforcement across staged and
// committed state.
func TestPartDuplicateKey(t *testing.T) {
	env, _, r := setup(t, 2)
	tx := env.Begin()
	if _, err := r.Insert(tx, rec(7, "a")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Insert(tx, rec(7, "b")); !errors.Is(err, partsm.ErrDuplicateKey) {
		t.Fatalf("staged duplicate not rejected: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx = env.Begin()
	if _, err := r.Insert(tx, rec(7, "c")); !errors.Is(err, partsm.ErrDuplicateKey) {
		t.Fatalf("committed duplicate not rejected: %v", err)
	}
	tx.Abort()
}

// TestPartFaultedDuplicateProbeFailsWrite checks that only the shard's
// key-not-found answer lets a write claim a key: a duplicate probe that
// fails for any other reason must fail the insert, not overwrite the
// committed record.
func TestPartFaultedDuplicateProbeFailsWrite(t *testing.T) {
	env, srvs, r := setup(t, 1)
	tx := env.Begin()
	if _, err := r.Insert(tx, rec(7, "original")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	srvs[0].InjectFault(remote.OpGet, remote.FaultReject, 1)
	tx = env.Begin()
	if _, err := r.Insert(tx, rec(7, "clobber")); err == nil {
		t.Fatal("insert succeeded although its duplicate probe failed")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	got := scanAll(t, env, r)
	if len(got) != 1 || got[0][1].S != "original" {
		t.Fatalf("scan after refused insert = %v, want [(7, original)]", got)
	}
}

// TestPartFaultedFetchIsNotNotFound checks that a fetch failing in
// transport is reported as that failure, not as an absent key.
func TestPartFaultedFetchIsNotNotFound(t *testing.T) {
	env, srvs, r := setup(t, 1)
	tx := env.Begin()
	k, err := r.Insert(tx, rec(7, "x"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	srvs[0].InjectFault(remote.OpGet, remote.FaultReject, 1)
	tx = env.Begin()
	defer tx.Commit()
	_, err = r.Fetch(tx, k, nil, nil)
	if err == nil || errors.Is(err, core.ErrNotFound) {
		t.Fatalf("faulted fetch = %v, want a non-not-found error", err)
	}
	if _, err := r.Fetch(tx, k, nil, nil); err != nil {
		t.Fatalf("fetch after the fault: %v", err)
	}
}

// TestPartRoutedPointAccess checks that a whole-key scan range touches
// exactly one shard while a full scan touches all of them.
func TestPartRoutedPointAccess(t *testing.T) {
	env, srvs, r := setup(t, 4)
	tx := env.Begin()
	for i := 1; i <= 40; i++ {
		if _, err := r.Insert(tx, rec(int64(i), "x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	messages := func() []int64 {
		out := make([]int64, len(srvs))
		for i, s := range srvs {
			out[i] = s.Messages.Load()
		}
		return out
	}
	touched := func(before, after []int64) int {
		n := 0
		for i := range before {
			if after[i] != before[i] {
				n++
			}
		}
		return n
	}
	// Whole-key range: route to the owning shard.
	key := types.EncodeKeyFields(rec(17, "x"), []int{0})
	tx = env.Begin()
	before := messages()
	sc, err := r.OpenScan(tx, core.ScanOptions{Start: key, End: keySuccessor(key)})
	if err != nil {
		t.Fatal(err)
	}
	_, got, ok, err := sc.Next()
	if err != nil || !ok || got[0].I != 17 {
		t.Fatalf("routed point scan: %v %v %v", got, ok, err)
	}
	if _, _, ok, _ := sc.Next(); ok {
		t.Fatal("routed point scan returned a second record")
	}
	sc.Close()
	if n := touched(before, messages()); n != 1 {
		t.Fatalf("point scan touched %d shards, want 1", n)
	}
	// Full scan: all shards.
	before = messages()
	sc, err = r.OpenScan(tx, core.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, _, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	sc.Close()
	if n := touched(before, messages()); n != len(srvs) {
		t.Fatalf("full scan touched %d shards, want %d", n, len(srvs))
	}
	tx.Commit()
	snap := env.Obs.Part.RoutedScans.Load()
	if snap == 0 {
		t.Fatal("routed scan counter never moved")
	}
}

func keySuccessor(k types.Key) types.Key {
	out := append(types.Key(nil), k...)
	for i := len(out) - 1; i >= 0; i-- {
		if out[i] != 0xFF {
			out[i]++
			return out[:i+1]
		}
	}
	return nil
}

// TestPartPrepareFaultVetoesCommit checks phase one: a shard refusing
// prepare vetoes the local commit and the transaction aborts cleanly on
// every shard.
func TestPartPrepareFaultVetoesCommit(t *testing.T) {
	env, srvs, r := setup(t, 3)
	tx := env.Begin()
	for i := 1; i <= 9; i++ {
		if _, err := r.Insert(tx, rec(int64(i), "x")); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range srvs {
		s.InjectFault(remote.OpPrepare, remote.FaultReject, 1)
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("commit succeeded despite prepare refusal")
	}
	if got := scanAll(t, env, r); len(got) != 0 {
		t.Fatalf("vetoed commit leaked %d records", len(got))
	}
}

// TestPartCommitAckLossIsResolved checks phase two under ack loss on the
// decision delivery: the transaction is committed locally, the shard
// applied it (ack loss, not rejection), and counters record the loss.
func TestPartCommitAckLossIsResolved(t *testing.T) {
	env, srvs, r := setup(t, 2)
	for _, s := range srvs {
		s.InjectFault(remote.OpCommitTxn, remote.FaultAckLoss, 1)
	}
	tx := env.Begin()
	for i := 1; i <= 6; i++ {
		if _, err := r.Insert(tx, rec(int64(i), "x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := scanAll(t, env, r); len(got) != 6 {
		t.Fatalf("want 6 records after ack-loss commit, got %d", len(got))
	}
	if env.Obs.Part.AckLost.Load() == 0 {
		t.Fatal("ack loss not counted")
	}
}

// TestPartCommitRejectThenResolve checks the rejected-decision path: the
// shard never hears the commit, stays prepared, and Resolve redelivers
// the logged outcome.
func TestPartCommitRejectThenResolve(t *testing.T) {
	env, srvs, r := setup(t, 2)
	for _, s := range srvs {
		s.InjectFault(remote.OpCommitTxn, remote.FaultReject, 1)
	}
	tx := env.Begin()
	for i := 1; i <= 6; i++ {
		if _, err := r.Insert(tx, rec(int64(i), "x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	inDoubt := 0
	for _, s := range srvs {
		c := remote.Dial(s)
		ids, err := c.InDoubt()
		c.Close()
		if err != nil {
			t.Fatal(err)
		}
		inDoubt += len(ids)
	}
	if inDoubt == 0 {
		t.Fatal("rejected decision left no shard in doubt")
	}
	if err := partsm.Resolve(env); err != nil {
		t.Fatal(err)
	}
	if got := scanAll(t, env, r); len(got) != 6 {
		t.Fatalf("want 6 records after resolve, got %d", len(got))
	}
	if env.Obs.Part.Resolved.Load() == 0 {
		t.Fatal("resolution not counted")
	}
}

// TestPartDecideCrashSite checks the post-prepare pre-decision fault
// site: the commit fails, the shards hold only prepared state, and a
// recovery pass resolves them to abort (presumed abort — no decision
// was ever logged).
func TestPartDecideCrashSite(t *testing.T) {
	env := core.NewEnv(core.Config{Faults: fault.New()})
	srvs := []*remote.Server{remote.NewServer(0), remote.NewServer(0)}
	attach(env, srvs)
	tx := env.Begin()
	rd, err := env.CreateRelation(tx, "users", schema(), "part",
		core.AttrList{"key": "id", "servers": "s0,s1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	r, err := env.OpenRelation(rd)
	if err != nil {
		t.Fatal(err)
	}
	tx = env.Begin()
	for i := 1; i <= 8; i++ {
		if _, err := r.Insert(tx, rec(int64(i), "x")); err != nil {
			t.Fatal(err)
		}
	}
	env.Faults.Arm(fault.SitePartDecide, 1)
	if err := tx.Commit(); err == nil {
		t.Fatal("commit succeeded through the armed decision site")
	}
	if !env.Faults.Crashed() {
		t.Fatal("decision site never hit")
	}
	// The "crashed" coordinator is gone; a fresh environment over the
	// same servers resolves the in-doubt shards to abort.
	env2 := core.NewEnv(core.Config{})
	attach(env2, srvs)
	tx2 := env2.Begin()
	rd2, err := env2.CreateRelation(tx2, "users", schema(), "part",
		core.AttrList{"key": "id", "servers": "s0,s1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := partsm.Resolve(env2); err != nil {
		t.Fatal(err)
	}
	for i, s := range srvs {
		c := remote.Dial(s)
		ids, err := c.InDoubt()
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != 0 {
			t.Fatalf("server %d still in doubt after resolve: %v", i, ids)
		}
		n, err := c.Count("users#" + fmt.Sprint(i))
		c.Close()
		if err != nil {
			t.Fatal(err)
		}
		if n != 0 {
			t.Fatalf("presumed abort leaked %d records to shard %d", n, i)
		}
	}
	if _, err := env2.OpenRelation(rd2); err != nil {
		t.Fatal(err)
	}
}
