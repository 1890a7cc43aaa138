package syssm_test

import (
	"strings"
	"testing"

	"dmx/internal/core"
	"dmx/internal/obs"
	"dmx/internal/types"

	_ "dmx/internal/att/btreeix"
	_ "dmx/internal/att/unique"
	_ "dmx/internal/sm/memsm"
)

// TestDispatchViewsAgree runs a fixed workload and checks that the views
// computed from the per-relation dispatch rollups agree: sys.stat_relations
// summed by storage method equals the storage_methods entries of
// MetricsSnapshot, and the legacy totals equal their hand-computed values.
// The workload covers every dispatch boundary: storage-method modifications,
// fetches and scans on two heap relations and a memory relation, a unique
// attachment that vetoes once, a heap insert the storage method refuses,
// and a B-tree access path's lookup and scan.
func TestDispatchViewsAgree(t *testing.T) {
	env := newEnv(t)
	mkTable(t, env, "h1", "heap")
	h2 := mkTable(t, env, "h2", "heap")
	mkTable(t, env, "m", "memory")
	for _, a := range []struct{ rel, att string }{{"h1", "unique"}, {"m", "btree"}} {
		tx := env.Begin()
		if _, err := env.CreateAttachment(tx, a.rel, a.att, core.AttrList{"on": "id"}); err != nil {
			t.Fatalf("attach %s to %s: %v", a.att, a.rel, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// Handles opened after the attachments see them in their descriptors.
	h1, err := env.OpenRelationByName("h1")
	if err != nil {
		t.Fatal(err)
	}
	m, err := env.OpenRelationByName("m")
	if err != nil {
		t.Fatal(err)
	}
	before := env.MetricsSnapshot().Totals

	row := func(id int64, v string) types.Record { return types.Record{types.Int(id), types.Str(v)} }
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	tx := env.Begin()
	var h1Keys, h2Keys []types.Key
	for id := int64(1); id <= 4; id++ {
		k, err := h1.Insert(tx, row(id, "x"))
		must(err)
		h1Keys = append(h1Keys, k)
	}
	if _, err := h1.Insert(tx, row(2, "dup")); err == nil {
		t.Fatal("unique attachment accepted a duplicate id")
	}
	_, err = h1.Update(tx, h1Keys[2], row(30, "x"))
	must(err)
	_, err = h1.Fetch(tx, h1Keys[0], nil, nil)
	must(err)
	for id := int64(1); id <= 3; id++ {
		k, err := h2.Insert(tx, row(id, "y"))
		must(err)
		h2Keys = append(h2Keys, k)
	}
	if _, err := h2.Insert(tx, row(9, strings.Repeat("z", 1<<16))); err == nil {
		t.Fatal("heap accepted a record larger than a page")
	}
	_, err = h2.Update(tx, h2Keys[0], row(1, "yy"))
	must(err)
	must(h2.Delete(tx, h2Keys[1]))
	for id := int64(10); id <= 12; id++ {
		_, err := m.Insert(tx, row(id, "w"))
		must(err)
	}
	keys, err := m.LookupAccess(tx, core.AttBTree, 0, types.EncodeKeyValues(types.Int(11)))
	must(err)
	if len(keys) != 1 {
		t.Fatalf("btree lookup returned %d keys, want 1", len(keys))
	}
	for _, open := range []func() (core.Scan, error){
		func() (core.Scan, error) { return m.OpenAccessScan(tx, core.AttBTree, 0, core.ScanOptions{}) },
		func() (core.Scan, error) { return m.OpenScan(tx, core.ScanOptions{}) },
		func() (core.Scan, error) { return h1.OpenScan(tx, core.ScanOptions{}) },
	} {
		sc, err := open()
		must(err)
		must(sc.Close())
	}
	must(tx.Commit())

	snap := env.MetricsSnapshot()
	got := snap.Totals
	got.SMCalls -= before.SMCalls
	got.AttCalls -= before.AttCalls
	got.Fetches -= before.Fetches
	got.Scans -= before.Scans
	got.Vetoes -= before.Vetoes
	want := core.TotalsSnapshot{
		SMCalls:  5 + 1 + 4 + 1 + 1 + 3, // h1 inserts+update, h2 inserts+update+delete, m inserts
		AttCalls: 5 + 1 + 3,             // unique on h1 inserts+update, btree on m inserts
		Fetches:  1 + 1,                 // h1 fetch, btree lookup
		Scans:    3,                     // btree scan, m scan, h1 scan
		Vetoes:   2,                     // unique duplicate, oversized heap record
	}
	if got != want {
		t.Fatalf("totals over the workload = %+v, want %+v", got, want)
	}

	// sys.stat_relations summed by storage method.
	type sums struct {
		calls         [obs.NumOps]int64
		errors, nanos int64
	}
	bySM := map[string]*sums{}
	col := func(name string) int { return colIndex(t, env, "sys.stat_relations", name) }
	relID, errCol, nsCol := col("rel_id"), col("errors"), col("sm_nanos")
	opCols := map[obs.Op]int{
		obs.OpInsert: col("inserts"), obs.OpUpdate: col("updates"), obs.OpDelete: col("deletes"),
		obs.OpFetch: col("fetches"), obs.OpScan: col("scans"),
	}
	for _, rec := range scanView(t, env, "sys.stat_relations") {
		rd, ok := env.Cat.Get(uint32(rec[relID].AsInt()))
		if !ok {
			t.Fatalf("stat row for uncatalogued relation %v", rec)
		}
		name := env.Reg.StorageOps(rd.SM).Name
		s := bySM[name]
		if s == nil {
			s = &sums{}
			bySM[name] = s
		}
		for op, c := range opCols {
			s.calls[op] += rec[c].AsInt()
		}
		s.errors += rec[errCol].AsInt()
		s.nanos += rec[nsCol].AsInt()
	}
	// The storage_methods entries of the snapshot, summed the same way.
	fromSnap := map[string]*sums{}
	for _, e := range snap.SM {
		s := &sums{}
		for _, o := range e.Ops {
			for op := obs.Op(0); op < obs.NumOps; op++ {
				if op.String() == o.Op {
					s.calls[op] = o.Count
				}
			}
			s.errors += o.Errors
			s.nanos += o.Latency.SumNanos
		}
		fromSnap[e.Name] = s
	}
	for _, name := range []string{"heap", "memory"} {
		if fromSnap[name] == nil {
			t.Fatalf("no storage_methods entry for %s: %+v", name, snap.SM)
		}
	}
	for name, s := range fromSnap {
		r := bySM[name]
		if r == nil {
			r = &sums{}
		}
		if *r != *s {
			t.Errorf("%s: sys.stat_relations sums %+v, storage_methods %+v", name, *r, *s)
		}
	}
	for name, r := range bySM {
		if fromSnap[name] == nil && *r != (sums{}) {
			t.Errorf("%s: sys.stat_relations has calls %+v but storage_methods has no entry", name, *r)
		}
	}
}
