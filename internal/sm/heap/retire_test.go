package heap_test

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"dmx/internal/core"
	"dmx/internal/txn"
	"dmx/internal/types"
	"dmx/internal/wal"
)

// loadHeap commits n records (id i, payload "v0") in one transaction and
// returns their keys.
func loadHeap(t *testing.T, env *core.Env, r *core.Relation, n int) []types.Key {
	t.Helper()
	tx := env.Begin()
	keys := make([]types.Key, n)
	for i := range keys {
		k, err := r.Insert(tx, rec(int64(i), "v0"))
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = k
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return keys
}

// scanPayloads drains a full scan under tx into id -> payload.
func scanPayloads(t *testing.T, r *core.Relation, tx *txn.Txn) map[int64]string {
	t.Helper()
	sc, err := r.OpenScan(tx, core.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out := map[int64]string{}
	for _, got := range drain(t, sc) {
		out[got[0].AsInt()] = got[1].S
	}
	return out
}

// With no older snapshot open, one snapshot scan over committed rows
// retires every chain: all snapshots see the heads, so page state serves
// them all.
func TestSnapshotScanRetiresVisibleChains(t *testing.T) {
	env := core.NewEnv(core.Config{Log: wal.New()})
	r := mkHeap(t, env, "t")
	keys := loadHeap(t, env, r, 300)
	if got := chainLen(t, r, keys[0]); got != 1 {
		t.Fatalf("chain len %d after the load, want 1", got)
	}
	frozen := env.Obs.MVCC.Frozen.Load()
	ro := env.BeginReadOnly()
	if got := len(scanPayloads(t, r, ro)); got != len(keys) {
		t.Fatalf("snapshot scan saw %d rows, want %d", got, len(keys))
	}
	if err := ro.Commit(); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if got := chainLen(t, r, k); got != 0 {
			t.Fatalf("row %d: chain len %d after the snapshot scan, want 0", i, got)
		}
	}
	if got := env.Obs.MVCC.Frozen.Load() - frozen; got != int64(len(keys)) {
		t.Fatalf("retired %d chains, want %d", got, len(keys))
	}
}

// A newer snapshot's scan leaves alone the chain an older snapshot still
// needs, so the older snapshot keeps reading the pre-update value through
// both Fetch and a scan.
func TestNewerSnapshotKeepsChainOlderSnapshotNeeds(t *testing.T) {
	env := core.NewEnv(core.Config{Log: wal.New()})
	r := mkHeap(t, env, "t")
	keys := loadHeap(t, env, r, 50)
	old := env.BeginReadOnly()
	tx := env.Begin()
	if _, err := r.Update(tx, keys[7], rec(7, "v1")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	newer := env.BeginReadOnly()
	if got := scanPayloads(t, r, newer)[7]; got != "v1" {
		t.Fatalf("newer snapshot scan reads %q, want v1", got)
	}
	if err := newer.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := chainLen(t, r, keys[7]); got != 2 {
		t.Fatalf("updated row's chain len %d after the newer scan, want 2", got)
	}
	if got, err := r.Fetch(old, keys[7], nil, nil); err != nil || got[1].S != "v0" {
		t.Fatalf("older snapshot fetch reads %v %v, want v0", got, err)
	}
	if got := scanPayloads(t, r, old)[7]; got != "v0" {
		t.Fatalf("older snapshot scan reads %q, want v0", got)
	}
	if err := old.Commit(); err != nil {
		t.Fatal(err)
	}
}

// An uncommitted update's stamp-0 head survives a snapshot scan: the
// scan reads the committed version beneath it, and the writer can still
// undo its own entry.
func TestSnapshotScanKeepsUncommittedHead(t *testing.T) {
	env := core.NewEnv(core.Config{Log: wal.New()})
	r := mkHeap(t, env, "t")
	keys := loadHeap(t, env, r, 20)
	w := env.Begin()
	if _, err := r.Update(w, keys[3], rec(3, "v1")); err != nil {
		t.Fatal(err)
	}
	ro := env.BeginReadOnly()
	if got := scanPayloads(t, r, ro)[3]; got != "v0" {
		t.Fatalf("snapshot scan reads %q under an uncommitted update, want v0", got)
	}
	if err := ro.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := chainLen(t, r, keys[3]); got != 2 {
		t.Fatalf("chain len %d after the snapshot scan, want 2 (uncommitted head kept)", got)
	}
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := chainLen(t, r, keys[3]); got != 1 {
		t.Fatalf("chain len %d after the writer aborted, want 1", got)
	}
	ro = env.BeginReadOnly()
	defer ro.Commit()
	if got, err := r.Fetch(ro, keys[3], nil, nil); err != nil || got[1].S != "v0" {
		t.Fatalf("fetch after abort reads %v %v, want v0", got, err)
	}
}

// Readers, each under its own snapshot, run partitioned scans (one
// goroutine per partition, as the parallel executor does) while a writer
// commits in-place and record-moving updates. Every scan must return
// exactly the state committed at its snapshot's high-water, whichever
// readers retired which chains meanwhile.
func TestSnapshotPartitionedScansUnderWriter(t *testing.T) {
	const rows, readers, rounds, writes, parts = 1200, 3, 8, 60, 3
	env := core.NewEnv(core.Config{Log: wal.New()})
	r := mkHeap(t, env, "t")
	keys := loadHeap(t, env, r, rows)
	base := env.Txns.StampHW()
	partitioner := r.Storage().(core.RangePartitioner)
	if len(partitioner.PartitionBounds(parts)) == 0 {
		t.Fatal("relation too small to partition")
	}

	// history[stamp] holds the writes committed at stamp.
	type write struct {
		id      int64
		payload string
	}
	var mu sync.Mutex
	history := map[uint64][]write{}
	cond := sync.NewCond(&mu)
	last := base
	writing := true // cleared when the writer exits, so no reader waits on a failed writer

	stateAt := func(hw uint64) map[int64]string {
		mu.Lock()
		for last < hw && writing {
			cond.Wait()
		}
		want := make(map[int64]string, rows)
		for i := 0; i < rows; i++ {
			want[int64(i)] = "v0"
		}
		for s := base + 1; s <= hw; s++ {
			for _, w := range history[s] {
				want[w.id] = w.payload
			}
		}
		mu.Unlock()
		return want
	}

	errs := make(chan error, readers+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			mu.Lock()
			writing = false
			cond.Broadcast()
			mu.Unlock()
		}()
		rng := rand.New(rand.NewSource(1))
		for n := 1; n <= writes; n++ {
			tx := env.Begin()
			var batch []write
			for j := 0; j < 3; j++ {
				id := rng.Intn(rows)
				// Payload lengths vary, so some updates fit in place and
				// others tombstone-and-move to a new record address.
				payload := fmt.Sprintf("v%d-%s", n, strings.Repeat("x", rng.Intn(40)))
				nk, err := r.Update(tx, keys[id], rec(int64(id), payload))
				if err != nil {
					tx.Abort()
					errs <- fmt.Errorf("writer update %d: %w", n, err)
					return
				}
				keys[id] = nk
				batch = append(batch, write{int64(id), payload})
			}
			if err := tx.Commit(); err != nil {
				errs <- fmt.Errorf("writer commit %d: %w", n, err)
				return
			}
			mu.Lock()
			history[tx.CommitStamp()] = batch
			last = max(last, tx.CommitStamp())
			cond.Broadcast()
			mu.Unlock()
		}
	}()

	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				if err := checkPartitionedSnapshot(env, r, partitioner.PartitionBounds(parts), stateAt); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// checkPartitionedSnapshot opens a snapshot, scans each key range between
// bounds on its own goroutine and compares the union with stateAt(HW).
func checkPartitionedSnapshot(env *core.Env, r *core.Relation, bounds []types.Key, stateAt func(uint64) map[int64]string) error {
	ro := env.BeginReadOnly()
	defer ro.Commit()
	cuts := append(append([]types.Key{nil}, bounds...), nil)
	scans := make([]core.Scan, len(cuts)-1)
	for i := range scans {
		sc, err := r.OpenScan(ro, core.ScanOptions{Start: cuts[i], End: cuts[i+1]})
		if err != nil {
			return err
		}
		scans[i] = sc
	}
	parts := make([][]types.Record, len(scans))
	perr := make([]error, len(scans))
	var wg sync.WaitGroup
	for i, sc := range scans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer sc.Close()
			for {
				_, got, ok, err := sc.Next()
				if err != nil || !ok {
					perr[i] = err
					return
				}
				parts[i] = append(parts[i], got)
			}
		}()
	}
	wg.Wait()
	want := stateAt(ro.Snapshot().HW)
	got := map[int64]string{}
	for i, part := range parts {
		if perr[i] != nil {
			return perr[i]
		}
		for _, rec := range part {
			id := rec[0].AsInt()
			if prev, dup := got[id]; dup {
				return fmt.Errorf("snapshot HW %d: id %d returned twice (%q, %q)", ro.Snapshot().HW, id, prev, rec[1].S)
			}
			got[id] = rec[1].S
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("snapshot HW %d: scans returned %d rows, want %d", ro.Snapshot().HW, len(got), len(want))
	}
	for id, w := range want {
		if got[id] != w {
			return fmt.Errorf("snapshot HW %d: id %d reads %q, want %q", ro.Snapshot().HW, id, got[id], w)
		}
	}
	return nil
}
