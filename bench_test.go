// Benchmarks of the experiment suite (see DESIGN.md for the claim →
// experiment mapping and EXPERIMENTS.md for the measured tables). Each
// target runs the workload internal/rig defines for cmd/dmxbench, at a
// fixed size, with its operation under b.Loop.
package dmx

import (
	"sync/atomic"
	"testing"

	"dmx/internal/rig"
)

// benchOp runs op once per iteration, failing on its first error.
func benchOp(b *testing.B, op func() error) {
	b.Helper()
	for b.Loop() {
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchInserts times w's inserts, all in one transaction.
func benchInserts(b *testing.B, w *rig.Workload) {
	benchOp(b, func() error { _, err := w.Insert(); return err })
	if err := w.Commit(); err != nil {
		b.Fatal(err)
	}
}

// --- E1: extension activation dispatch ---

// Each target calls its method directly, so the activation is not
// hidden behind one more indirect call.

func BenchmarkE1DispatchVector(b *testing.B) {
	d := rig.NewDispatch()
	for i := 0; b.Loop(); i++ {
		d.Vector(i)
	}
}

func BenchmarkE1DispatchMap(b *testing.B) {
	d := rig.NewDispatch()
	for i := 0; b.Loop(); i++ {
		d.ByID(i)
	}
}

func BenchmarkE1DispatchByName(b *testing.B) {
	d := rig.NewDispatch()
	for i := 0; b.Loop(); i++ {
		d.ByName(i)
	}
}

// --- E2: join strategies ---

func BenchmarkE2JoinNestedLoop(b *testing.B) { benchOp(b, rig.NewJoin(1000, rig.JoinNestedLoop).Run) }
func BenchmarkE2JoinIndexNL(b *testing.B)    { benchOp(b, rig.NewJoin(1000, rig.JoinIndexNL).Run) }
func BenchmarkE2JoinIndex(b *testing.B)      { benchOp(b, rig.NewJoin(1000, rig.JoinIndex).Run) }

// --- E3: bound plans ---

func BenchmarkE3BoundPlanReused(b *testing.B)    { benchOp(b, rig.NewBoundPlans(5000).Reused) }
func BenchmarkE3BoundPlanReplanned(b *testing.B) { benchOp(b, rig.NewBoundPlans(5000).Replanned) }
func BenchmarkE3ParseBindExecute(b *testing.B)   { benchOp(b, rig.NewBoundPlans(5000).ParseBindExecute) }

// --- E4: filter pushdown (1% selectivity) ---

func BenchmarkE4FilterPushdown(b *testing.B) {
	w := rig.NewFilter(10000)
	benchOp(b, func() error { return w.Pushdown(100) })
}

func BenchmarkE4FilterCopyThenFilter(b *testing.B) {
	w := rig.NewFilter(10000)
	benchOp(b, func() error { return w.CopyThenFilter(100) })
}

// --- E5: attachment maintenance cost ---

func BenchmarkE5AttachmentCost0(b *testing.B)        { benchInserts(b, rig.NewAttachmentCost(0)) }
func BenchmarkE5AttachmentCost2Indexes(b *testing.B) { benchInserts(b, rig.NewAttachmentCost(2)) }
func BenchmarkE5AttachmentCost6Types(b *testing.B) {
	benchInserts(b, rig.NewAttachmentCost(len(rig.AttachmentSteps)))
}

// --- E6: access path selection ---

func BenchmarkE6AccessPathPoint(b *testing.B) {
	benchOp(b, rig.NewAccessPaths(20000)[rig.PathPoint].Chosen)
}

func BenchmarkE6AccessPathHashEq(b *testing.B) {
	benchOp(b, rig.NewAccessPaths(20000)[rig.PathEquality].Chosen)
}

func BenchmarkE6AccessPathScan(b *testing.B) {
	benchOp(b, rig.NewAccessPaths(20000)[rig.PathNonIndexed].Chosen)
}

func BenchmarkE6AccessPathSpatial(b *testing.B) { benchOp(b, rig.NewSpatial(10000).Chosen) }

// --- E7: storage methods ---

func BenchmarkE7StorageMethodsHeapInsert(b *testing.B) {
	benchInserts(b, rig.NewStorageMethod("heap"))
}

func BenchmarkE7StorageMethodsBTreeInsert(b *testing.B) {
	benchInserts(b, rig.NewStorageMethod("btree"))
}

func BenchmarkE7StorageMethodsMemoryInsert(b *testing.B) {
	benchInserts(b, rig.NewStorageMethod("memory"))
}

func BenchmarkE7StorageMethodsAppendInsert(b *testing.B) {
	benchInserts(b, rig.NewStorageMethod("append"))
}

func BenchmarkE7StorageMethodsRemoteInsert(b *testing.B) {
	benchInserts(b, rig.NewStorageMethod("remote"))
}

// --- E8: veto and rollback ---

func BenchmarkE8VetoRollback(b *testing.B) { benchOp(b, rig.NewVeto().InsertVetoed) }

func BenchmarkE8SavepointRollback100(b *testing.B) {
	w := rig.NewVeto()
	benchOp(b, func() error {
		if err := w.SavepointInserts(100); err != nil {
			return err
		}
		return w.RollbackSavepoint()
	})
}

// --- E9: deferred constraints (100-record transactions) ---

func benchRefint(b *testing.B, timing string) {
	w := rig.NewDeferred(timing)
	benchOp(b, func() error { return w.InsertBatch(100) })
}

func BenchmarkE9DeferredImmediate(b *testing.B) { benchRefint(b, "immediate") }
func BenchmarkE9DeferredDeferred(b *testing.B)  { benchRefint(b, "deferred") }

// --- E10: cascading deletes ---

func BenchmarkE10CascadeDepth3(b *testing.B) {
	// Classic b.N loop: the per-iteration setup is excluded with the
	// timer controls, which b.Loop does not permit.
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		c := rig.NewCascade(3)
		b.StartTimer()
		if err := c.Delete(); err != nil {
			b.Fatal(err)
		}
		if err := c.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E11: descriptor encode/decode ---

func benchDescriptor(b *testing.B, present int) {
	enc := rig.NewDescriptor(present)
	b.SetBytes(int64(len(enc)))
	benchOp(b, func() error { return rig.DecodeDescriptor(enc) })
}

func BenchmarkE11Descriptor0Attachments(b *testing.B)  { benchDescriptor(b, 0) }
func BenchmarkE11Descriptor10Attachments(b *testing.B) { benchDescriptor(b, 10) }

// --- E12: lock manager ---

func BenchmarkE12LockingUncontended(b *testing.B) {
	l := rig.NewLocking()
	for i := 0; b.Loop(); i++ {
		if err := l.Txn(0, i); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE12LockingParallel(b *testing.B) {
	l := rig.NewLocking()
	var workers atomic.Int32
	b.RunParallel(func(pb *testing.PB) {
		w := int(workers.Add(1) - 1)
		for i := 0; pb.Next(); i++ {
			if err := l.Txn(w, i); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// --- A1: ablation — index-maintenance skip on unchanged fields ---

func benchA1Update(b *testing.B, indexed int) {
	w := rig.NewUpdates(1000)
	benchOp(b, func() error { return w.Update(indexed) })
	if err := w.Commit(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkA1UpdateNonIndexedField(b *testing.B) { benchA1Update(b, 0) }
func BenchmarkA1UpdateIndexedField(b *testing.B)    { benchA1Update(b, 1) }

// --- A2: ablation — remote scan batch size ---

func BenchmarkA2RemoteScanBatch1(b *testing.B)   { benchOp(b, rig.NewRemoteScan(1000, 1).ScanAll) }
func BenchmarkA2RemoteScanBatch100(b *testing.B) { benchOp(b, rig.NewRemoteScan(1000, 100).ScanAll) }
