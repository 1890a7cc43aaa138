package rig

import (
	"fmt"
	"strings"
	"testing"
)

// TestJoinStrategiesPlanAsNamed pins each E2 workload to the strategy it
// is named for: without ForceJoin, or with the B-tree on the column the
// join does not probe, the planner picks a hash join for every row.
func TestJoinStrategiesPlanAsNamed(t *testing.T) {
	want := []string{
		JoinNestedLoop: "nestedloop(scan(emp via heap) × scan(dept)",
		JoinIndexNL:    "indexNL(scan(emp via heap) ⟕probe dept via btree #",
		JoinHash:       "hash(scan(emp via heap) ⋈ dept",
		JoinIndex:      `joinindex(emp ⋈ dept via "ed")`,
	}
	for s, label := range JoinLabels {
		if got := NewJoin(50, s).Plan.Explain(); !strings.HasPrefix(got, want[s]) {
			t.Errorf("%s: plan %s, want prefix %s", label, got, want[s])
		}
	}
}

// TestWorkloadsRunOnce builds every shared workload at a tiny size and
// runs each of its operations once, result check included, so a broken
// workload fails here and not only under -bench or in cmd/dmxbench.
func TestWorkloadsRunOnce(t *testing.T) {
	cases := map[string]func() error{
		"E1": func() error {
			d := NewDispatch()
			return firstErr(d.Direct(0), d.Vector(1), d.ByID(2), d.ByName(3))
		},
		"E2": func() error {
			for s := range JoinLabels {
				if err := NewJoin(30, s).Run(); err != nil {
					return err
				}
			}
			return nil
		},
		"E3": func() error {
			w := NewBoundPlans(40)
			return firstErr(w.Reused(), w.Replanned(), w.ParseBindExecute())
		},
		"E4": func() error {
			w := NewFilter(100)
			return firstErr(w.Pushdown(10), w.CopyThenFilter(10), w.Pushdown(100), w.CopyThenFilter(0))
		},
		"E5": func() error {
			w := NewAttachmentCost(len(AttachmentSteps))
			return firstErr(w.InsertBatch(5), w.ScanAll())
		},
		"E6": func() error {
			for _, q := range append(NewAccessPaths(300), NewSpatial(400)) {
				if q.Want == 0 {
					return fmt.Errorf("%s matches nothing", q.Plan.Explain())
				}
				if err := firstErr(q.Chosen(), q.Scan()); err != nil {
					return err
				}
			}
			return nil
		},
		"E7": func() error {
			for _, c := range StorageMethods {
				w := NewStorageMethod(c.SM)
				if err := firstErr(w.InsertBatch(3), w.ScanAll()); err != nil {
					return fmt.Errorf("%s: %w", c.Label, err)
				}
			}
			return nil
		},
		"E8": func() error {
			w := NewVeto()
			return firstErr(w.InsertBatch(3), w.InsertVetoed(), w.SavepointInserts(4),
				w.RollbackSavepoint(), w.Commit(), w.ScanAll())
		},
		"E9": func() error {
			return firstErr(NewDeferred("immediate").InsertBatch(20), NewDeferred("deferred").InsertBatch(20))
		},
		"E10": func() error {
			c := NewCascade(2)
			if c.Records != 1+4+16 {
				return fmt.Errorf("cascade of depth 2 holds %d records", c.Records)
			}
			return firstErr(c.Delete(), c.Commit())
		},
		"E11": func() error { return DecodeDescriptor(NewDescriptor(10)) },
		"E12": func() error {
			l := NewLocking()
			return firstErr(l.Txn(0, 0), l.Txn(1, 0), l.Txn(0, 1))
		},
		"A1": func() error {
			w := NewUpdates(10)
			for pass := 0; pass < 2; pass++ {
				for indexed := 0; indexed <= 2; indexed++ {
					before := w.Env.Log.Len()
					if err := w.Update(indexed); err != nil {
						return err
					}
					if got := AttachmentUpdates(w.Env, before); got != 2*indexed {
						return fmt.Errorf("update of %d indexed fields logged %d index records, want a delete and an insert each", indexed, got)
					}
				}
			}
			return firstErr(w.Commit(), w.ScanAll())
		},
		"A2": func() error { return NewRemoteScan(5, 2).ScanAll() },
	}
	for name, op := range cases {
		t.Run(name, func(t *testing.T) {
			if err := op(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWorkloadChecksReportWrongResults shows the result checks fail when
// the result is wrong.
func TestWorkloadChecksReportWrongResults(t *testing.T) {
	w := NewFilter(20)
	if err := w.Pushdown(30); err == nil {
		t.Error("pushdown reported 30 matches among 20 records")
	}
	if err := w.CopyThenFilter(30); err == nil {
		t.Error("copy-then-filter reported 30 matches among 20 records")
	}
	if err := NewAttachmentCost(0).InsertVetoed(); err == nil {
		t.Error("insert without a check constraint reported as vetoed")
	}
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
