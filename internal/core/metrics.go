package core

import "dmx/internal/obs"

// MetricsSnapshot is the engine-wide observability snapshot: the
// per-extension dispatch vectors (resolved to registered extension names),
// lock manager, recovery log, and buffer pool statistics, plus the legacy
// coarse totals. It marshals to a single JSON document.
type MetricsSnapshot struct {
	obs.Snapshot
	Totals TotalsSnapshot `json:"totals"`
}

// TotalsSnapshot holds the legacy coarse counters, derived from the
// dispatch vectors of the same snapshot.
type TotalsSnapshot struct {
	SMCalls  int64 `json:"sm_calls"`  // storage-method inserts, updates and deletes
	AttCalls int64 `json:"att_calls"` // attached-procedure inserts, updates and deletes
	Fetches  int64 `json:"fetches"`   // storage-method fetches and access-path lookups
	Scans    int64 `json:"scans"`     // storage-method and access-path scans opened
	Vetoes   int64 `json:"vetoes"`    // failed storage-method modifications and attachment vetoes
}

// MetricsSnapshot captures a consistent-enough point-in-time view of every
// counter in the environment. Safe to call concurrently with traffic.
// The storage-method vector is merged from the per-relation rollups by
// storage-method identifier, and the totals are computed from the
// snapshot's own vectors.
func (env *Env) MetricsSnapshot() MetricsSnapshot {
	var sm obs.Vector
	for _, rs := range env.relStats.all() {
		for op := range rs.Ops {
			sm.Merge(int(rs.SM), obs.Op(op), &rs.Ops[op])
		}
	}
	s := env.Obs.Snapshot()
	s.SM = sm.Snapshot(nil)
	for i := range s.SM {
		if ops := env.Reg.StorageOps(SMID(s.SM[i].ID)); ops != nil {
			s.SM[i].Name = ops.Name
		}
	}
	for i := range s.Att {
		if ops := env.Reg.AttachmentOps(AttID(s.Att[i].ID)); ops != nil {
			s.Att[i].Name = ops.Name
		}
	}
	return MetricsSnapshot{Snapshot: s, Totals: totals(s)}
}

// totals derives the legacy counters from a snapshot's dispatch vectors.
func totals(s obs.Snapshot) TotalsSnapshot {
	var t TotalsSnapshot
	for _, e := range s.SM {
		for _, o := range e.Ops {
			switch o.Op {
			case "insert", "update", "delete":
				t.SMCalls += o.Count
				t.Vetoes += o.Errors
			case "fetch":
				t.Fetches += o.Count
			case "scan":
				t.Scans += o.Count
			}
		}
	}
	for _, e := range s.Att {
		t.Vetoes += e.Vetoes
		for _, o := range e.Ops {
			switch o.Op {
			case "insert", "update", "delete":
				t.AttCalls += o.Count
			case "lookup":
				t.Fetches += o.Count
			case "scan":
				t.Scans += o.Count
			}
		}
	}
	return t
}
