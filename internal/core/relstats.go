package core

import (
	"sort"
	"sync"
	"sync/atomic"

	"dmx/internal/obs"
)

// RelStat is the per-relation dispatch rollup and the one store of the
// relation's storage-method calls: a call count, error count and latency
// histogram per operation, recorded at the Relation layer where every
// access funnels through. sys.stat_relations reads it directly; the
// engine-wide storage-method view and the legacy totals are merged from
// every relation's rollup at snapshot time. The row counters are charged
// alongside the transaction ledger and share its accounting switch.
type RelStat struct {
	RelID       uint32
	SM          SMID
	Ops         [obs.NumOps]obs.OpStat
	RowsRead    atomic.Int64
	RowsWritten atomic.Int64
}

// RelStatRow is one sys.stat_relations row: a point-in-time copy of one
// relation's rollup with the name resolved from the catalog ("" when the
// relation has since been dropped).
type RelStatRow struct {
	RelID       uint32 `json:"rel_id"`
	Name        string `json:"name"`
	Inserts     int64  `json:"inserts"`
	Updates     int64  `json:"updates"`
	Deletes     int64  `json:"deletes"`
	Fetches     int64  `json:"fetches"`
	Scans       int64  `json:"scans"`
	Errors      int64  `json:"errors"`
	RowsRead    int64  `json:"rows_read"`
	RowsWritten int64  `json:"rows_written"`
	SMNanos     int64  `json:"sm_nanos"`
}

// relStatsTable maps relation IDs to their rollups. Entries persist past
// relation drop (the rollup is historical, and RelIDs are never reused
// within a process).
type relStatsTable struct {
	mu sync.RWMutex
	m  map[uint32]*RelStat
}

// get returns the rollup for rd, creating it on first use.
func (t *relStatsTable) get(rd *RelDesc) *RelStat {
	t.mu.RLock()
	rs := t.m[rd.RelID]
	t.mu.RUnlock()
	if rs != nil {
		return rs
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if rs = t.m[rd.RelID]; rs != nil {
		return rs
	}
	if t.m == nil {
		t.m = make(map[uint32]*RelStat)
	}
	rs = &RelStat{RelID: rd.RelID, SM: rd.SM}
	t.m[rd.RelID] = rs
	return rs
}

// all returns every rollup, sorted by relation ID.
func (t *relStatsTable) all() []*RelStat {
	t.mu.RLock()
	out := make([]*RelStat, 0, len(t.m))
	for _, rs := range t.m {
		out = append(out, rs)
	}
	t.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].RelID < out[j].RelID })
	return out
}

// RelStatRows snapshots every relation rollup, sorted by relation ID,
// with names resolved from the catalog.
func (env *Env) RelStatRows() []RelStatRow {
	stats := env.relStats.all()
	rows := make([]RelStatRow, 0, len(stats))
	for _, rs := range stats {
		var calls [obs.NumOps]int64
		row := RelStatRow{
			RelID:       rs.RelID,
			RowsRead:    rs.RowsRead.Load(),
			RowsWritten: rs.RowsWritten.Load(),
		}
		for op := range rs.Ops {
			h := rs.Ops[op].Latency.Snapshot()
			calls[op] = h.Count
			row.SMNanos += h.SumNanos
			row.Errors += rs.Ops[op].Errors.Load()
		}
		row.Inserts, row.Updates, row.Deletes = calls[obs.OpInsert], calls[obs.OpUpdate], calls[obs.OpDelete]
		row.Fetches, row.Scans = calls[obs.OpFetch], calls[obs.OpScan]
		if rd, ok := env.Cat.Get(rs.RelID); ok {
			row.Name = rd.Name
		}
		rows = append(rows, row)
	}
	return rows
}
