package main

import (
	"runtime"

	"dmx/internal/core"
	"dmx/internal/obs"
)

// probe is a reading of the engine's counters and the process's
// allocation count, taken on either side of the timed window.
type probe struct {
	obs     obs.Snapshot
	mallocs uint64
}

func takeProbe(env *core.Env) probe {
	return probe{obs: env.Obs.Snapshot(), mallocs: mallocs()}
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// work is what the clients did in the window, as the denominators of the
// per-layer ratios.
type work struct {
	txns        int64 // committed transactions
	queries     int64 // transactions attempted (each reads the pool)
	rowsWritten int64 // rows inserted or updated by committed transactions
	rowsVisited int64 // rows the storage methods visited to answer reads
	ckptAppends int64 // log records written by checkpoints, kept out of the per-txn ratios
	ckptBytes   int64
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// notifyCalls counts attachment modification calls (not lookups or scans).
func notifyCalls(s obs.Snapshot) int64 {
	var n int64
	for _, ext := range s.Att {
		for _, op := range ext.Ops {
			switch op.Op {
			case "insert", "update", "delete":
				n += op.Count
			}
		}
	}
	return n
}

// counterMetrics fills the per-layer metrics that come from counter
// deltas across the window.
func counterMetrics(m map[string]float64, a, b probe, w work) {
	x, y := a.obs, b.obs
	txns := float64(w.txns)
	m["lock.requests_per_txn"] = ratio(float64(y.Lock.Requests-x.Lock.Requests), txns)
	m["lock.waits_per_txn"] = ratio(float64(y.Lock.Waits-x.Lock.Waits), txns)
	m["lock.wait_us_per_txn"] = ratio(float64(y.Lock.WaitTime.SumNanos-x.Lock.WaitTime.SumNanos)/1e3, txns)
	m["lock.deadlocks"] = float64(y.Lock.Deadlocks - x.Lock.Deadlocks)
	appends := float64(y.WAL.Appends - x.WAL.Appends - w.ckptAppends)
	m["wal.appends_per_txn"] = ratio(appends, txns)
	m["wal.bytes_per_row"] = ratio(float64(y.WAL.AppendBytes-x.WAL.AppendBytes-w.ckptBytes), float64(w.rowsWritten))
	m["wal.commits_per_sync"] = ratio(float64(y.WAL.GroupCommits-x.WAL.GroupCommits), float64(y.WAL.GroupBatches-x.WAL.GroupBatches))
	m["att.calls_per_write"] = ratio(float64(notifyCalls(y)-notifyCalls(x)), float64(w.rowsWritten))
	m["sm.heap.chain_walks_per_read"] = ratio(float64(y.MVCC.ChainWalks-x.MVCC.ChainWalks), float64(y.MVCC.SnapshotReads-x.MVCC.SnapshotReads))
	m["sm.heap.allocs_per_row_scanned"] = ratio(float64(b.mallocs-a.mallocs), float64(w.rowsVisited))
	hits, misses := float64(y.Buffer.Hits-x.Buffer.Hits), float64(y.Buffer.Misses-x.Buffer.Misses)
	m["buffer.hit_ratio"] = ratio(hits, hits+misses)
	m["buffer.misses_per_query"] = ratio(misses, float64(w.queries))
	m["buffer.evictions_per_query"] = ratio(float64(y.Buffer.Evictions-x.Buffer.Evictions), float64(w.queries))
	m["plan.parallel_scans"] = float64(y.Plan.ParallelScans - x.Plan.ParallelScans)
	m["plan.hash_joins"] = float64(y.Plan.HashJoins - x.Plan.HashJoins)
	m["partsm.prepares_per_txn"] = ratio(float64(y.Part.Prepares-x.Part.Prepares), txns)
}

// callMetrics fills the per-layer call times from the traced run's spans.
// Untraced runs have no spans and report zeros, which they never print.
func callMetrics(m map[string]float64, st spanStats) {
	perRowNs := func(name string) float64 {
		return ratio(float64(st.totalNs[name]), float64(st.rows[name]))
	}
	m["core.lookup_us"] = st.meanUs("core.lookup")
	m["core.fetch_us"] = st.meanUs("core.fetch")
	m["core.insert_us"] = st.meanUs("core.insert")
	m["core.update_us"] = st.meanUs("core.update")
	m["core.delete_us"] = st.meanUs("core.delete")
	m["core.scan_row_ns"] = perRowNs("core.scan")
	m["txn.commit_us"] = st.meanUs("txn.commit")
	m["wal.ckpt_ms"] = st.meanUs("wal.checkpoint") / 1e3
	m["plan.plan_us"] = st.meanUs("plan.plan")
	m["plan.exec_row_ns"] = perRowNs("plan.exec")
	m["ddl.exec_us"] = st.meanUs("ddl.exec")
	m["partsm.fetch_us"] = st.meanUs("partsm.fetch")
	m["partsm.insert_us"] = st.meanUs("partsm.insert")
	m["partsm.scan_row_ns"] = perRowNs("partsm.scan")
	m["remotesm.fetch_us"] = st.meanUs("remotesm.fetch")
	m["remotesm.insert_us"] = st.meanUs("remotesm.insert")
}

// finish computes every metric of a run that is common to all
// workloads. The caller adds the workload-specific ones (setup_s,
// heap_mb, recover_s, the checkpoint and log figures, remote messages).
func finish(rn *run, a, b probe, w work, tracing bool) map[string]float64 {
	m := map[string]float64{}
	rn.endToEnd(m)
	counterMetrics(m, a, b, w)
	st := mergeStats(rn.recs)
	callMetrics(m, st)
	cost := 0.0
	if tracing {
		cost = spanCost()
	}
	st.perLayer(m, rn, cost)
	return m
}
