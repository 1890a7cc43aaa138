// Prometheus text-exposition rendering of a Snapshot.
//
// The engine keeps its metrics in its own vector-indexed registry (see
// obs.go); this file is the bridge to standard scraping infrastructure.
// It renders the exposition format directly — counters, gauges, and the
// already-bucketed latency histograms — so the debug server's /metrics
// endpoint needs no client library.
package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// promNamespace prefixes every exposed metric family.
const promNamespace = "dmx"

// WritePrometheus renders s in the Prometheus text exposition format
// (version 0.0.4): HELP/TYPE headers per family, cumulative `le` buckets
// in seconds for histograms, and per-extension metrics as `ext`/`op`
// labelled series.
func WritePrometheus(w io.Writer, s Snapshot) error {
	p := &promWriter{w: w}
	p.vector("sm", "storage-method dispatch", s.SM, false)
	p.vector("att", "attachment dispatch", s.Att, true)

	p.family("lock_requests_total", "counter", "lock manager Acquire and TryAcquire calls")
	p.sample("lock_requests_total", "", float64(s.Lock.Requests))
	p.family("lock_waits_total", "counter", "lock requests that blocked")
	p.sample("lock_waits_total", "", float64(s.Lock.Waits))
	p.family("lock_deadlocks_total", "counter", "lock requests refused as deadlock victims")
	p.sample("lock_deadlocks_total", "", float64(s.Lock.Deadlocks))
	p.family("lock_waiting", "gauge", "transactions currently blocked on a lock")
	p.sample("lock_waiting", "", float64(s.Lock.Waiting))
	p.family("lock_queue_depth_max", "gauge", "high-water mark of concurrently blocked transactions")
	p.sample("lock_queue_depth_max", "", float64(s.Lock.MaxQueueDepth))
	p.histogram("lock_wait_seconds", "time spent blocked on lock acquisition", "", s.Lock.WaitTime)

	p.family("wal_appends_total", "counter", "recovery-log records written")
	p.sample("wal_appends_total", "", float64(s.WAL.Appends))
	p.family("wal_append_bytes_total", "counter", "recovery-log payload bytes appended")
	p.sample("wal_append_bytes_total", "", float64(s.WAL.AppendBytes))
	p.family("wal_syncs_total", "counter", "recovery-log backing-file fsyncs")
	p.sample("wal_syncs_total", "", float64(s.WAL.Syncs))
	p.family("wal_rollbacks_total", "counter", "log-driven rollbacks (veto, savepoint, abort)")
	p.sample("wal_rollbacks_total", "", float64(s.WAL.Rollbacks))
	p.family("wal_checkpoints_total", "counter", "completed checkpoints")
	p.sample("wal_checkpoints_total", "", float64(s.WAL.Checkpoints))
	p.family("wal_redo_records_total", "counter", "records dispatched to redo during restart recovery")
	p.sample("wal_redo_records_total", "", float64(s.WAL.RedoRecords))
	p.family("wal_group_commits_total", "counter", "commit syncs served by group commit")
	p.sample("wal_group_commits_total", "", float64(s.WAL.GroupCommits))
	p.family("wal_group_batches_total", "counter", "fsync rounds driven by the group-commit leader")
	p.sample("wal_group_batches_total", "", float64(s.WAL.GroupBatches))
	p.family("wal_forced_syncs_total", "counter", "WAL-before-data forces from the buffer pool")
	p.sample("wal_forced_syncs_total", "", float64(s.WAL.ForcedSyncs))
	p.family("wal_commits_per_fsync", "gauge", "group-commit batching ratio")
	p.sample("wal_commits_per_fsync", "", s.WAL.CommitsPerFsync)

	p.family("buffer_hits_total", "counter", "buffer pool page hits")
	p.sample("buffer_hits_total", "", float64(s.Buffer.Hits))
	p.family("buffer_misses_total", "counter", "buffer pool page misses")
	p.sample("buffer_misses_total", "", float64(s.Buffer.Misses))
	p.family("buffer_evictions_total", "counter", "buffer pool frame evictions")
	p.sample("buffer_evictions_total", "", float64(s.Buffer.Evictions))
	p.family("buffer_flushes_total", "counter", "dirty pages written back by FlushAll")
	p.sample("buffer_flushes_total", "", float64(s.Buffer.Flushes))
	p.family("buffer_hit_ratio", "gauge", "buffer pool hit ratio")
	p.sample("buffer_hit_ratio", "", s.Buffer.HitRatio)

	p.family("mvcc_snapshot_reads_total", "counter", "lock-free fetches and scans by snapshot transactions")
	p.sample("mvcc_snapshot_reads_total", "", float64(s.MVCC.SnapshotReads))
	p.family("mvcc_chain_walks_total", "counter", "version-chain walks past an invisible head")
	p.sample("mvcc_chain_walks_total", "", float64(s.MVCC.ChainWalks))
	p.family("mvcc_reconstructions_total", "counter", "record versions rebuilt from WAL records")
	p.sample("mvcc_reconstructions_total", "", float64(s.MVCC.Reconstructions))
	p.family("mvcc_pruned_total", "counter", "version-chain entries pruned below the oldest snapshot")
	p.sample("mvcc_pruned_total", "", float64(s.MVCC.Pruned))
	p.family("mvcc_frozen_total", "counter", "version chains retired by checkpoint freezes or once every snapshot sees their head")
	p.sample("mvcc_frozen_total", "", float64(s.MVCC.Frozen))

	p.family("lsm_flushes_total", "counter", "LSM memtables sealed into sorted runs")
	p.sample("lsm_flushes_total", "", float64(s.LSM.Flushes))
	p.family("lsm_flushed_entries_total", "counter", "entries moved out of LSM memtables by flushes")
	p.sample("lsm_flushed_entries_total", "", float64(s.LSM.FlushedEntries))
	p.family("lsm_compactions_total", "counter", "LSM run-merge rounds installed")
	p.sample("lsm_compactions_total", "", float64(s.LSM.Compactions))
	p.family("lsm_compacted_runs_total", "counter", "input runs consumed by LSM merges")
	p.sample("lsm_compacted_runs_total", "", float64(s.LSM.CompactedRuns))
	p.family("lsm_tombstones_dropped_total", "counter", "delete markers retired by full-depth LSM merges")
	p.sample("lsm_tombstones_dropped_total", "", float64(s.LSM.TombstonesDropped))
	p.family("lsm_bloom_probes_total", "counter", "runs consulted by LSM direct-by-key lookups")
	p.sample("lsm_bloom_probes_total", "", float64(s.LSM.BloomProbes))
	p.family("lsm_bloom_skips_total", "counter", "runs skipped by their bloom filter")
	p.sample("lsm_bloom_skips_total", "", float64(s.LSM.BloomSkips))
	p.family("lsm_bloom_false_positives_total", "counter", "bloom passes that then found no key")
	p.sample("lsm_bloom_false_positives_total", "", float64(s.LSM.BloomFalsePositives))
	p.family("lsm_memtable_bytes", "gauge", "resident LSM memtable payload bytes")
	p.sample("lsm_memtable_bytes", "", float64(s.LSM.MemtableBytes))
	p.family("lsm_memtable_bytes_max", "gauge", "high-water mark of resident LSM memtable bytes")
	p.sample("lsm_memtable_bytes_max", "", float64(s.LSM.MemtableBytesMax))
	p.family("lsm_runs", "gauge", "resident LSM sorted runs")
	p.sample("lsm_runs", "", float64(s.LSM.Runs))
	p.family("lsm_runs_max", "gauge", "high-water mark of resident LSM sorted runs")
	p.sample("lsm_runs_max", "", float64(s.LSM.RunsMax))

	p.family("txn_commits_total", "counter", "committed transactions by mode")
	p.sample("txn_commits_total", `mode="write"`, float64(s.Txn.CommitsWrite))
	p.sample("txn_commits_total", `mode="readonly"`, float64(s.Txn.CommitsReadOnly))
	p.family("txn_aborts_total", "counter", "aborted transactions (incl. commit failures)")
	p.sample("txn_aborts_total", "", float64(s.Txn.Aborts))
	p.family("txn_lock_wait_nanos_total", "counter", "cumulative per-transaction lock-wait time")
	p.sample("txn_lock_wait_nanos_total", "", float64(s.Txn.LockWaitNanos))
	p.family("txn_wal_bytes_total", "counter", "WAL payload bytes charged to finished transactions")
	p.sample("txn_wal_bytes_total", "", float64(s.Txn.WALBytes))
	p.family("txn_rows_read_total", "counter", "rows returned to finished transactions")
	p.sample("txn_rows_read_total", "", float64(s.Txn.RowsRead))
	p.family("txn_rows_written_total", "counter", "rows modified by finished transactions")
	p.sample("txn_rows_written_total", "", float64(s.Txn.RowsWritten))

	p.family("plan_parallel_scans_total", "counter", "partitioned parallel scans opened by the planner")
	p.sample("plan_parallel_scans_total", "", float64(s.Plan.ParallelScans))
	p.family("plan_hash_joins_total", "counter", "hash joins chosen over nested loops")
	p.sample("plan_hash_joins_total", "", float64(s.Plan.HashJoins))
	p.family("plan_workers", "gauge", "parallel scan/build workers currently running")
	p.sample("plan_workers", "", float64(s.Plan.Workers))
	p.family("plan_workers_max", "gauge", "high-water mark of concurrent parallel workers")
	p.sample("plan_workers_max", "", float64(s.Plan.WorkersMax))
	p.family("plan_worker_rows_total", "counter", "rows produced inside parallel workers")
	p.sample("plan_worker_rows_total", "", float64(s.Plan.WorkerRows))

	p.family("part_routed_reads_total", "counter", "point reads routed to exactly one shard")
	p.sample("part_routed_reads_total", "", float64(s.Part.RoutedReads))
	p.family("part_routed_scans_total", "counter", "single-key scan ranges routed to one shard")
	p.sample("part_routed_scans_total", "", float64(s.Part.RoutedScans))
	p.family("part_scatter_scans_total", "counter", "scans fanned out across every shard")
	p.sample("part_scatter_scans_total", "", float64(s.Part.ScatterScans))
	p.family("part_prepares_total", "counter", "shard prepare requests sent (2PC phase one)")
	p.sample("part_prepares_total", "", float64(s.Part.Prepares))
	p.family("part_commits_total", "counter", "shard commit decisions delivered (2PC phase two)")
	p.sample("part_commits_total", "", float64(s.Part.Commits))
	p.family("part_aborts_total", "counter", "shard abort decisions delivered")
	p.sample("part_aborts_total", "", float64(s.Part.Aborts))
	p.family("part_ack_lost_total", "counter", "shard decision deliveries whose acknowledgement was lost")
	p.sample("part_ack_lost_total", "", float64(s.Part.AckLost))
	p.family("part_resolved_total", "counter", "in-doubt shard transactions resolved at recovery")
	p.sample("part_resolved_total", "", float64(s.Part.Resolved))
	return p.err
}

// promWriter accumulates exposition lines, remembering the first write
// error so callers check once at the end.
type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// family emits the HELP and TYPE header for one metric family.
func (p *promWriter) family(name, typ, help string) {
	p.printf("# HELP %s_%s %s\n", promNamespace, name, help)
	p.printf("# TYPE %s_%s %s\n", promNamespace, name, typ)
}

// sample emits one sample line. labels is the rendered label body
// (`ext="heap",op="insert"`) or empty.
func (p *promWriter) sample(name, labels string, v float64) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	p.printf("%s_%s%s %s\n", promNamespace, name, labels, formatFloat(v))
}

// histogram emits one histogram family: the header plus one body.
func (p *promWriter) histogram(name, help, labels string, h HistogramSnapshot) {
	p.family(name, "histogram", help)
	p.histogramBody(name, labels, h)
}

// vector emits the per-extension dispatch metrics for one procedure
// vector: call/error counters and latency histograms labelled by
// extension and operation, plus veto counters for attachments.
func (p *promWriter) vector(layer, what string, exts []ExtSnapshot, vetoes bool) {
	opsName := layer + "_ops_total"
	errsName := layer + "_op_errors_total"
	latName := layer + "_op_latency_seconds"

	p.family(opsName, "counter", what+" calls")
	for _, e := range exts {
		for _, op := range e.Ops {
			p.sample(opsName, extLabels(e)+`,op="`+escapeLabel(op.Op)+`"`, float64(op.Count))
		}
	}
	p.family(errsName, "counter", what+" call errors")
	for _, e := range exts {
		for _, op := range e.Ops {
			p.sample(errsName, extLabels(e)+`,op="`+escapeLabel(op.Op)+`"`, float64(op.Errors))
		}
	}
	p.family(latName, "histogram", what+" call latency")
	for _, e := range exts {
		for _, op := range e.Ops {
			p.histogramBody(latName, extLabels(e)+`,op="`+escapeLabel(op.Op)+`"`, op.Latency)
		}
	}
	if vetoes {
		name := layer + "_vetoes_total"
		p.family(name, "counter", what+" modifications refused by veto")
		for _, e := range exts {
			if e.Vetoes > 0 {
				p.sample(name, extLabels(e), float64(e.Vetoes))
			}
		}
	}
}

// histogramBody emits the samples of one histogram label set: cumulative
// le buckets in seconds, the +Inf bucket, and _sum/_count. The +Inf
// bucket and _count are both taken from the buckets' own cumulative total
// so the exposition is self-consistent even when the snapshot raced
// concurrent observers. One family header (from histogram or vector) may
// be followed by many bodies, one per label set.
func (p *promWriter) histogramBody(name, labels string, h HistogramSnapshot) {
	pre := ""
	if labels != "" {
		pre = labels + ","
	}
	var cum int64
	for i := 0; i < NumBuckets-1; i++ {
		cum += h.Buckets[i]
		p.sample(name+"_bucket", pre+`le="`+formatFloat(BucketUpper(i).Seconds())+`"`, float64(cum))
	}
	cum += h.Buckets[NumBuckets-1]
	p.sample(name+"_bucket", pre+`le="+Inf"`, float64(cum))
	p.sample(name+"_sum", labels, float64(h.SumNanos)/1e9)
	p.sample(name+"_count", labels, float64(cum))
}

// extLabels renders the identifying labels of one extension entry. The
// numeric procedure-vector identifier is always present; the registered
// name is added when the snapshot carries it.
func extLabels(e ExtSnapshot) string {
	s := `id="` + strconv.Itoa(e.ID) + `"`
	if e.Name != "" {
		s += `,ext="` + escapeLabel(e.Name) + `"`
	}
	return s
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string { return labelEscaper.Replace(v) }

// formatFloat renders a sample value the way Prometheus expects: integers
// without an exponent, everything else in shortest-round-trip form.
func formatFloat(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
