// Package obs is the engine-wide observability layer.
//
// The extension architecture funnels every storage-method and attachment
// call through a handful of dispatch points, which makes uniform
// instrumentation cheap. Each call is recorded in one OpStat cell: the
// relation's own cell for a storage method, or, for an attachment, a cell
// of a vector indexed by the same small-integer identifiers as the
// procedure vectors. Recording a sample is an array index plus a few
// atomic adds: no locks, no allocation, safe under any concurrency.
//
// The package deliberately knows nothing about the engine: the common
// services (core dispatch, lock manager, recovery log, buffer pool) each
// hold a pointer into a shared Engine and record into it; Engine.Snapshot
// materialises everything into plain JSON-marshalable structs.
package obs

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// MaxExt is the width of the per-extension metric vectors. It matches the
// procedure-vector width (core.MaxStorageMethods / MaxAttachmentTypes).
const MaxExt = 32

// Op identifies a generic operation for per-operation metric keying.
type Op uint8

// Generic operations, mirroring the dispatch points of the architecture.
const (
	OpInsert Op = iota
	OpUpdate
	OpDelete
	OpFetch  // direct-by-key access
	OpScan   // key-sequential access opened
	OpLookup // access-path key lookup
	NumOps
)

// String returns the operation name.
func (o Op) String() string {
	switch o {
	case OpInsert:
		return "insert"
	case OpUpdate:
		return "update"
	case OpDelete:
		return "delete"
	case OpFetch:
		return "fetch"
	case OpScan:
		return "scan"
	case OpLookup:
		return "lookup"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Counter is a lock-free monotonic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a lock-free up/down gauge that also tracks its high-water mark.
type Gauge struct {
	v   atomic.Int64
	max atomic.Int64
}

// Inc raises the gauge, updating the high-water mark. The mark is
// maintained by a CAS loop over the value returned by the counter add, so
// concurrent Incs cannot lose a peak: every thread retries until the mark
// is at least the value it personally observed, and the mark ends at the
// largest value any thread saw.
func (g *Gauge) Inc() {
	n := g.v.Add(1)
	for {
		m := g.max.Load()
		if n <= m || g.max.CompareAndSwap(m, n) {
			return
		}
	}
}

// Dec lowers the gauge.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add moves the gauge by d (either direction), maintaining the high-water
// mark with the same CAS loop as Inc when the move raises the value.
func (g *Gauge) Add(d int64) {
	n := g.v.Add(d)
	if d <= 0 {
		return
	}
	for {
		m := g.max.Load()
		if n <= m || g.max.CompareAndSwap(m, n) {
			return
		}
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Max returns the high-water mark. The value and the mark are two atomics,
// so between a thread's Add and its CAS there is a window where the stored
// mark trails the live value; the current value is itself a lower bound on
// the true peak, so Max folds it in rather than reporting Max < Load.
func (g *Gauge) Max() int64 {
	m := g.max.Load()
	if v := g.v.Load(); v > m {
		return v
	}
	return m
}

// NumBuckets is the number of latency histogram buckets. Bucket i counts
// observations below BucketUpper(i); the last bucket is the overflow.
const NumBuckets = 22

// bucketBase is the upper bound of bucket 0 in nanoseconds; bounds double
// per bucket (256ns, 512ns, ... ~268ms), the final bucket is unbounded.
const bucketBase = 256

// BucketUpper returns the exclusive upper bound of bucket i (the last
// bucket has no bound and reports a zero duration).
func BucketUpper(i int) time.Duration {
	if i >= NumBuckets-1 {
		return 0
	}
	return time.Duration(bucketBase << uint(i))
}

// bucketFor maps a duration to its bucket index.
func bucketFor(d time.Duration) int {
	n := d.Nanoseconds()
	for i := 0; i < NumBuckets-1; i++ {
		if n < int64(bucketBase<<uint(i)) {
			return i
		}
	}
	return NumBuckets - 1
}

// Histogram is a lock-free latency histogram with exponential buckets.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	max     atomic.Int64 // nanoseconds
	buckets [NumBuckets]atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	n := d.Nanoseconds()
	h.count.Add(1)
	h.sum.Add(n)
	for {
		m := h.max.Load()
		if n <= m || h.max.CompareAndSwap(m, n) {
			break
		}
	}
	h.buckets[bucketFor(d)].Add(1)
}

// Snapshot materialises the histogram. Buckets are read without a global
// lock, so a snapshot taken under concurrent writes is approximate (each
// individual value is still consistent).
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:    h.count.Load(),
		SumNanos: h.sum.Load(),
		MaxNanos: h.max.Load(),
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistogramSnapshot is a plain-struct view of a Histogram.
type HistogramSnapshot struct {
	Count    int64             `json:"count"`
	SumNanos int64             `json:"sum_ns"`
	MaxNanos int64             `json:"max_ns"`
	Buckets  [NumBuckets]int64 `json:"buckets"`
}

// Mean returns the mean observed duration (0 when empty).
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNanos / s.Count)
}

// Quantile returns an upper bound for the q-quantile from the bucket
// boundaries; the overflow bucket reports the observed maximum. q is
// clamped to [0, 1]. An empty histogram reports 0. q=0 reports the bound
// of the smallest populated bucket, q=1 the bound of the largest — so on
// a single-bucket snapshot every quantile reports that bucket's bound.
// The target rank is the ceiling of q·Count (inverse CDF): on 3 samples,
// q=0.5 means "the 2nd", not "the 1st".
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(s.Count)))
	if target < 1 {
		target = 1
	}
	if target > s.Count {
		target = s.Count
	}
	var cum int64
	for i := 0; i < NumBuckets; i++ {
		cum += s.Buckets[i]
		if cum >= target {
			if i == NumBuckets-1 {
				return time.Duration(s.MaxNanos)
			}
			return BucketUpper(i)
		}
	}
	return time.Duration(s.MaxNanos)
}

// OpStat is one (extension, operation) cell: an error count and a latency
// histogram whose observation count is the call count.
type OpStat struct {
	Errors  Counter
	Latency Histogram
}

// Observe records one dispatched call.
func (s *OpStat) Observe(d time.Duration, failed bool) {
	if failed {
		s.Errors.Inc()
	}
	s.Latency.Observe(d)
}

// Merge folds the calls recorded in o into s: counts, errors, sums and
// buckets add, and the maximum is the larger of the two.
func (s *OpStat) Merge(o *OpStat) {
	s.Errors.Add(o.Errors.Load())
	h := &s.Latency
	h.count.Add(o.Latency.count.Load())
	h.sum.Add(o.Latency.sum.Load())
	if m := o.Latency.max.Load(); m > h.max.Load() {
		h.max.Store(m)
	}
	for i := range h.buckets {
		h.buckets[i].Add(o.Latency.buckets[i].Load())
	}
}

// Vector is a per-extension-ID × per-operation stat table, indexed exactly
// like the architecture's procedure vectors.
type Vector struct {
	stats [MaxExt][NumOps]OpStat
}

// Observe records one dispatched call for extension id.
func (v *Vector) Observe(id int, op Op, d time.Duration, failed bool) {
	if id < 0 || id >= MaxExt || op >= NumOps {
		return
	}
	v.stats[id][op].Observe(d, failed)
}

// Merge folds s into the cell for (id, op); out-of-range cells are
// dropped. Merge builds a vector view out of stats kept elsewhere and is
// not meant to race other writers of the cell.
func (v *Vector) Merge(id int, op Op, s *OpStat) {
	if id < 0 || id >= MaxExt || op >= NumOps {
		return
	}
	v.stats[id][op].Merge(s)
}

// Snapshot materialises the vector: one entry per identifier with
// recorded calls (or, given vetoes, recorded vetoes).
func (v *Vector) Snapshot(vetoes *[MaxExt]Counter) []ExtSnapshot {
	var out []ExtSnapshot
	for id := 0; id < MaxExt; id++ {
		var es ExtSnapshot
		es.ID = id
		for op := Op(0); op < NumOps; op++ {
			cell := &v.stats[id][op]
			h := cell.Latency.Snapshot()
			if h.Count == 0 {
				continue
			}
			es.Ops = append(es.Ops, OpSnapshot{
				Op:      op.String(),
				Count:   h.Count,
				Errors:  cell.Errors.Load(),
				Latency: h,
			})
		}
		if vetoes != nil {
			es.Vetoes = vetoes[id].Load()
		}
		if len(es.Ops) > 0 || es.Vetoes > 0 {
			out = append(out, es)
		}
	}
	return out
}

// LockStats instruments the common lock manager.
type LockStats struct {
	Requests  Counter   // Acquire and TryAcquire calls
	Waits     Counter   // requests that blocked
	WaitTime  Histogram // time spent blocked
	Deadlocks Counter   // requests refused as deadlock victims
	Queue     Gauge     // transactions currently blocked (with high-water mark)
}

// WALStats instruments the common recovery log.
type WALStats struct {
	Appends      Counter // log records written
	AppendBytes  Counter // payload bytes appended
	Syncs        Counter // backing-file fsyncs
	Rollbacks    Counter // log-driven rollbacks (veto, savepoint, abort)
	Checkpoints  Counter // completed checkpoints (snapshot + truncation)
	RedoRecords  Counter // records dispatched to redo during restart recovery
	GroupCommits Counter // commit syncs served (leader or batched follower)
	GroupBatches Counter // fsync rounds driven by the group-commit leader
	ForcedSyncs  Counter // WAL-before-data forces from the buffer pool
}

// BufferStats instruments the shared buffer pool.
type BufferStats struct {
	Hits      Counter
	Misses    Counter
	Evictions Counter
	Flushes   Counter // dirty pages written back by FlushAll
}

// MVCCStats instruments snapshot reads over versioned storage.
type MVCCStats struct {
	SnapshotReads   Counter // lock-free fetches and scans opened by snapshot transactions
	ChainWalks      Counter // version-chain walks past an invisible head
	Reconstructions Counter // record versions rebuilt from WAL records
	Pruned          Counter // chain entries dropped below the oldest-snapshot horizon
	Frozen          Counter // chains retired by checkpoint freezes or once every snapshot sees their head
}

// LSMStats instruments the tiered-ingest (LSM) storage method: memtable
// lifecycle, run merges, and bloom-filter effectiveness. The gauges
// aggregate across every LSM relation in the environment.
type LSMStats struct {
	Flushes             Counter // memtables sealed into sorted runs
	FlushedEntries      Counter // entries moved out of memtables by flushes
	Compactions         Counter // merge rounds installed
	CompactedRuns       Counter // input runs consumed by merges
	TombstonesDropped   Counter // delete markers retired by full-depth merges
	BloomProbes         Counter // runs consulted by direct-by-key lookups
	BloomSkips          Counter // runs skipped by their bloom filter
	BloomFalsePositives Counter // bloom passes that then found no key
	MemtableBytes       Gauge   // resident memtable payload bytes (with high-water)
	Runs                Gauge   // resident sorted runs (with high-water)
}

// PlanStats instruments the query planner's parallel execution: how often
// the cost model picked a partitioned parallel scan or a hash join, and
// worker-goroutine utilization (current and high-water).
type PlanStats struct {
	ParallelScans Counter // partitioned parallel scans opened
	HashJoins     Counter // hash joins chosen over nested loops
	Workers       Gauge   // scan/build workers currently running (with high-water)
	WorkerRows    Counter // rows produced inside parallel workers
}

// TxnStats are the transaction-lifecycle rollups fed by the transaction
// manager as each transaction finishes: outcome counts by mode plus the
// engine-wide totals of the per-transaction resource ledgers.
type TxnStats struct {
	CommitsWrite    Counter // committed write transactions
	CommitsReadOnly Counter // committed read-only snapshot transactions
	Aborts          Counter // aborted transactions (incl. commit failures)
	LockWaitNanos   Counter // cumulative lock-wait time across finished txns
	WALBytes        Counter // cumulative WAL payload bytes across finished txns
	RowsRead        Counter // rows returned to finished txns
	RowsWritten     Counter // rows modified by finished txns
}

// PartStats instruments the partitioned storage method: request routing
// (single-shard point ops vs scatter-gather scans) and the two-phase
// commit protocol driving multi-shard transactions.
type PartStats struct {
	RoutedReads  Counter // point reads routed to exactly one shard
	RoutedScans  Counter // single-key scan ranges routed to one shard
	ScatterScans Counter // scans fanned out across every shard
	Prepares     Counter // shard prepare requests sent (phase one)
	Commits      Counter // shard commit decisions delivered (phase two)
	Aborts       Counter // shard abort decisions delivered
	AckLost      Counter // decision deliveries whose acknowledgement was lost
	Resolved     Counter // in-doubt shard transactions resolved at recovery
}

// Engine aggregates every component's metrics into one registry. All
// fields are recorded into concurrently without locks. Storage-method
// dispatch has no vector here: each relation keeps its own calls, and the
// engine view merges them by storage method (core.Env.MetricsSnapshot).
type Engine struct {
	Att       Vector // attachment dispatch, indexed by attachment-type identifier
	AttVetoes [MaxExt]Counter
	Lock      LockStats
	WAL       WALStats
	Buffer    BufferStats
	MVCC      MVCCStats
	LSM       LSMStats
	Plan      PlanStats
	Txn       TxnStats
	Part      PartStats
}

// NewEngine returns a fresh engine metric registry.
func NewEngine() *Engine { return &Engine{} }

// Snapshot is the JSON-marshalable view of an Engine. Extension entries
// appear only for identifiers with recorded activity. Engine.Snapshot
// leaves SM empty; core.Env.MetricsSnapshot fills it.
type Snapshot struct {
	SM     []ExtSnapshot  `json:"storage_methods"`
	Att    []ExtSnapshot  `json:"attachments"`
	Lock   LockSnapshot   `json:"lock"`
	WAL    WALSnapshot    `json:"wal"`
	Buffer BufferSnapshot `json:"buffer"`
	MVCC   MVCCSnapshot   `json:"mvcc"`
	LSM    LSMSnapshot    `json:"lsm"`
	Plan   PlanSnapshot   `json:"plan"`
	Txn    TxnSnapshot    `json:"txn"`
	Part   PartSnapshot   `json:"part"`
}

// ExtSnapshot is the per-extension view: one entry per operation with
// recorded calls. Name is filled in by the caller (the registry that maps
// identifiers to extension names lives above this package).
type ExtSnapshot struct {
	ID     int          `json:"id"`
	Name   string       `json:"name,omitempty"`
	Ops    []OpSnapshot `json:"ops"`
	Vetoes int64        `json:"vetoes,omitempty"`
}

// OpSnapshot is one (extension, operation) cell.
type OpSnapshot struct {
	Op      string            `json:"op"`
	Count   int64             `json:"count"`
	Errors  int64             `json:"errors,omitempty"`
	Latency HistogramSnapshot `json:"latency"`
}

// LockSnapshot is the lock-manager view.
type LockSnapshot struct {
	Requests      int64             `json:"requests"`
	Waits         int64             `json:"waits"`
	Deadlocks     int64             `json:"deadlocks"`
	Waiting       int64             `json:"waiting"`
	MaxQueueDepth int64             `json:"max_queue_depth"`
	WaitTime      HistogramSnapshot `json:"wait_time"`
}

// WALSnapshot is the recovery-log view. CommitsPerFsync is the group-commit
// batching ratio: commit syncs served per leader fsync round (> 1 means
// concurrent commits shared fsyncs).
type WALSnapshot struct {
	Appends         int64   `json:"appends"`
	AppendBytes     int64   `json:"append_bytes"`
	Syncs           int64   `json:"syncs"`
	Rollbacks       int64   `json:"rollbacks"`
	Checkpoints     int64   `json:"checkpoints"`
	RedoRecords     int64   `json:"redo_records"`
	GroupCommits    int64   `json:"group_commits"`
	GroupBatches    int64   `json:"group_batches"`
	ForcedSyncs     int64   `json:"forced_syncs"`
	CommitsPerFsync float64 `json:"commits_per_fsync"`
}

// MVCCSnapshot is the snapshot-read view.
type MVCCSnapshot struct {
	SnapshotReads   int64 `json:"snapshot_reads"`
	ChainWalks      int64 `json:"chain_walks"`
	Reconstructions int64 `json:"reconstructions"`
	Pruned          int64 `json:"pruned"`
	Frozen          int64 `json:"frozen"`
}

// LSMSnapshot is the tiered-ingest storage-method view. BloomSkipRatio is
// the fraction of per-run probes the filters answered without a search.
type LSMSnapshot struct {
	Flushes             int64   `json:"flushes"`
	FlushedEntries      int64   `json:"flushed_entries"`
	Compactions         int64   `json:"compactions"`
	CompactedRuns       int64   `json:"compacted_runs"`
	TombstonesDropped   int64   `json:"tombstones_dropped"`
	BloomProbes         int64   `json:"bloom_probes"`
	BloomSkips          int64   `json:"bloom_skips"`
	BloomFalsePositives int64   `json:"bloom_false_positives"`
	BloomSkipRatio      float64 `json:"bloom_skip_ratio"`
	MemtableBytes       int64   `json:"memtable_bytes"`
	MemtableBytesMax    int64   `json:"memtable_bytes_max"`
	Runs                int64   `json:"runs"`
	RunsMax             int64   `json:"runs_max"`
}

// PlanSnapshot is the parallel-execution view of the query planner.
type PlanSnapshot struct {
	ParallelScans int64 `json:"parallel_scans"`
	HashJoins     int64 `json:"hash_joins"`
	Workers       int64 `json:"workers"`
	WorkersMax    int64 `json:"workers_max"`
	WorkerRows    int64 `json:"worker_rows"`
}

// TxnSnapshot is the transaction-lifecycle view.
type TxnSnapshot struct {
	CommitsWrite    int64 `json:"commits_write"`
	CommitsReadOnly int64 `json:"commits_readonly"`
	Aborts          int64 `json:"aborts"`
	LockWaitNanos   int64 `json:"lock_wait_nanos"`
	WALBytes        int64 `json:"wal_bytes"`
	RowsRead        int64 `json:"rows_read"`
	RowsWritten     int64 `json:"rows_written"`
}

// PartSnapshot is the partitioned storage-method view.
type PartSnapshot struct {
	RoutedReads  int64 `json:"routed_reads"`
	RoutedScans  int64 `json:"routed_scans"`
	ScatterScans int64 `json:"scatter_scans"`
	Prepares     int64 `json:"prepares"`
	Commits      int64 `json:"commits"`
	Aborts       int64 `json:"aborts"`
	AckLost      int64 `json:"ack_lost"`
	Resolved     int64 `json:"resolved"`
}

// BufferSnapshot is the buffer-pool view.
type BufferSnapshot struct {
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Evictions int64   `json:"evictions"`
	Flushes   int64   `json:"flushes"`
	HitRatio  float64 `json:"hit_ratio"`
}

// Snapshot materialises the engine's metrics. It is safe to call under
// concurrent recording; the result is a consistent-enough point-in-time
// view (individual values are exact, cross-value skew is possible).
func (e *Engine) Snapshot() Snapshot {
	hits, misses := e.Buffer.Hits.Load(), e.Buffer.Misses.Load()
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	commitsPerFsync := 0.0
	if b := e.WAL.GroupBatches.Load(); b > 0 {
		commitsPerFsync = float64(e.WAL.GroupCommits.Load()) / float64(b)
	}
	bloomSkipRatio := 0.0
	if probes := e.LSM.BloomProbes.Load(); probes > 0 {
		bloomSkipRatio = float64(e.LSM.BloomSkips.Load()) / float64(probes)
	}
	return Snapshot{
		Att: e.Att.Snapshot(&e.AttVetoes),
		Lock: LockSnapshot{
			Requests:      e.Lock.Requests.Load(),
			Waits:         e.Lock.Waits.Load(),
			Deadlocks:     e.Lock.Deadlocks.Load(),
			Waiting:       e.Lock.Queue.Load(),
			MaxQueueDepth: e.Lock.Queue.Max(),
			WaitTime:      e.Lock.WaitTime.Snapshot(),
		},
		WAL: WALSnapshot{
			Appends:         e.WAL.Appends.Load(),
			AppendBytes:     e.WAL.AppendBytes.Load(),
			Syncs:           e.WAL.Syncs.Load(),
			Rollbacks:       e.WAL.Rollbacks.Load(),
			Checkpoints:     e.WAL.Checkpoints.Load(),
			RedoRecords:     e.WAL.RedoRecords.Load(),
			GroupCommits:    e.WAL.GroupCommits.Load(),
			GroupBatches:    e.WAL.GroupBatches.Load(),
			ForcedSyncs:     e.WAL.ForcedSyncs.Load(),
			CommitsPerFsync: commitsPerFsync,
		},
		Buffer: BufferSnapshot{
			Hits:      hits,
			Misses:    misses,
			Evictions: e.Buffer.Evictions.Load(),
			Flushes:   e.Buffer.Flushes.Load(),
			HitRatio:  ratio,
		},
		MVCC: MVCCSnapshot{
			SnapshotReads:   e.MVCC.SnapshotReads.Load(),
			ChainWalks:      e.MVCC.ChainWalks.Load(),
			Reconstructions: e.MVCC.Reconstructions.Load(),
			Pruned:          e.MVCC.Pruned.Load(),
			Frozen:          e.MVCC.Frozen.Load(),
		},
		LSM: LSMSnapshot{
			Flushes:             e.LSM.Flushes.Load(),
			FlushedEntries:      e.LSM.FlushedEntries.Load(),
			Compactions:         e.LSM.Compactions.Load(),
			CompactedRuns:       e.LSM.CompactedRuns.Load(),
			TombstonesDropped:   e.LSM.TombstonesDropped.Load(),
			BloomProbes:         e.LSM.BloomProbes.Load(),
			BloomSkips:          e.LSM.BloomSkips.Load(),
			BloomFalsePositives: e.LSM.BloomFalsePositives.Load(),
			BloomSkipRatio:      bloomSkipRatio,
			MemtableBytes:       e.LSM.MemtableBytes.Load(),
			MemtableBytesMax:    e.LSM.MemtableBytes.Max(),
			Runs:                e.LSM.Runs.Load(),
			RunsMax:             e.LSM.Runs.Max(),
		},
		Plan: PlanSnapshot{
			ParallelScans: e.Plan.ParallelScans.Load(),
			HashJoins:     e.Plan.HashJoins.Load(),
			Workers:       e.Plan.Workers.Load(),
			WorkersMax:    e.Plan.Workers.Max(),
			WorkerRows:    e.Plan.WorkerRows.Load(),
		},
		Txn: TxnSnapshot{
			CommitsWrite:    e.Txn.CommitsWrite.Load(),
			CommitsReadOnly: e.Txn.CommitsReadOnly.Load(),
			Aborts:          e.Txn.Aborts.Load(),
			LockWaitNanos:   e.Txn.LockWaitNanos.Load(),
			WALBytes:        e.Txn.WALBytes.Load(),
			RowsRead:        e.Txn.RowsRead.Load(),
			RowsWritten:     e.Txn.RowsWritten.Load(),
		},
		Part: PartSnapshot{
			RoutedReads:  e.Part.RoutedReads.Load(),
			RoutedScans:  e.Part.RoutedScans.Load(),
			ScatterScans: e.Part.ScatterScans.Load(),
			Prepares:     e.Part.Prepares.Load(),
			Commits:      e.Part.Commits.Load(),
			Aborts:       e.Part.Aborts.Load(),
			AckLost:      e.Part.AckLost.Load(),
			Resolved:     e.Part.Resolved.Load(),
		},
	}
}
