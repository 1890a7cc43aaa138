package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dmx/internal/core"
	"dmx/internal/lock"
)

// epoch anchors every span timestamp: nanoseconds since process start on
// the monotonic clock.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// Transaction classes whose latencies the benchmark reports.
const (
	classRead  = iota // short read-only transactions
	classWrite        // read-write transactions, commit included
	classJoin         // join queries
	classScan         // transactions that visit the whole relation
	numClasses
)

var classNames = [numClasses]string{"read", "write", "join", "scan"}

// span is one timed call into an engine layer, or (Parent -1, name
// "bench.<class>") the transaction that contains such calls.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index into the same client's spans; -1 for none
	Txn    uint64 `json:"txn"`
	Client int    `json:"client"`
}

// layerOf maps a span name to the layer it charges: the text before the
// first dot ("core.fetch" → "core").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// layers are the modules the traced run reports self time for. "bench"
// is the client's own work between calls.
var layers = []string{"bench", "core", "partsm", "remotesm", "txn", "plan", "ddl", "wal"}

// spanCap bounds the spans one client keeps for the span file; the
// per-layer times aggregate every call, recorded or not.
const spanCap = 1 << 17

// recorder holds one client's measurements. It is confined to the
// client's goroutine, so recording needs no synchronisation.
type recorder struct {
	id      int
	tracing bool

	// Traced runs only: the span file's spans, and every call's time.
	spans    []span
	root     int32 // recorded span of the open transaction, or -1
	inTxn    bool
	rootTxn  uint64
	childNs  int64            // time inside calls of the open transaction
	calls    map[string]int64 // calls per span name
	callNs   map[string]int64 // time per span name
	selfNs   map[string]int64 // self time per layer
	callRows map[string]int64 // rows produced by each kind of timed scan call

	txns        []txnRec // committed transactions, in commit order
	attempted   int64
	failed      int64
	rowsRead    int64 // rows returned to committed transactions
	rowsWritten int64 // rows inserted, updated or deleted by committed transactions
	txRead      int64 // rows of the open transaction, credited at commit
	txWritten   int64
	errs        *errorLog
}

func newRecorder(id int, tracing bool, errs *errorLog) *recorder {
	return &recorder{id: id, tracing: tracing, root: -1, errs: errs,
		calls: map[string]int64{}, callNs: map[string]int64{}, selfNs: map[string]int64{}, callRows: map[string]int64{}}
}

// mark starts a timed call; it reads the clock only when tracing.
func (r *recorder) mark() int64 {
	if !r.tracing {
		return 0
	}
	return now()
}

// done closes a timed call started by mark. Calls are leaves: their self
// time is their whole duration.
func (r *recorder) done(name string, start int64) {
	if !r.tracing {
		return
	}
	end := now()
	d := end - start
	r.calls[name]++
	r.callNs[name] += d
	r.selfNs[layerOf(name)] += d
	if r.inTxn {
		r.childNs += d
		if r.root < 0 {
			return
		}
	} else if len(r.spans) >= spanCap {
		return
	}
	r.spans = append(r.spans, span{Name: name, Start: start, End: end, Parent: r.root, Txn: r.rootTxn, Client: r.id})
}

// scanned credits n rows to the named scan call, for its per-row time.
func (r *recorder) scanned(name string, n int64) { r.callRows[name] += n }

// begin opens a transaction attempt and returns its start time.
func (r *recorder) begin() int64 {
	start := now()
	r.txRead, r.txWritten = 0, 0
	if r.tracing {
		r.inTxn, r.childNs, r.rootTxn = true, 0, 0
		r.root = -1
		if len(r.spans) < spanCap {
			r.root = int32(len(r.spans))
			r.spans = append(r.spans, span{Name: "bench.txn", Start: start, Parent: -1, Client: r.id})
		}
	}
	return start
}

// setTxn labels the open transaction's spans with the engine's id.
func (r *recorder) setTxn(id uint64) {
	r.rootTxn = id
	if r.root >= 0 {
		r.spans[r.root].Txn = id
	}
}

// end closes the attempt opened by begin. A committed attempt adds its
// latency to the class; a failed one counts against the workload and
// misses every latency limit.
func (r *recorder) end(class int, start int64, err error) {
	end := now()
	if r.tracing {
		name := "bench." + classNames[class]
		r.calls[name]++
		r.callNs[name] += end - start
		r.selfNs["bench"] += end - start - r.childNs
		if r.root >= 0 {
			r.spans[r.root].End = end
			r.spans[r.root].Name = name
		}
		r.inTxn, r.root, r.rootTxn = false, -1, 0
	}
	r.attempted++
	if err != nil {
		r.failed++
		r.errs.note(err)
		return
	}
	r.txns = append(r.txns, txnRec{lat: end - start, rows: int32(r.txRead + r.txWritten), class: int32(class)})
	r.rowsRead += r.txRead
	r.rowsWritten += r.txWritten
}

// txnRec is one committed transaction: how long it took and how many rows
// it read or wrote.
type txnRec struct {
	lat         int64
	rows, class int32
}

// timedSetups builds a workload's database setupRepeats times, closing
// every build but the last, and returns the last with the median build
// time in seconds.
func timedSetups[T any](build func(n int) (T, error), discard func(T)) (T, float64, error) {
	var db T
	var secs []float64
	for n := 0; n < setupRepeats; n++ {
		if n > 0 {
			discard(db)
		}
		start := time.Now()
		var err error
		if db, err = build(n); err != nil {
			return db, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return db, median(secs), nil
}

// clientLoop is one closed-loop client: it runs transactions until the
// deadline or until stop is set, and returns the error that ends the run.
type clientLoop func(deadline time.Time, stop *atomic.Bool) error

// timedWindow runs each client in its own goroutine for d, stopping the
// others when one fails, and returns the window's length, measured until
// the last client's transaction ended, and the median live heap over it.
func timedWindow(d time.Duration, clients ...clientLoop) (time.Duration, float64, error) {
	heap := startHeapSampler()
	var stop atomic.Bool
	start := time.Now()
	deadline := start.Add(d)
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, loop := range clients {
		wg.Add(1)
		go func(i int, loop clientLoop) {
			defer wg.Done()
			if errs[i] = loop(deadline, &stop); errs[i] != nil {
				stop.Store(true)
			}
		}(i, loop)
	}
	wg.Wait()
	return time.Since(start), heap.medianMB(), errors.Join(errs...)
}

// heapSampler reads the live Go heap, as of the latest collection, every
// 100ms of the window; heap_mb is the median reading. Reading it after
// the run instead would measure whatever log tail and version chains the
// last checkpoint happened to leave.
type heapSampler struct {
	stop, done chan struct{}
	mb         []float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				metrics.Read(live)
				h.mb = append(h.mb, float64(live[0].Value.Uint64())/(1<<20))
			}
		}
	}()
	return h
}

// medianMB stops the sampler and returns its median reading.
func (h *heapSampler) medianMB() float64 {
	close(h.stop)
	<-h.done
	return median(h.mb)
}

// mixer deals transaction kinds in blocks shuffled by the seed, so every
// run executes its mix in exact proportion rather than a random draw of
// it: on sharded, where 5% of transactions take most of the time, a
// binomial draw alone moved throughput by several percent between seeds.
type mixer struct {
	rng   *rand.Rand
	block []int
	i     int
}

// newMixer deals counts[k] transactions of kind k per block.
func newMixer(rng *rand.Rand, counts ...int) *mixer {
	m := &mixer{rng: rng}
	for kind, n := range counts {
		for j := 0; j < n; j++ {
			m.block = append(m.block, kind)
		}
	}
	m.i = len(m.block)
	return m
}

func (m *mixer) next() int {
	if m.i == len(m.block) {
		m.rng.Shuffle(len(m.block), func(a, b int) { m.block[a], m.block[b] = m.block[b], m.block[a] })
		m.i = 0
	}
	m.i++
	return m.block[m.i-1]
}

// errorLog writes the first error of each kind to the run's log.
type errorLog struct {
	mu   sync.Mutex
	w    io.Writer
	seen map[string]bool
}

func newErrorLog(w io.Writer) *errorLog {
	return &errorLog{w: w, seen: map[string]bool{}}
}

func errorKind(err error) string {
	switch {
	case errors.Is(err, lock.ErrDeadlock):
		return "deadlock"
	case errors.Is(err, core.ErrCheckpointBusy):
		return "checkpoint_busy"
	default:
		return "error"
	}
}

func (l *errorLog) note(err error) {
	kind := errorKind(err)
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.seen[kind] {
		l.seen[kind] = true
		fmt.Fprintf(l.w, "perfbench: first %s: %v\n", kind, err)
	}
}

// checkError is a wrong answer from the engine: it fails the workload.
type checkError struct{ msg string }

func (e *checkError) Error() string { return "check failed: " + e.msg }

func checkf(format string, args ...any) error {
	return &checkError{msg: fmt.Sprintf(format, args...)}
}

// isCheck reports whether err is a failed output check.
func isCheck(err error) bool {
	var ce *checkError
	return errors.As(err, &ce)
}

// quantile is the nearest-rank q-quantile of sorted samples (0 if empty).
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[min(max(rank, 0), len(sorted)-1)])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// run is the merged outcome of a workload's clients.
type run struct {
	recs   []*recorder
	window time.Duration
}

func (rn *run) committed() int64 {
	var n int64
	for _, r := range rn.recs {
		n += int64(len(r.txns))
	}
	return n
}

func (rn *run) totals() (attempted, failed, rows int64) {
	for _, r := range rn.recs {
		attempted += r.attempted
		failed += r.failed
		rows += r.rowsRead + r.rowsWritten
	}
	return
}

// latencies returns the sorted latencies of one class.
func latencies(txns []txnRec, class int) []int64 {
	var all []int64
	for _, t := range txns {
		if int(t.class) == class {
			all = append(all, t.lat)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

// endToEnd fills the throughput and latency metrics of the window.
func (rn *run) endToEnd(m map[string]float64) {
	var all []txnRec
	for _, r := range rn.recs {
		all = append(all, r.txns...)
	}
	attempted, failed, rows := rn.totals()
	m["txn_per_s"] = float64(len(all)) / rn.window.Seconds()
	m["rows_per_s"] = float64(rows) / rn.window.Seconds()
	for _, q := range []struct {
		class int
		p     float64
	}{{classRead, 0.50}, {classRead, 0.99}, {classWrite, 0.50}, {classWrite, 0.99}, {classJoin, 0.50}, {classScan, 0.50}, {classScan, 0.90}} {
		m[fmt.Sprintf("%s_p%02.0f_us", classNames[q.class], q.p*100)] = quantile(latencies(all, q.class), q.p) / 1e3
	}
	m["fail_frac"] = ratio(float64(failed), float64(attempted))
}

// spanStats merges the clients' traced-call aggregates: calls and time
// per span name, self time per layer, and rows per scan call.
type spanStats struct {
	count, totalNs, selfNs, rows map[string]int64
}

func mergeStats(recs []*recorder) spanStats {
	st := spanStats{count: map[string]int64{}, totalNs: map[string]int64{}, selfNs: map[string]int64{}, rows: map[string]int64{}}
	for _, r := range recs {
		for k, v := range r.calls {
			st.count[k] += v
		}
		for k, v := range r.callNs {
			st.totalNs[k] += v
		}
		for k, v := range r.selfNs {
			st.selfNs[k] += v
		}
		for k, v := range r.callRows {
			st.rows[k] += v
		}
	}
	return st
}

// meanUs is the mean duration of the named call, in microseconds.
func (st spanStats) meanUs(name string) float64 {
	return ratio(float64(st.totalNs[name]), float64(st.count[name])) / 1e3
}

// perLayer fills the span-derived metrics: self time per layer per
// committed transaction and the tracer's own overhead.
func (st spanStats) perLayer(m map[string]float64, rn *run, spanCostNs float64) {
	txns := float64(rn.committed())
	for _, l := range layers {
		m["self."+l+"_us_per_txn"] = ratio(float64(st.selfNs[l]), txns) / 1e3
	}
	var spans int64
	for _, n := range st.count {
		spans += n
	}
	m["trace.spans_per_txn"] = ratio(float64(spans), txns)
	clientNs := float64(rn.window.Nanoseconds()) * float64(len(rn.recs))
	m["trace.overhead_frac"] = float64(spans) * spanCostNs / clientNs
}

// spanCost measures what timing one call costs a traced run: two clock
// reads, the aggregates, and a recorded span.
func spanCost() float64 {
	const n = 100_000
	r := newRecorder(0, true, nil)
	start := time.Now()
	for i := 0; i < n; i++ {
		r.done("core.fetch", r.mark())
	}
	return float64(time.Since(start).Nanoseconds()) / n
}

// writeSpans writes every span as one JSON line.
func writeSpans(path string, recs []*recorder) error {
	if path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range recs {
		for _, s := range r.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
