package obs

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Observe(100 * time.Nanosecond) // bucket 0 (< 256ns)
	h.Observe(300 * time.Nanosecond) // bucket 1 (< 512ns)
	h.Observe(time.Millisecond)      // well past the first buckets
	h.Observe(time.Hour)             // overflow bucket

	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Buckets[0] != 1 || s.Buckets[1] != 1 {
		t.Fatalf("low buckets = %d, %d", s.Buckets[0], s.Buckets[1])
	}
	if s.Buckets[NumBuckets-1] != 1 {
		t.Fatalf("overflow bucket = %d", s.Buckets[NumBuckets-1])
	}
	if s.MaxNanos != time.Hour.Nanoseconds() {
		t.Fatalf("max = %d", s.MaxNanos)
	}
	if got := s.Mean(); got <= 0 {
		t.Fatalf("mean = %v", got)
	}
	if q := s.Quantile(0.5); q <= 0 {
		t.Fatalf("p50 = %v", q)
	}
	if q := s.Quantile(1.0); q != time.Duration(s.MaxNanos) {
		t.Fatalf("p100 = %v, want max %v", q, time.Duration(s.MaxNanos))
	}
}

func TestBucketUpperMonotone(t *testing.T) {
	prev := time.Duration(0)
	for i := 0; i < NumBuckets-1; i++ {
		u := BucketUpper(i)
		if u <= prev {
			t.Fatalf("bucket %d upper %v not increasing past %v", i, u, prev)
		}
		prev = u
	}
	if BucketUpper(NumBuckets-1) != 0 {
		t.Fatal("overflow bucket should report no bound")
	}
}

func TestVectorObserveAndSnapshot(t *testing.T) {
	e := NewEngine()
	var sm Vector
	sm.Observe(3, OpInsert, time.Microsecond, false)
	sm.Observe(3, OpInsert, 2*time.Microsecond, true)
	sm.Observe(5, OpScan, time.Microsecond, false)
	e.Att.Observe(2, OpUpdate, time.Microsecond, false)
	e.AttVetoes[2].Inc()
	// Out-of-range ids are dropped, not panics.
	sm.Observe(-1, OpInsert, 0, false)
	sm.Observe(MaxExt, OpInsert, 0, false)
	sm.Observe(0, NumOps, 0, false)

	snap := e.Snapshot()
	snap.SM = sm.Snapshot(nil)
	if len(snap.SM) != 2 {
		t.Fatalf("SM entries = %d, want 2", len(snap.SM))
	}
	if snap.SM[0].ID != 3 || snap.SM[0].Ops[0].Count != 2 || snap.SM[0].Ops[0].Errors != 1 {
		t.Fatalf("SM[3] = %+v", snap.SM[0])
	}
	if len(snap.Att) != 1 || snap.Att[0].ID != 2 || snap.Att[0].Vetoes != 1 {
		t.Fatalf("Att = %+v", snap.Att)
	}
}

func TestSnapshotJSON(t *testing.T) {
	e := NewEngine()
	var sm Vector
	sm.Observe(1, OpInsert, time.Microsecond, false)
	e.Lock.Requests.Inc()
	e.Buffer.Hits.Add(3)
	e.Buffer.Misses.Inc()
	snap := e.Snapshot()
	snap.SM = sm.Snapshot(nil)
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Buffer.HitRatio != 0.75 {
		t.Fatalf("hit ratio = %v", back.Buffer.HitRatio)
	}
	if len(back.SM) != 1 || back.SM[0].Ops[0].Op != "insert" {
		t.Fatalf("round trip lost data: %s", data)
	}
}

func TestGaugeHighWaterMark(t *testing.T) {
	var g Gauge
	g.Inc()
	g.Inc()
	g.Dec()
	g.Inc()
	if g.Load() != 2 || g.Max() != 2 {
		t.Fatalf("load=%d max=%d", g.Load(), g.Max())
	}
}

// TestGaugeAddHighWaterMark covers the batched-delta path: positive
// deltas advance the mark to the post-add value, negative deltas never
// move it.
func TestGaugeAddHighWaterMark(t *testing.T) {
	var g Gauge
	g.Add(100)
	g.Add(-40)
	g.Add(30)
	if g.Load() != 90 || g.Max() != 100 {
		t.Fatalf("load=%d max=%d, want 90/100", g.Load(), g.Max())
	}
	g.Add(20)
	if g.Load() != 110 || g.Max() != 110 {
		t.Fatalf("load=%d max=%d, want 110/110", g.Load(), g.Max())
	}
	g.Add(-110)
	if g.Load() != 0 || g.Max() != 110 {
		t.Fatalf("load=%d max=%d, want 0/110", g.Load(), g.Max())
	}
}

// TestGaugeConcurrentHighWaterMark is the lost-max regression test: all
// workers raise the gauge to its peak before any lowers it, so the exact
// peak is known and a racy high-water update would under-report it.
func TestGaugeConcurrentHighWaterMark(t *testing.T) {
	const workers = 16
	for round := 0; round < 200; round++ {
		var g Gauge
		var up, down sync.WaitGroup
		up.Add(workers)
		down.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				g.Inc()
				up.Done()
				up.Wait() // barrier: every Inc lands before any Dec
				g.Dec()
				down.Done()
			}()
		}
		down.Wait()
		if m := g.Max(); m != workers {
			t.Fatalf("round %d: max = %d, want %d", round, m, workers)
		}
		if v := g.Load(); v != 0 {
			t.Fatalf("round %d: load = %d, want 0", round, v)
		}
	}
}

// TestGaugeMaxNeverTrailsLoad locks in the Max >= Load invariant: the
// value add and the mark CAS are separate atomics, and a reader landing
// between them must not see the mark below the live value.
func TestGaugeMaxNeverTrailsLoad(t *testing.T) {
	var g Gauge
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					g.Inc()
					g.Dec()
				}
			}
		}()
	}
	for i := 0; i < 100000; i++ {
		// Load then Max: the gauge can only have grown in between, which
		// never breaks the invariant, while the reverse order would race
		// benignly and mask a real regression.
		v := g.Load()
		if m := g.Max(); m < v {
			close(stop)
			wg.Wait()
			t.Fatalf("max %d < load %d", m, v)
		}
	}
	close(stop)
	wg.Wait()
}

func TestQuantileEdgeCases(t *testing.T) {
	empty := HistogramSnapshot{}

	var single Histogram
	single.Observe(300 * time.Nanosecond) // bucket 1, upper bound 512ns
	singleSnap := single.Snapshot()

	var overflowOnly Histogram
	overflowOnly.Observe(time.Hour) // overflow bucket only
	overflowSnap := overflowOnly.Snapshot()

	var three Histogram
	three.Observe(100 * time.Nanosecond) // bucket 0, upper 256ns
	three.Observe(300 * time.Nanosecond) // bucket 1, upper 512ns
	three.Observe(700 * time.Nanosecond) // bucket 2, upper 1024ns
	threeSnap := three.Snapshot()

	cases := []struct {
		name string
		s    HistogramSnapshot
		q    float64
		want time.Duration
	}{
		{"empty q=0", empty, 0, 0},
		{"empty q=0.5", empty, 0.5, 0},
		{"empty q=1", empty, 1, 0},
		{"single q=0", singleSnap, 0, 512 * time.Nanosecond},
		{"single q=0.5", singleSnap, 0.5, 512 * time.Nanosecond},
		{"single q=1", singleSnap, 1, 512 * time.Nanosecond},
		{"overflow q=0.5", overflowSnap, 0.5, time.Hour},
		{"overflow q=1", overflowSnap, 1, time.Hour},
		{"three q=0", threeSnap, 0, 256 * time.Nanosecond},
		// ceil(0.5*3) = 2nd observation, not the 1st
		{"three q=0.5", threeSnap, 0.5, 512 * time.Nanosecond},
		{"three q=0.34", threeSnap, 0.34, 512 * time.Nanosecond},
		{"three q=0.33", threeSnap, 0.33, 256 * time.Nanosecond},
		{"three q=1", threeSnap, 1, 1024 * time.Nanosecond},
		// out-of-range q clamps instead of walking off the buckets
		{"three q=-1", threeSnap, -1, 256 * time.Nanosecond},
		{"three q=2", threeSnap, 2, 1024 * time.Nanosecond},
	}
	for _, c := range cases {
		if got := c.s.Quantile(c.q); got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

// TestConcurrentRecording hammers every metric type from many goroutines
// while snapshots are taken; run under -race it proves the layer needs no
// external synchronisation.
func TestConcurrentRecording(t *testing.T) {
	e := NewEngine()
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				e.Att.Observe(w%MaxExt, Op(i)%NumOps, time.Duration(i), i%7 == 0)
				e.Att.Observe((w+1)%MaxExt, OpInsert, time.Duration(i), false)
				e.Lock.Requests.Inc()
				e.Lock.Queue.Inc()
				e.Lock.Queue.Dec()
				e.WAL.AppendBytes.Add(int64(i))
				e.Buffer.Hits.Inc()
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				e.Snapshot()
			}
		}
	}()
	wg.Wait()
	close(done)
	snap := e.Snapshot()
	if snap.Lock.Requests != workers*per {
		t.Fatalf("requests = %d, want %d", snap.Lock.Requests, workers*per)
	}
	if snap.Buffer.Hits != workers*per {
		t.Fatalf("hits = %d", snap.Buffer.Hits)
	}
}
