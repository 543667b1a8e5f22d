package pipeline

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestForEachChunkedCtxCancel: after cancellation workers stop claiming,
// every index is processed at most once, every started worker drains, and
// the call returns without processing the full range.
func TestForEachChunkedCtxCancel(t *testing.T) {
	const n = 10_000
	ctx, cancel := context.WithCancel(context.Background())
	var processed [n]atomic.Int32
	var count atomic.Int32
	var drains atomic.Int32
	ForEachChunkedCtx(ctx, n, 4, 8,
		func() struct{} { return struct{}{} },
		func(_ struct{}, lo, hi int) {
			for i := lo; i < hi; i++ {
				if processed[i].Add(1) != 1 {
					t.Errorf("index %d processed twice", i)
				}
			}
			if count.Add(int32(hi-lo)) > n/4 {
				cancel()
			}
		},
		func(struct{}) { drains.Add(1) })
	if got := int(count.Load()); got == n {
		t.Error("cancellation did not stop the pool before completion")
	}
	if drains.Load() == 0 {
		t.Error("no worker drained")
	}
	// Sanity: the processed set is a prefix-dense claim set — each chunk
	// fully processed or untouched, never half-done.
	for i := 0; i < n; i += 8 {
		hi := i + 8
		if hi > n {
			hi = n
		}
		first := processed[i].Load()
		for j := i; j < hi; j++ {
			if processed[j].Load() != first {
				t.Fatalf("chunk [%d,%d) partially processed", i, hi)
			}
		}
	}
}

// TestForEachChunkedCtxCancelInline: the single-worker inline path honours
// cancellation between chunks too.
func TestForEachChunkedCtxCancelInline(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	ForEachChunkedCtx(ctx, 100, 1, 10,
		func() struct{} { return struct{}{} },
		func(_ struct{}, lo, hi int) {
			ran += hi - lo
			if ran >= 30 {
				cancel()
			}
		},
		func(struct{}) {})
	if ran != 30 {
		t.Errorf("inline pool ran %d indexes after cancel at 30", ran)
	}
}

// TestConvertBatchCancelled: records unclaimed at cancellation come back
// with the context's error, preserving the one-of-Plan-or-Err contract on
// every slot; a pre-cancelled context converts nothing.
func TestConvertBatchCancelled(t *testing.T) {
	recs := fixtures(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, _ := ConvertBatch(recs, Options{Workers: 2, Context: ctx})
	if len(results) != len(recs) {
		t.Fatalf("got %d results for %d records", len(results), len(recs))
	}
	for i, r := range results {
		if r.Plan != nil {
			t.Errorf("record %d converted after pre-cancellation", i)
		}
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("record %d: Err = %v, want context.Canceled", i, r.Err)
		}
		if r.Seq != i || r.Record != recs[i] {
			t.Errorf("record %d: unprocessed slot lost its identity", i)
		}
	}
}

// TestForEachChunkedDrainsOnce: a pool that is never cancelled processes
// every index and drains each worker exactly once.
func TestForEachChunkedDrainsOnce(t *testing.T) {
	var mu sync.Mutex
	total := 0
	drains := 0
	ForEachChunkedCtx(context.Background(), 1000, 8, 16,
		func() *int { v := 0; return &v },
		func(s *int, lo, hi int) { *s += hi - lo },
		func(s *int) {
			mu.Lock()
			total += *s
			drains++
			mu.Unlock()
		})
	if total != 1000 {
		t.Errorf("processed %d indexes, want 1000", total)
	}
	if drains == 0 {
		t.Error("no drains ran")
	}
}

// TestForEachChunkedBodyPanicReachesCaller: at two workers a panicking
// body does not kill the process from a worker goroutine. The other
// worker stops claiming and drains, and the panic value is re-raised on
// the calling goroutine, where it can be recovered as it can inline.
func TestForEachChunkedBodyPanicReachesCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const n = 1000
	var processed, drains atomic.Int32
	got := func() (v any) {
		defer func() { v = recover() }()
		ForEachChunkedCtx(context.Background(), n, 2, 1,
			func() struct{} { return struct{}{} },
			func(_ struct{}, lo, hi int) {
				if lo == 40 {
					panic("body bug at 40")
				}
				if lo > 40 {
					// Slow enough that a worker ignoring the panic would
					// still be claiming long after the panic is recovered.
					time.Sleep(100 * time.Microsecond)
				}
				processed.Add(int32(hi - lo))
			},
			func(struct{}) { drains.Add(1) })
		return nil
	}()
	if got != "body bug at 40" {
		t.Fatalf("recovered %v, want the body's panic value", got)
	}
	if d := drains.Load(); d != 1 {
		t.Errorf("%d drains, want 1 (the worker that did not panic)", d)
	}
	if p := processed.Load(); p >= n/2 {
		t.Errorf("processed %d of %d indexes: the other worker kept claiming after the panic", p, n)
	}
}
