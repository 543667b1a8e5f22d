package pipeline

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEachChunkedCtx is the chunked-dispatch worker-pool core behind Run
// and the campaign orchestrator: workers claim chunk-sized, half-open
// index ranges [lo, hi) covering [0, n) through an atomic cursor — no
// channels, no per-item synchronization — and each worker carries a
// private state value S for its whole lifetime (converter caches,
// arenas, local stat aggregates).
//
// newState builds one S per worker that runs; body processes one claimed
// range and runs sequentially within its worker; drain is called exactly
// once per worker, serialized under an internal mutex, so per-worker
// aggregates merge into shared totals race-free.
//
// The pool is bounded: the worker count is clamped to the chunk count and
// to GOMAXPROCS (the workloads are CPU-bound — goroutines beyond the
// schedulable cores only add overhead), and a single-worker pool runs
// inline on the calling goroutine.
//
// Cancellation is cooperative: once ctx is done, workers stop claiming
// new chunks. The chunk a worker is mid-way through still completes (the
// pool cannot preempt a body; bodies that run long should watch ctx
// themselves), every started worker still drains, and the call returns
// only when all workers have exited — so aggregates stay consistent even
// on a cancelled run. Chunks are claimed in index order, so the indexes
// processed are always a prefix of [0, n); the rest are never processed,
// and the caller decides what an unprocessed index means (the campaign
// orchestrator checkpoints them as unfinished, Run emits them with ctx's
// error).
//
// A panicking body behaves the same at one worker and at many: the panic
// reaches the calling goroutine. A pooled worker recovers it, the other
// workers stop claiming chunks and drain, and the first panic value is
// re-raised on the caller once every worker has exited — so a body bug
// never kills the process from a goroutine the caller cannot recover on.
// The panicking worker itself does not drain, as an inline run would not.
func ForEachChunkedCtx[S any](ctx context.Context, n, workers, chunk int, newState func() S, body func(s S, lo, hi int), drain func(s S)) {
	if n <= 0 {
		return
	}
	if chunk <= 0 {
		chunk = 1
	}
	nChunks := (n + chunk - 1) / chunk
	if workers > nChunks {
		workers = nChunks
	}
	if max := runtime.GOMAXPROCS(0); workers > max {
		workers = max
	}
	if workers <= 1 {
		s := newState()
		// Chunk-at-a-time even inline, so cancellation has the same
		// granularity a pooled run gets.
		for lo := 0; lo < n && ctx.Err() == nil; lo += chunk {
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			body(s, lo, hi)
		}
		drain(s)
		return
	}
	var (
		cursor    atomic.Int64
		mu        sync.Mutex
		wg        sync.WaitGroup
		stop      atomic.Bool
		panicOnce sync.Once
		panicVal  any
	)
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					stop.Store(true)
					panicOnce.Do(func() { panicVal = v })
				}
			}()
			s := newState()
			for ctx.Err() == nil && !stop.Load() {
				hi := int(cursor.Add(int64(chunk)))
				lo := hi - chunk
				if lo >= n {
					break
				}
				if hi > n {
					hi = n
				}
				body(s, lo, hi)
			}
			mu.Lock()
			defer mu.Unlock()
			drain(s)
		}()
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
}
