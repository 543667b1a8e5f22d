package pipeline

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"uplan/internal/core"
)

// TestForEachChunkedCtxDeadlineMidChunk: a deadline that expires while
// chunks are in flight lets those chunks complete (the pool cannot
// preempt a body), never starts an unclaimed chunk afterwards, still
// runs every started worker's drain, and returns without deadlock. The
// gate holds every claimed chunk in flight until after the deadline has
// provably fired, so the mid-chunk expiry is deterministic, not a race
// the test usually wins.
func TestForEachChunkedCtxDeadlineMidChunk(t *testing.T) {
	const n, chunk, workers = 64, 4, 2
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()

	gate := make(chan struct{})
	var processed [n]atomic.Int32
	var chunks, drains atomic.Int32
	done := make(chan struct{})
	go func() {
		defer close(done)
		ForEachChunkedCtx(ctx, n, workers, chunk,
			func() struct{} { return struct{}{} },
			func(_ struct{}, lo, hi int) {
				<-gate // in flight across the deadline
				chunks.Add(1)
				for i := lo; i < hi; i++ {
					processed[i].Add(1)
				}
			},
			func(struct{}) { drains.Add(1) })
	}()

	<-ctx.Done() // every claimed chunk is now mid-body
	close(gate)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("pool did not return after deadline expiry and gate release")
	}

	// The in-flight chunks completed — one per worker that ran (the pool
	// clamps workers to GOMAXPROCS, so 1 on a single-CPU runner).
	got := int(chunks.Load())
	if got == 0 {
		t.Fatal("no in-flight chunk completed")
	}
	if got > workers {
		t.Errorf("%d chunks completed after the deadline, want at most %d in-flight", got, workers)
	}
	// Chunk atomicity: each chunk fully processed or untouched.
	for lo := 0; lo < n; lo += chunk {
		first := processed[lo].Load()
		if first > 1 {
			t.Fatalf("index %d processed %d times", lo, first)
		}
		for i := lo; i < lo+chunk && i < n; i++ {
			if processed[i].Load() != first {
				t.Fatalf("chunk [%d,%d) partially processed", lo, lo+chunk)
			}
		}
	}
	if drains.Load() == 0 {
		t.Error("no worker drained after deadline expiry")
	}
}

// TestConvertBatchDeadlineExpired: a deadline already expired at submit
// converts nothing; every slot keeps its identity and carries
// context.DeadlineExceeded (the deadline sibling of the Canceled test in
// pool_test.go).
func TestConvertBatchDeadlineExpired(t *testing.T) {
	recs := fixtures(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	results, stats := ConvertBatch(recs, Options{Workers: 2, Context: ctx})
	if len(results) != len(recs) {
		t.Fatalf("got %d results for %d records", len(results), len(recs))
	}
	for i, r := range results {
		if r.Plan != nil {
			t.Errorf("record %d converted after its deadline", i)
		}
		if !errors.Is(r.Err, context.DeadlineExceeded) {
			t.Errorf("record %d: Err = %v, want context.DeadlineExceeded", i, r.Err)
		}
		if r.Seq != i || r.Record != recs[i] {
			t.Errorf("record %d: unprocessed slot lost its identity", i)
		}
	}
	if stats.Converted != 0 {
		t.Errorf("stats.Converted = %d on a pre-expired deadline", stats.Converted)
	}
}

// TestConvertBatchDeadlineMidRun: a deadline that expires somewhere in
// the middle of a batch preserves the exactly-one-of-Plan-or-Err
// contract on every slot, and every error on this all-valid corpus is
// the deadline, never a conversion failure. The assertions are
// invariants, so the test holds whether the machine finishes 0, some,
// or all records before the deadline.
func TestConvertBatchDeadlineMidRun(t *testing.T) {
	base := fixtures(t)
	recs := make([]Record, 0, len(base)*40)
	for i := 0; i < 40; i++ {
		recs = append(recs, base...)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	results, stats := ConvertBatch(recs, Options{Workers: 2, Context: ctx})
	if len(results) != len(recs) {
		t.Fatalf("got %d results for %d records", len(results), len(recs))
	}
	converted, deadlined := 0, 0
	for i, r := range results {
		switch {
		case r.Plan != nil && r.Err == nil:
			converted++
		case r.Plan == nil && errors.Is(r.Err, context.DeadlineExceeded):
			deadlined++
		default:
			t.Fatalf("record %d: Plan=%v Err=%v violates exactly-one-of", i, r.Plan != nil, r.Err)
		}
	}
	if converted+deadlined != len(recs) {
		t.Errorf("%d converted + %d deadlined != %d records", converted, deadlined, len(recs))
	}
	if stats.Converted != converted {
		t.Errorf("stats.Converted = %d, counted %d", stats.Converted, converted)
	}
	// Stats are per-dialect conversion aggregates: a record no worker ever
	// claimed is not a conversion error, so the all-valid corpus reports
	// zero — the deadline shows up in the per-slot Err values instead.
	if stats.Errors != 0 {
		t.Errorf("stats.Errors = %d on an all-valid corpus, want 0 (deadline slots are not conversion errors)", stats.Errors)
	}
}

// TestForEachChunkedCtxGoroutineSettle: cancelled and deadline-expired
// pools leave no workers behind — the goroutine count settles back to
// its starting neighbourhood after many interrupted runs.
func TestForEachChunkedCtxGoroutineSettle(t *testing.T) {
	start := runtime.NumGoroutine()
	for round := 0; round < 25; round++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		ForEachChunkedCtx(ctx, 10_000, 4, 8,
			func() struct{} { return struct{}{} },
			func(_ struct{}, lo, hi int) {
				if lo == 0 {
					cancel() // mix immediate cancels in with deadline expiries
				}
			},
			func(struct{}) {})
		cancel()
	}
	// ForEachChunkedCtx joins its workers before returning, so the count
	// should settle promptly; the loop only absorbs runtime background
	// noise.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= start+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: started with %d, still %d", start, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunSinkCancelAfterFirstChunk: a context cancelled from inside the
// sink once the first chunk is emitted stops the pool at its next claim.
// Every record is still emitted exactly once, in order within its chunk
// (the race detector flags a chunk emitted from two goroutines); the
// records no worker claimed carry the context's error; and the converted
// and the cancelled records add up to the batch. The sink holds every
// other chunk until the first is done, so at most one more chunk (the
// other worker's) converts whatever the scheduling. CI runs it at
// -cpu=1,2: the inline pool and the goroutine pool.
func TestRunSinkCancelAfterFirstChunk(t *testing.T) {
	base := fixtures(t)
	var recs []Record
	for len(recs) < 10*ChunkSize {
		recs = append(recs, base...)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	firstDone := make(chan struct{})
	emitted := make([]int, len(recs))
	next := make([]int, (len(recs)+ChunkSize-1)/ChunkSize)
	var converted, cancelled atomic.Int32
	stats := Run(recs, Options{Workers: 2, Context: ctx}, func(c, i int, p *core.Plan, err error) {
		if c != 0 {
			<-firstDone
		}
		if want := c*ChunkSize + next[c]; i != want || c != i/ChunkSize {
			t.Errorf("chunk %d emitted record %d, want %d", c, i, want)
		}
		next[c]++
		emitted[i]++
		switch {
		case p != nil && err == nil:
			converted.Add(1)
		case p == nil && errors.Is(err, context.Canceled):
			cancelled.Add(1)
		default:
			t.Errorf("record %d: Plan=%v Err=%v", i, p != nil, err)
		}
		if i == ChunkSize-1 {
			cancel()
			close(firstDone)
		}
	})
	for i, n := range emitted {
		if n != 1 {
			t.Fatalf("record %d emitted %d times", i, n)
		}
	}
	got, cut := int(converted.Load()), int(cancelled.Load())
	if got+cut != len(recs) {
		t.Errorf("%d converted + %d cancelled != %d records", got, cut, len(recs))
	}
	if got < ChunkSize || got > 2*ChunkSize {
		t.Errorf("%d records converted, want the first chunk and at most one more", got)
	}
	if stats.Converted != got || stats.Errors != 0 || stats.Records != got {
		t.Errorf("stats = %d records, %d converted, %d errors; want %d converted and no errors (unclaimed records are not conversion errors)",
			stats.Records, stats.Converted, stats.Errors, got)
	}
}
