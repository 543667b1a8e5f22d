// Package pipeline implements UPlan's concurrent batch conversion:
// ConvertBatch fans a slice of (dialect, serialized-plan) records out over
// a worker pool, converts each record to the unified representation, and
// aggregates per-dialect statistics (throughput, parse errors, merged
// operation histograms).
//
// Dispatch is chunked: the input slice itself is the work queue, carved
// into chunks of 32 records by an atomic cursor (see
// ForEachChunkedCtx), and workers write results straight into disjoint
// slots of the output slice, so a batch performs no per-record
// synchronization at all. Each worker folds its statistics into
// thread-local aggregates that merge exactly once, at drain.
//
// Workers convert through the process-wide cached converters
// (convert.Cached), so a batch of n records performs n parses — not n
// registry constructions, which is what the one-shot convert.Convert path
// costs. Name resolution reads the shared registry's immutable snapshot
// (see core.Registry), so workers never serialize on a registry lock even
// while a client concurrently registers new keywords.
//
// Each worker borrows one arena from convert's pool when it starts,
// builds every record it claims in that arena, detaches each plan with
// Plan.Clone, resets the arena before the next record, and returns it to
// the pool when it drains — a cancelled batch included. A warmed-up
// worker therefore builds plans with zero slab allocations and pays one
// compact copy per result.
package pipeline

import (
	"context"
	"runtime"
	"strings"
	"time"

	"uplan/internal/convert"
	"uplan/internal/core"
)

// Record is one unit of work: a serialized plan tagged with its dialect.
type Record struct {
	// Dialect is the engine key ("postgresql", …); case-insensitive.
	Dialect string
	// Serialized is the native EXPLAIN output to convert.
	Serialized string
}

// Result pairs a record with its conversion outcome. Exactly one of Plan
// and Err is non-nil.
type Result struct {
	// Seq is the record's 0-based index in the batch; ConvertBatch
	// results are indexed by it.
	Seq    int
	Record Record
	Plan   *core.Plan
	Err    error
}

// chunkSize is the records-per-dispatch unit of ConvertBatch: large
// enough to amortize the cursor claim, small enough to balance load and
// keep cancellation fine-grained.
const chunkSize = 32

// Options configures ConvertBatch.
type Options struct {
	// Workers is the number of concurrent conversion workers.
	// Non-positive values use GOMAXPROCS. ConvertBatch additionally
	// clamps the count to GOMAXPROCS (and to the number of chunks):
	// conversion is CPU-bound, so goroutines beyond the schedulable
	// cores only add overhead.
	Workers int
	// Context, when non-nil, cancels a ConvertBatch run between chunks:
	// records not yet claimed when the context is done are skipped, and
	// their Results carry the context's error instead of a Plan.
	Context context.Context
}

// withDefaults resolves zero values to the documented defaults.
func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// localDialect is one dialect's worker-local aggregate. Operation counts
// for the seven canonical categories accumulate in a fixed array — one
// comparison per operation instead of one map hash — and land in the
// DialectStats histogram only when the worker merges.
type localDialect struct {
	ds  *DialectStats
	ops [7]float64
}

// worker is the per-goroutine conversion state: an arena borrowed from
// convert's pool plus thread-local statistics, merged into the shared
// aggregate once when the worker drains.
type worker struct {
	arena *core.PlanArena
	local map[string]*localDialect
}

func newWorker() *worker {
	return &worker{arena: convert.BorrowArena(), local: map[string]*localDialect{}}
}

// do converts one record into res — written in place, so workers fill
// their output slots without an intermediate copy — and updates the
// worker-local stats. The plan is built in the worker's arena and
// detached with Plan.Clone before it escapes: the Result must stay valid
// after the arena is reset for the next record.
//
//uplan:hotpath
func (w *worker) do(res *Result, seq int, rec Record) {
	key := strings.ToLower(rec.Dialect)
	res.Seq, res.Record = seq, rec
	conv, err := convert.Cached(key)
	if err == nil {
		res.Plan, err = conv.ConvertIn(rec.Serialized, w.arena)
		if err == nil {
			res.Plan = res.Plan.Clone() // detach from the reused arena
		} else {
			res.Plan = nil
		}
		w.arena.Reset()
	}
	res.Err = err

	ld := w.local[key]
	if ld == nil {
		ld = &localDialect{ds: &DialectStats{Dialect: key, Operations: core.CategoryHistogram{}}}
		w.local[key] = ld
	}
	ld.ds.Records++
	if res.Err != nil {
		ld.ds.Errors++
		if ld.ds.FirstError == nil {
			ld.ds.FirstError = res.Err
		}
	} else {
		ld.ds.Converted++
		ld.countOps(res.Plan.Root)
	}
}

// countOps tallies the subtree's operations: canonical categories go to
// the fixed array, anything else (plans hand-built with custom
// categories) straight to the histogram map.
func (ld *localDialect) countOps(n *core.Node) {
	if n == nil {
		return
	}
	if i := core.CategoryIndex(n.Op.Category); i >= 0 {
		ld.ops[i]++
	} else {
		ld.ds.Operations[n.Op.Category]++
	}
	for _, c := range n.Children {
		ld.countOps(c)
	}
}

// drain folds the array counts into the histogram and returns the
// completed per-dialect aggregate.
func (ld *localDialect) drain() *DialectStats {
	for i, n := range ld.ops {
		if n != 0 {
			ld.ds.Operations[core.OperationCategories[i]] += n
		}
	}
	return ld.ds
}

// ConvertBatch converts records through a transient chunked worker pool
// and returns the results indexed like the input (results[i] is
// records[i]'s outcome) plus the aggregate statistics. Per-record
// failures — unknown dialects, malformed plans — are reported in the
// matching Result.Err and counted in the stats; they do not stop the
// batch.
func ConvertBatch(records []Record, opts Options) ([]Result, Stats) {
	opts = opts.withDefaults()
	out := make([]Result, len(records))
	stats := Stats{Dialects: map[string]*DialectStats{}}
	start := time.Now()

	// The claim-a-chunk/private-worker-state/merge-once-at-drain machinery
	// lives in ForEachChunkedCtx (clamping workers to GOMAXPROCS and to
	// the chunk count, running single-worker pools inline); ConvertBatch
	// supplies the conversion worker and its stat merge.
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	ForEachChunkedCtx(ctx, len(records), opts.Workers, chunkSize,
		newWorker,
		func(w *worker, lo, hi int) {
			for i := lo; i < hi; i++ {
				w.do(&out[i], i, records[i])
			}
		},
		func(w *worker) {
			convert.ReturnArena(w.arena)
			for key, ld := range w.local {
				stats.merge(key, ld.drain())
			}
		})
	if err := ctx.Err(); err != nil {
		// Chunks unclaimed at cancellation were never converted; their
		// slots still hold the zero Result. Mark them so the "exactly one
		// of Plan and Err" contract holds for every returned slot.
		for i := range out {
			if out[i].Plan == nil && out[i].Err == nil {
				out[i] = Result{Seq: i, Record: records[i], Err: err}
			}
		}
	}
	stats.Elapsed = time.Since(start)
	return out, stats
}
