// Package pipeline implements UPlan's concurrent batch conversion: Run
// fans a slice of (dialect, serialized-plan) records out over a worker
// pool, converts each record to the unified representation, hands each
// outcome to a sink, and aggregates per-dialect statistics (throughput,
// parse errors, merged operation histograms).
//
// Dispatch is chunked: the input slice itself is the work queue, carved
// into chunks of ChunkSize records by an atomic cursor (see
// ForEachChunkedCtx), so a batch performs no per-record synchronization.
// Each worker folds its statistics into thread-local aggregates that
// merge exactly once, at drain.
//
// Workers convert through the process-wide cached converters
// (convert.Cached), so a batch of n records performs n parses — not n
// registry constructions. Name resolution reads the shared registry's
// immutable snapshot (see core.Registry), so workers never serialize on a
// registry lock even while a client concurrently registers new keywords.
//
// Each worker borrows one arena from convert's pool when it starts,
// builds every record it claims in that arena, hands the in-arena plan
// to the sink, resets the arena before the next record, and returns it
// to the pool when it drains — a cancelled batch included. A warmed-up
// worker builds plans with zero slab allocations, and a sink that
// encodes each plan where it lies (the plan service's batch responses)
// copies nothing. ConvertBatch, whose results outlive the arena, is the
// one caller that detaches plans with Plan.Clone.
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

// ChunkSize is the records-per-dispatch unit of Run: large enough to
// amortize the cursor claim, small enough to balance load and keep
// cancellation fine-grained. Record i belongs to chunk i/ChunkSize.
const ChunkSize = 32

// Options configures Run and ConvertBatch.
type Options struct {
	// Workers is the number of concurrent conversion workers.
	// Non-positive values use GOMAXPROCS. Run additionally clamps the
	// count to GOMAXPROCS (and to the number of chunks): conversion is
	// CPU-bound, so goroutines beyond the schedulable cores only add
	// overhead.
	Workers int
	// Context, when non-nil, cancels a run between chunks: records not
	// yet claimed when the context is done are not converted, and their
	// outcomes carry the context's error instead of a Plan.
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
	arena   *core.PlanArena
	local   map[string]*localDialect
	claimed int // end of the last chunk converted
}

func newWorker() *worker {
	return &worker{arena: convert.BorrowArena(), local: map[string]*localDialect{}}
}

// Sink receives record i's outcome, from chunk i/ChunkSize: exactly one
// of p and err is non-nil. p lives in the converting worker's arena and
// is valid only until the sink returns.
type Sink func(chunk, i int, p *core.Plan, err error)

// do converts record i in the worker's arena, updates the worker-local
// stats, hands the outcome to emit and resets the arena for the next
// record.
//
//uplan:hotpath
func (w *worker) do(i int, rec Record, emit Sink) {
	key := strings.ToLower(rec.Dialect)
	conv, err := convert.Cached(key)
	var p *core.Plan
	if err == nil {
		p, err = conv.ConvertIn(rec.Serialized, w.arena)
	}

	ld := w.local[key]
	if ld == nil {
		ld = &localDialect{ds: &DialectStats{Dialect: key, Operations: core.CategoryHistogram{}}}
		w.local[key] = ld
	}
	ld.ds.Records++
	if err != nil {
		p = nil
		ld.ds.Errors++
		if ld.ds.FirstError == nil {
			ld.ds.FirstError = err
		}
	} else {
		ld.ds.Converted++
		ld.countOps(p.Root)
	}
	emit(i/ChunkSize, i, p, err)
	w.arena.Reset()
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

// stats folds each dialect's array counts into its histogram and returns
// the worker's completed aggregate.
func (w *worker) stats() Stats {
	st := Stats{Dialects: make(map[string]*DialectStats, len(w.local))}
	for key, ld := range w.local {
		for i, n := range ld.ops {
			if n != 0 {
				ld.ds.Operations[core.OperationCategories[i]] += n
			}
		}
		st.Dialects[key] = ld.ds
		st.Records += ld.ds.Records
		st.Converted += ld.ds.Converted
		st.Errors += ld.ds.Errors
	}
	return st
}

// Run converts records on a transient chunked worker pool, hands every
// record's outcome to emit exactly once, and returns the statistics. A
// record's failure (an unknown dialect, a malformed plan) reaches emit
// as its err and does not stop the batch. emit runs in the converting worker, and one chunk's records are
// emitted in order on one goroutine, so a sink may append to a per-chunk
// buffer without a lock. Records unclaimed when Options.Context is done
// are emitted after the pool drains, with the context's error, and are
// not counted as conversion errors. Elapsed includes the sink's work.
func Run(records []Record, opts Options, emit Sink) Stats {
	opts = opts.withDefaults()
	stats := Stats{Dialects: map[string]*DialectStats{}}
	start := time.Now()
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	// Workers claim chunks in cursor order, so the claimed records are
	// always the prefix [0, claimed).
	claimed := 0
	ForEachChunkedCtx(ctx, len(records), opts.Workers, ChunkSize,
		newWorker,
		func(w *worker, lo, hi int) {
			for i := lo; i < hi; i++ {
				w.do(i, records[i], emit)
			}
			w.claimed = hi
		},
		func(w *worker) {
			convert.ReturnArena(w.arena)
			claimed = max(claimed, w.claimed)
			stats.Add(w.stats())
		})
	for i := claimed; i < len(records); i++ {
		emit(i/ChunkSize, i, nil, ctx.Err())
	}
	stats.Elapsed = time.Since(start)
	return stats
}

// ConvertBatch converts records with Run and returns the results indexed
// like the input (results[i] is records[i]'s outcome) plus the aggregate
// statistics. Each plan is detached from its worker's arena with
// Plan.Clone, so the results stay valid after the batch.
func ConvertBatch(records []Record, opts Options) ([]Result, Stats) {
	out := make([]Result, len(records))
	stats := Run(records, opts, func(_, i int, p *core.Plan, err error) {
		if p != nil {
			p = p.Clone() // detach from the reused arena
		}
		out[i] = Result{Seq: i, Record: records[i], Plan: p, Err: err}
	})
	return out, stats
}
