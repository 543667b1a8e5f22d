package pipeline_test

import (
	"testing"

	"uplan/internal/bench"
	"uplan/internal/convert"
	"uplan/internal/core"
	"uplan/internal/pipeline"
)

// TestConvertBatchResultsSurviveArenaReuse pins the one arena lifecycle:
// batch workers build in arenas borrowed from convert's pool and return
// them when they drain, so the next batch, or any convert.Convert call,
// builds in the very slabs an earlier batch used. Every earlier result
// must have been detached: its canonical text and fingerprint may not
// change however much later work reuses those arenas. CI runs it at
// -cpu=1,2, so the churn also comes from interleaved workers.
func TestConvertBatchResultsSurviveArenaReuse(t *testing.T) {
	corpus, err := bench.Corpus(42)
	if err != nil {
		t.Fatal(err)
	}
	other, err := bench.Corpus(43)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.FingerprintOptions{IncludeConfiguration: true, IncludeConfigurationValues: true}
	first, stats := pipeline.ConvertBatch(corpus, pipeline.Options{})
	if stats.Errors != 0 {
		t.Fatalf("%d conversion errors", stats.Errors)
	}
	texts := make([]string, len(first))
	prints := make([][32]byte, len(first))
	for i, r := range first {
		texts[i] = r.Plan.MarshalText()
		prints[i] = r.Plan.FingerprintBytes(opts)
	}

	for round := 0; round < 3; round++ {
		if _, s := pipeline.ConvertBatch(other, pipeline.Options{}); s.Errors != 0 {
			t.Fatalf("round %d: %d conversion errors", round, s.Errors)
		}
		for _, r := range other {
			if _, err := convert.Convert(r.Dialect, r.Serialized); err != nil {
				t.Fatalf("round %d: %s: %v", round, r.Dialect, err)
			}
		}
	}

	for i, r := range first {
		if got := r.Plan.MarshalText(); got != texts[i] {
			t.Fatalf("record %d (%s): text changed after later batches reused the arenas\n--- was ---\n%s\n--- now ---\n%s",
				i, r.Record.Dialect, texts[i], got)
		}
		if r.Plan.FingerprintBytes(opts) != prints[i] {
			t.Fatalf("record %d (%s): fingerprint changed after later batches reused the arenas", i, r.Record.Dialect)
		}
	}
}

// batchAllocBudget is the allocation count of the batch below when each
// record drew its own arena from the pool; a worker that borrows one
// pooled arena stays under it, and a fresh arena per batch, about 18
// allocations more, does not.
const batchAllocBudget = 327

// TestConvertBatchAllocBudget holds one fixed 64-record batch at one
// worker to an allocation budget. A worker that builds in a fresh arena
// per batch, instead of borrowing a pooled one, pays the arena and its
// slab growth on every call and fails the budget.
func TestConvertBatchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	corpus, err := bench.Corpus(42)
	if err != nil {
		t.Fatal(err)
	}
	recs := corpus[:64]
	run := func() {
		if _, s := pipeline.ConvertBatch(recs, pipeline.Options{Workers: 1}); s.Errors != 0 {
			t.Fatalf("%d conversion errors", s.Errors)
		}
	}
	run() // warm the converter cache and the arena pool
	allocs := testing.AllocsPerRun(50, run)
	t.Logf("ConvertBatch(64 records, Workers 1): %.1f allocs", allocs)
	if allocs > batchAllocBudget {
		t.Errorf("ConvertBatch(64 records, Workers 1) allocates %.1f times, budget %d", allocs, batchAllocBudget)
	}
}
