package pipeline

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"uplan/internal/convert"
	"uplan/internal/core"
	"uplan/internal/dbms"
)

// fixtures generates one serialized plan per engine (default format) over
// a small shared schema.
func fixtures(t testing.TB) []Record {
	t.Helper()
	const q = "SELECT t0.c2, COUNT(*) FROM t0 INNER JOIN t1 ON t0.c0 = t1.c0 WHERE t0.c1 > 5 GROUP BY t0.c2"
	var recs []Record
	for _, name := range dbms.Names() {
		e := dbms.MustNew(name)
		for _, s := range []string{
			"CREATE TABLE t0 (c0 INT PRIMARY KEY, c1 INT, c2 TEXT)",
			"CREATE TABLE t1 (c0 INT, v TEXT)",
			"INSERT INTO t0 VALUES (1, 10, 'a'), (2, 20, 'b'), (3, 30, 'a')",
			"INSERT INTO t1 VALUES (1, 'x'), (3, 'y')",
		} {
			if _, err := e.Execute(s); err != nil {
				t.Fatalf("%s: seed: %v", name, err)
			}
		}
		if err := e.Analyze(); err != nil {
			t.Fatal(err)
		}
		out, err := e.Explain(q, e.DefaultFormat())
		if err != nil {
			t.Fatalf("%s: explain: %v", name, err)
		}
		recs = append(recs, Record{Dialect: name, Serialized: out})
	}
	return recs
}

func TestConvertBatchAllDialects(t *testing.T) {
	recs := fixtures(t)
	results, stats := ConvertBatch(recs, Options{Workers: 4})

	if len(results) != len(recs) {
		t.Fatalf("got %d results for %d records", len(results), len(recs))
	}
	for i, r := range results {
		if r.Seq != i {
			t.Errorf("results[%d].Seq = %d, want %d", i, r.Seq, i)
		}
		if r.Record.Dialect != recs[i].Dialect {
			t.Errorf("results[%d] is for %q, want %q", i, r.Record.Dialect, recs[i].Dialect)
		}
		if r.Err != nil {
			t.Errorf("%s: %v", recs[i].Dialect, r.Err)
			continue
		}
		if err := r.Plan.Validate(); err != nil {
			t.Errorf("%s: invalid plan: %v", recs[i].Dialect, err)
		}
	}
	if stats.Records != len(recs) || stats.Converted != len(recs) || stats.Errors != 0 {
		t.Errorf("stats = %d/%d/%d, want %d/%d/0",
			stats.Records, stats.Converted, stats.Errors, len(recs), len(recs))
	}
	if len(stats.Dialects) != len(recs) {
		t.Errorf("stats cover %d dialects, want %d", len(stats.Dialects), len(recs))
	}
	if stats.Elapsed <= 0 {
		t.Errorf("elapsed = %v, want > 0", stats.Elapsed)
	}
	if stats.PlansPerSec() <= 0 {
		t.Errorf("plans/sec = %v, want > 0", stats.PlansPerSec())
	}
}

// TestConvertBatchReuseArenas is the worker arena's correctness and race
// test: many records per worker force repeated Reset/Clone cycles in the
// worker's borrowed arena, results must match the one-shot Convert path
// plan-for-plan, and every returned plan must be fully detached (still
// valid after the workers have returned their arenas to the pool). Run
// under -race with multiple workers this also proves worker arenas never
// leak across goroutines.
func TestConvertBatchReuseArenas(t *testing.T) {
	base := fixtures(t)
	var recs []Record
	for i := 0; i < 16; i++ { // several chunks, so every worker reuses its arena
		recs = append(recs, base...)
	}
	if len(recs) <= 2*ChunkSize {
		t.Fatalf("%d records fill under three chunks", len(recs))
	}
	got, stats := ConvertBatch(recs, Options{Workers: 4})
	if stats.Errors != 0 {
		t.Fatalf("batch reported %d errors", stats.Errors)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d results, want %d", len(got), len(recs))
	}
	for i := range got {
		if got[i].Err != nil {
			t.Fatalf("record %d (%s): %v", i, recs[i].Dialect, got[i].Err)
		}
		want, err := convert.Convert(recs[i].Dialect, recs[i].Serialized)
		if err != nil {
			t.Fatal(err)
		}
		if !got[i].Plan.Equal(want) {
			t.Errorf("record %d (%s): batch plan differs from the one-shot plan",
				i, recs[i].Dialect)
		}
		if err := got[i].Plan.Validate(); err != nil {
			t.Errorf("record %d (%s): invalid detached plan: %v", i, recs[i].Dialect, err)
		}
	}
}

// TestConvertBatchErrorAggregation drives batches with failures mixed in
// and checks per-record errors and the per-dialect aggregate counts.
func TestConvertBatchErrorAggregation(t *testing.T) {
	good := fixtures(t)
	pg := good[findDialect(t, good, "postgresql")]
	mongo := good[findDialect(t, good, "mongodb")]

	cases := []struct {
		name    string
		records []Record
		// wantErrs marks, per input index, whether that record must fail.
		wantErrs []bool
		// wantDialectErrs is the expected Errors count per dialect key.
		wantDialectErrs map[string]int
	}{
		{
			name:     "empty batch",
			records:  nil,
			wantErrs: nil,
		},
		{
			name: "unknown dialect mixed in",
			records: []Record{
				pg,
				{Dialect: "oracle", Serialized: "whatever"},
				mongo,
			},
			wantErrs:        []bool{false, true, false},
			wantDialectErrs: map[string]int{"oracle": 1},
		},
		{
			name: "malformed plans mixed in",
			records: []Record{
				pg,
				{Dialect: "postgresql", Serialized: "complete garbage {{{"},
				mongo,
				{Dialect: "mongodb", Serialized: "{not json"},
				pg,
			},
			wantErrs:        []bool{false, true, false, true, false},
			wantDialectErrs: map[string]int{"postgresql": 1, "mongodb": 1},
		},
		{
			name: "all failing",
			records: []Record{
				{Dialect: "postgresql", Serialized: ""},
				{Dialect: "nosuchdb", Serialized: ""},
			},
			wantErrs:        []bool{true, true},
			wantDialectErrs: map[string]int{"postgresql": 1, "nosuchdb": 1},
		},
		{
			name: "dialect key is case-insensitive",
			records: []Record{
				{Dialect: "PostgreSQL", Serialized: pg.Serialized},
			},
			wantErrs: []bool{false},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			results, stats := ConvertBatch(tc.records, Options{Workers: 3})
			if len(results) != len(tc.records) {
				t.Fatalf("got %d results for %d records", len(results), len(tc.records))
			}
			wantErrTotal := 0
			for i, wantErr := range tc.wantErrs {
				if wantErr {
					wantErrTotal++
				}
				if gotErr := results[i].Err != nil; gotErr != wantErr {
					t.Errorf("record %d: err = %v, want failure=%v", i, results[i].Err, wantErr)
				}
				if wantErr && results[i].Plan != nil {
					t.Errorf("record %d: failed record carries a plan", i)
				}
			}
			if stats.Errors != wantErrTotal {
				t.Errorf("stats.Errors = %d, want %d", stats.Errors, wantErrTotal)
			}
			if stats.Converted != len(tc.records)-wantErrTotal {
				t.Errorf("stats.Converted = %d, want %d",
					stats.Converted, len(tc.records)-wantErrTotal)
			}
			for dialect, want := range tc.wantDialectErrs {
				ds := stats.Dialects[dialect]
				if ds == nil {
					t.Errorf("no stats for dialect %q", dialect)
					continue
				}
				if ds.Errors != want {
					t.Errorf("%s: Errors = %d, want %d", dialect, ds.Errors, want)
				}
				if ds.FirstError == nil {
					t.Errorf("%s: FirstError not sampled", dialect)
				}
			}
			// The rendered table must mention every dialect seen.
			rendered := stats.String()
			for _, r := range tc.records {
				if !strings.Contains(rendered, strings.ToLower(r.Dialect)) {
					t.Errorf("stats table misses %q:\n%s", r.Dialect, rendered)
				}
			}
		})
	}
}

func findDialect(t *testing.T, recs []Record, dialect string) int {
	t.Helper()
	for i, r := range recs {
		if r.Dialect == dialect {
			return i
		}
	}
	t.Fatalf("no fixture for %q", dialect)
	return -1
}

// TestConvertBatchConcurrentCallers runs many batches at once from
// separate goroutines (run under -race in CI): their workers borrow and
// return arenas through the one shared pool, and every batch must still
// convert every record to the same plans as a batch run alone. Each
// batch spans three chunks, so its own workers interleave too.
func TestConvertBatchConcurrentCallers(t *testing.T) {
	var recs []Record
	for i := 0; i < 8; i++ {
		recs = append(recs, fixtures(t)...)
	}
	if len(recs) <= 2*ChunkSize {
		t.Fatalf("%d records fill under three chunks", len(recs))
	}
	want, _ := ConvertBatch(recs, Options{Workers: 1})
	const callers = 8
	var wg sync.WaitGroup
	wg.Add(callers)
	for c := 0; c < callers; c++ {
		go func(c int) {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				got, stats := ConvertBatch(recs, Options{Workers: 2})
				if stats.Records != len(recs) || stats.Errors != 0 {
					t.Errorf("caller %d: stats = %d records, %d errors", c, stats.Records, stats.Errors)
					return
				}
				for i := range got {
					if !got[i].Plan.Equal(want[i].Plan) {
						t.Errorf("caller %d: record %d (%s) differs", c, i, recs[i].Dialect)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestStatsHistogramMerge checks that per-dialect histograms equal the
// sum of the individual plans' histograms regardless of worker count.
func TestStatsHistogramMerge(t *testing.T) {
	recs := fixtures(t)
	const copies = 7

	var batch []Record
	for i := 0; i < copies; i++ {
		batch = append(batch, recs...)
	}

	results, stats := ConvertBatch(batch, Options{Workers: 5})
	want := map[string]core.CategoryHistogram{}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Record.Dialect, r.Err)
		}
		h := want[r.Record.Dialect]
		if h == nil {
			h = core.CategoryHistogram{}
			want[r.Record.Dialect] = h
		}
		for cat, n := range r.Plan.Histogram() {
			h[cat] += n
		}
	}
	for dialect, wh := range want {
		ds := stats.Dialects[dialect]
		if ds == nil {
			t.Fatalf("no stats for %q", dialect)
		}
		if ds.Converted != copies {
			t.Errorf("%s: Converted = %d, want %d", dialect, ds.Converted, copies)
		}
		for cat, n := range wh {
			if ds.Operations[cat] != n {
				t.Errorf("%s: histogram[%v] = %v, want %v",
					dialect, cat, ds.Operations[cat], n)
			}
		}
	}
}

// TestOptionsDefaults pins the documented zero-value behavior: GOMAXPROCS
// workers, and an explicit count kept as given.
func TestOptionsDefaults(t *testing.T) {
	if o := (Options{}).withDefaults(); o.Workers <= 0 {
		t.Errorf("Workers default = %d, want > 0", o.Workers)
	}
	if o := (Options{Workers: 3}).withDefaults(); o.Workers != 3 {
		t.Errorf("explicit options rewritten: %+v", o)
	}
}

// TestConvertBatchChunkBoundaries checks that every record lands in its
// own slot with its one-shot outcome whatever the batch size does to the
// 32-record chunks: a single record, one short of a chunk, exactly one,
// one past it, and three chunks plus a partial tail. Failing records are
// mixed in, so error accounting crosses the boundaries too.
func TestConvertBatchChunkBoundaries(t *testing.T) {
	good := fixtures(t)
	bad := []Record{
		{Dialect: "oracle", Serialized: "x"},
		{Dialect: "postgresql", Serialized: "garbage {{{"},
	}
	for _, n := range []int{1, ChunkSize - 1, ChunkSize, ChunkSize + 1, 3*ChunkSize + 5} {
		batch := make([]Record, n)
		wantErrs := 0
		for i := range batch {
			if i%7 == 3 {
				batch[i] = bad[i%2]
				wantErrs++
			} else {
				batch[i] = good[i%len(good)]
			}
		}
		got, stats := ConvertBatch(batch, Options{Workers: 4})
		if len(got) != n {
			t.Fatalf("%d records: %d results", n, len(got))
		}
		for i := range got {
			if got[i].Seq != i || got[i].Record != batch[i] {
				t.Fatalf("%d records: result %d misplaced", n, i)
			}
			want, err := convert.Convert(batch[i].Dialect, batch[i].Serialized)
			if (got[i].Err != nil) != (err != nil) {
				t.Errorf("%d records: result %d error mismatch: %v vs %v", n, i, got[i].Err, err)
			}
			if err == nil && !got[i].Plan.Equal(want) {
				t.Errorf("%d records: result %d plan differs from the one-shot plan", n, i)
			}
		}
		if stats.Records != n || stats.Converted != n-wantErrs || stats.Errors != wantErrs {
			t.Errorf("%d records: stats %d/%d/%d, want %d/%d/%d", n,
				stats.Records, stats.Converted, stats.Errors, n, n-wantErrs, wantErrs)
		}
	}
}

// BenchmarkPipelineWorkers measures pipeline throughput on the fixture
// set at increasing worker counts.
func BenchmarkPipelineWorkers(b *testing.B) {
	recs := fixtures(b)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				results, _ := ConvertBatch(recs, Options{Workers: workers})
				for _, r := range results {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
		})
	}
}
