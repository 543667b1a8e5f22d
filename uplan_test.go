package uplan

import (
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

const pgPlan = `Seq Scan on t0  (cost=0.00..35.50 rows=2550 width=4)
  Filter: (c0 < 100)
Planning Time: 0.124 ms
`

func TestFacadeConvert(t *testing.T) {
	plan, err := Convert("postgresql", pgPlan)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Root.Op.Name != "Full Table Scan" || plan.Root.Op.Category != Producer {
		t.Errorf("root = %v", plan.Root.Op)
	}
	if _, ok := plan.Property("planning time"); !ok {
		t.Error("plan property lost")
	}
	h := plan.Histogram()
	if h[Producer] != 1 {
		t.Errorf("histogram %v", h)
	}
}

func TestFacadeDialects(t *testing.T) {
	ds := Dialects()
	if len(ds) != 9 {
		t.Errorf("dialects = %v", ds)
	}
	if !sort.StringsAreSorted(ds) {
		t.Errorf("Dialects() not sorted: %v", ds)
	}
	if _, err := Convert("oracle", "x"); err == nil {
		t.Error("unknown dialect must fail")
	}
}

// TestFacadeConvertConcurrent hammers the cached-converter path from many
// goroutines (meaningful under -race): results must match the sequential
// ones and the shared converters must tolerate concurrent use.
func TestFacadeConvertConcurrent(t *testing.T) {
	want, err := Convert("postgresql", pgPlan)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				got, err := Convert("postgresql", pgPlan)
				if err != nil {
					t.Error(err)
					return
				}
				if !got.Equal(want) {
					t.Error("concurrent conversion diverged from sequential result")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestFacadeConvertBatch exercises the batch API end to end through the
// facade, including an injected failure.
func TestFacadeConvertBatch(t *testing.T) {
	records := []BatchRecord{
		{Dialect: "postgresql", Serialized: pgPlan},
		{Dialect: "oracle", Serialized: "unsupported"},
		{Dialect: "postgresql", Serialized: pgPlan},
	}
	results, stats := ConvertBatch(records, PipelineOptions{Workers: 2})
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Errorf("valid records failed: %v / %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil {
		t.Error("unknown dialect must fail")
	}
	if stats.Converted != 2 || stats.Errors != 1 {
		t.Errorf("stats = %d converted, %d errors", stats.Converted, stats.Errors)
	}
	if results[0].Plan.Root.Op.Name != "Full Table Scan" {
		t.Errorf("root = %v", results[0].Plan.Root.Op)
	}
}

func TestFacadeRoundTrips(t *testing.T) {
	plan, err := Convert("postgresql", pgPlan)
	if err != nil {
		t.Fatal(err)
	}
	viaText, err := ParseText(plan.MarshalIndentedText())
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Equal(viaText) {
		t.Error("text round trip broken")
	}
	data, err := plan.MarshalJSONIndent()
	if err != nil {
		t.Fatal(err)
	}
	viaJSON, err := ParseJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Equal(viaJSON) {
		t.Error("json round trip broken")
	}
}

func TestFacadeRegistry(t *testing.T) {
	reg := DefaultRegistry()
	op := reg.ResolveOperation("tidb", "TableFullScan")
	if op.Name != "Full Table Scan" {
		t.Errorf("resolve = %v", op)
	}
	if !strings.Contains(plan4Categories(), "Producer") {
		t.Error("categories missing")
	}
}

// TestFacadeSharedRegistryExtension pins the documented extensibility
// path: extending SharedRegistry is visible through Convert's cached
// converters.
func TestFacadeSharedRegistryExtension(t *testing.T) {
	reg := SharedRegistry()
	reg.AddOperation("LLM Join", Join, "the paper's extensibility example")
	if err := reg.AliasOperation("postgresql", "LLM Join Probe", "LLM Join"); err != nil {
		t.Fatal(err)
	}
	plan, err := Convert("postgresql",
		"LLM Join Probe  (cost=0.00..1.00 rows=1 width=4)\n")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Root.Op.Name != "LLM Join" || plan.Root.Op.Category != Join {
		t.Errorf("extension not visible through Convert: %v", plan.Root.Op)
	}
}

func plan4Categories() string {
	var b strings.Builder
	for _, c := range []OperationCategory{Producer, Combinator, Join, Folder, Projector, Executor, Consumer} {
		b.WriteString(string(c))
		b.WriteByte(' ')
	}
	for _, c := range []PropertyCategory{Cardinality, Cost, Configuration, Status} {
		b.WriteString(string(c))
		b.WriteByte(' ')
	}
	return b.String()
}

// TestFacadeArenaLifecycle exercises the exported arena surface end to
// end: ConvertInto builds into a caller-owned arena, Clone detaches, Reset
// recycles, and ConvertBatch's pooled worker arenas hand out detached
// plans equal to Convert's.
func TestFacadeArenaLifecycle(t *testing.T) {
	const raw = "Seq Scan on t0  (cost=0.00..18.50 rows=850 width=4)\n" +
		"  Filter: (c0 < 100)\nPlanning Time: 0.100 ms\n"
	ar := NewArena()
	first, err := ConvertInto("postgresql", raw, ar)
	if err != nil {
		t.Fatal(err)
	}
	keep := first.Clone()
	ar.Reset()
	second, err := ConvertInto("postgresql", raw, ar)
	if err != nil {
		t.Fatal(err)
	}
	if !keep.Equal(second) {
		t.Errorf("detached clone does not match a rebuild of the same input")
	}
	direct, err := Convert("postgresql", raw)
	if err != nil {
		t.Fatal(err)
	}
	if !keep.Equal(direct) {
		t.Errorf("arena-built plan differs from Convert's result")
	}

	records := []BatchRecord{{Dialect: "postgresql", Serialized: raw}, {Dialect: "postgresql", Serialized: raw}}
	results, stats := ConvertBatch(records, PipelineOptions{Workers: 2})
	if stats.Errors != 0 {
		t.Fatalf("batch errors: %d", stats.Errors)
	}
	for _, r := range results {
		if !r.Plan.Equal(direct) {
			t.Errorf("batch plan differs from Convert's result")
		}
	}
}

// TestRunCampaignsFacade drives the whole nine-engine campaign fleet
// through the public facade with a small budget: stats must cover every
// engine, and the finding set must be seed-deterministic.
func TestRunCampaignsFacade(t *testing.T) {
	opts := DefaultCampaignOptions()
	opts.Queries = 15
	opts.Workers = 4
	opts.Seed = 9
	res, err := RunCampaigns(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.Engines) != 9 {
		t.Fatalf("campaign covered %d engines, want 9", len(res.Stats.Engines))
	}
	if res.Stats.DistinctPlans == 0 {
		t.Error("no cross-engine plans observed")
	}
	if !strings.Contains(res.Stats.String(), "postgresql") {
		t.Error("stats table must render per-engine rows")
	}
	again, err := RunCampaigns(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Findings, res.Findings) {
		t.Errorf("findings not reproducible:\nfirst:  %v\nsecond: %v", res.Findings, again.Findings)
	}
}
