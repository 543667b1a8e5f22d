package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// The campaign workload re-executes the running binary as its child;
// under go test that is the test binary, so TestMain serves the job.
func TestMain(m *testing.M) {
	if job := os.Getenv(childEnv); job != "" {
		os.Exit(runChild(job))
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bm); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bm
}

func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	bm := readBenchmarkJSON(t)
	var names []string
	for _, w := range bm.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, harness runs %v", names, workloads)
	}
	if len(bm.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, harness %d", len(bm.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := bm.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, harness %+v", i, got, d)
		}
	}
	if !slices.Equal(bm.Paths, []string{"cmd/uplan-perf"}) {
		t.Errorf("paths %v", bm.Paths)
	}
}

// smokeSizes shrink every input so the smoke runs in seconds.
var smokeSizes = sizes{
	coldQueries:     30,
	campaignQueries: 120,
	oracleQueries:   20,
	replayQueries:   10,
}

// TestSmoke runs every workload and the traced ledger with shortened
// lengths against a freshly built uplan-serve, and requires every check
// to pass and the traced run to emit exactly BENCHMARK.json's per-layer
// metrics.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots uplan-serve")
	}
	env, err := newRunEnv(workloads)
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	for _, w := range workloads {
		res := measure(env, w, 7, 400*time.Millisecond, smokeSizes)
		if !res.correct() {
			t.Errorf("%s: %d of %d ops failed: %v", w, res.Failed, res.Attempted, res.Errors)
		}
		for _, d := range endToEnd {
			if res.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w, d.Name, res.Metrics[d.Name].Value)
			}
		}
		if w == "campaign" && (res.Digest == "" || res.StoreBytes == 0) {
			t.Errorf("campaign: digest %q, %d store bytes", res.Digest, res.StoreBytes)
		}
	}

	rf := &runFile{Seed: 7, Seconds: 2, Workloads: map[string]*workloadResult{}}
	var out strings.Builder
	if code := runTraced(env, rf, smokeSizes, "1", "", &out); code != 0 {
		t.Fatalf("traced run exited %d:\n%s", code, out.String())
	}
	want := map[string]string{}
	for _, m := range readBenchmarkJSON(t).PerLayer {
		want[m.Name] = m.Unit
	}
	for name, m := range rf.Layers {
		if unit, ok := want[name]; !ok || unit != m.Unit {
			t.Errorf("traced run emits %s in %s; BENCHMARK.json has %q", name, m.Unit, unit)
		}
	}
	for name := range want {
		if _, ok := rf.Layers[name]; !ok {
			t.Errorf("BENCHMARK.json lists %s; the traced run does not emit it", name)
		}
	}
}
