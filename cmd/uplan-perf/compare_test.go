package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

var (
	lowerDef  = metricDef{"latency_p50_ms", "ms", "lower", 0.10}
	higherDef = metricDef{"ops_per_s", "ops/s", "higher", 0.10}
)

// around returns five values spread ±2% around m.
func around(m float64) []float64 {
	return []float64{m * 0.98, m * 0.99, m, m * 1.01, m * 1.02}
}

func TestJudgeVerdicts(t *testing.T) {
	for _, c := range []struct {
		name       string
		def        metricDef
		base, head []float64
		paired     bool
		want       verdict
	}{
		{"same", lowerDef, around(100), around(101), true, within},
		{"slower past the bound", lowerDef, around(100), around(115), true, worse},
		{"less throughput past the bound", higherDef, around(100), around(85), true, worse},
		{"small slowdown inside the bound", lowerDef, around(100), around(108), true, within},
		{"faster beyond the base spread", lowerDef, around(100), around(90), true, better},
		{"more throughput, unpaired", higherDef, around(100), around(110), false, better},
		{"gain inside the base spread", lowerDef, []float64{95, 97.5, 100, 102.5, 105}, around(97), true, within},
		{"base spread wider than the bound", lowerDef, []float64{70, 90, 100, 110, 130}, around(100), true, unresolved},
		{"head spread wider than the bound", higherDef, around(100), []float64{70, 90, 100, 110, 130}, false, unresolved},
		{"noisy but every head run is worse", lowerDef, []float64{70, 80, 90, 100, 110}, []float64{130, 150, 170, 190, 210}, true, worse},
		{"noisy but every head run is better", higherDef, []float64{70, 80, 90, 100, 110}, []float64{130, 150, 170, 190, 210}, true, better},
	} {
		if got := judge(c.def, c.base, c.head, c.paired).Verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestJudgePairWins(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 100, 101, 99, 100, 102}
	head := []float64{90, 91, 89, 90, 92, 90, 91, 89, 103, 104} // two of ten pairs lost
	j := judge(lowerDef, base, head, true)
	if j.PairWins != 0.8 {
		t.Fatalf("pair wins %v, want 0.8", j.PairWins)
	}
	if j.Verdict != within {
		t.Errorf("a gain winning 8 of 10 pairs is %s, want within", j.Verdict)
	}
	if j := judge(lowerDef, base, head, false); !math.IsNaN(j.PairWins) || j.Verdict != better {
		t.Errorf("unpaired: pair wins %v verdict %s, want NaN and better", j.PairWins, j.Verdict)
	}
}

// writeRuns writes one -out file per run into dir under prefix.
func writeRuns(t *testing.T, dir, prefix string, runs []*runFile) string {
	t.Helper()
	for i, r := range runs {
		if err := writeJSONFile(filepath.Join(dir, fmt.Sprintf("%s-%02d.json", prefix, i)), r); err != nil {
			t.Fatal(err)
		}
	}
	return filepath.Join(dir, prefix+"-*.json")
}

func fakeRun(seed int64, ops, failedFrac float64, digest string) *runFile {
	res := newWorkloadResult()
	for _, d := range endToEnd {
		res.set(d.Name, 1)
	}
	res.set("ops_per_s", ops)
	res.set("failed_frac", failedFrac)
	camp := newWorkloadResult()
	camp.set("ops_per_s", 1)
	camp.Digest, camp.StoreBytes = digest, 100
	return &runFile{Seed: seed, Seconds: 10, Workloads: map[string]*workloadResult{"serve-hot": res, "campaign": camp}}
}

func TestCompareExitCodes(t *testing.T) {
	base := []*runFile{fakeRun(1, 100, 0, "d1"), fakeRun(1, 101, 0, "d1"), fakeRun(2, 99, 0, "d2")}
	for _, c := range []struct {
		name string
		head []*runFile
		want int
		out  string
	}{
		{"unchanged", []*runFile{fakeRun(1, 100, 0, "d1"), fakeRun(1, 100, 0, "d1"), fakeRun(2, 100, 0, "d2")}, 0, "within"},
		{"throughput fell", []*runFile{fakeRun(1, 70, 0, "d1"), fakeRun(1, 71, 0, "d1"), fakeRun(2, 69, 0, "d2")}, 1, "worse"},
		{"failures appeared", []*runFile{fakeRun(1, 100, 0.01, "d1"), fakeRun(1, 100, 0, "d1"), fakeRun(2, 100, 0, "d2")}, 1, "failed_frac rose"},
		{"digest differs at one seed", []*runFile{fakeRun(1, 100, 0, "d1"), fakeRun(1, 100, 0, "dX"), fakeRun(2, 100, 0, "d2")}, 1, "disagree"},
	} {
		dir := t.TempDir()
		var out strings.Builder
		got := runCompare(writeRuns(t, dir, "base", base), writeRuns(t, dir, "head", c.head), &out)
		if got != c.want || !strings.Contains(out.String(), c.out) {
			t.Errorf("%s: exit %d, want %d; output lacks %q:\n%s", c.name, got, c.want, c.out, out.String())
		}
	}
	if got := runCompare(filepath.Join(t.TempDir(), "*.json"), "x", io.Discard); got != 2 {
		t.Errorf("no matching files: exit %d, want 2", got)
	}
}

func TestUnknownWorkloadExitsNonZero(t *testing.T) {
	if got := run([]string{"-workload", "serve-warm"}, io.Discard); got == 0 {
		t.Error("unknown workload exited 0")
	}
}
