package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

// workloads lists every workload in run order.
var workloads = []string{"serve-hot", "serve-cold", "serve-batch", "campaign"}

// setupRuns is how many times a run sets its workload up, timed: cold
// server boots or one-query campaigns. setup_s is their median.
const setupRuns = 9

func main() {
	if job := os.Getenv(childEnv); job != "" {
		os.Exit(runChild(job))
	}
	if err := pinToOneCPU(); err != nil {
		fmt.Fprintln(os.Stderr, "uplan-perf:", err)
		os.Exit(1)
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run is main with an exit code: 0 when every check passed, 1 when a
// check failed or the run broke, 2 on bad usage.
func run(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("uplan-perf", flag.ContinueOnError)
	workload := fl.String("workload", "", "run only this workload ("+strings.Join(workloads, ", ")+"); empty runs all")
	seed := fl.Int64("seed", 42, "workload seed; the same seed gives the same inputs")
	seconds := fl.Float64("seconds", 15, "measured seconds per workload")
	trace := fl.String("trace", "0", "0: untraced run; 1: traced run over every workload, printing every per-layer metric; FILE: the same, also writing its spans to FILE")
	out := fl.String("out", "", "write the run's results as JSON to this file")
	compare := fl.Bool("compare", false, "compare two sets of -out files: -compare 'base/*.json' 'head/*.json'")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fl.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "uplan-perf: -compare takes two file patterns")
			return 2
		}
		return runCompare(fl.Arg(0), fl.Arg(1), stdout)
	}
	if fl.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "uplan-perf: unexpected arguments %q\n", fl.Args())
		return 2
	}
	selected := workloads
	if *workload != "" {
		if !slices.Contains(workloads, *workload) {
			fmt.Fprintf(os.Stderr, "uplan-perf: unknown workload %q (have %s)\n", *workload, strings.Join(workloads, ", "))
			return 2
		}
		selected = []string{*workload}
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "uplan-perf: -seconds must be positive")
		return 2
	}
	if *trace != "0" {
		selected = workloads // the layer ledger covers every workload
	}

	env, err := newRunEnv(selected)
	if err != nil {
		fmt.Fprintln(os.Stderr, "uplan-perf:", err)
		return 1
	}
	defer env.close()

	rf := &runFile{Seed: *seed, Seconds: *seconds, Workloads: map[string]*workloadResult{}}
	if *trace != "0" {
		return runTraced(env, rf, fullSizes, *trace, *out, stdout)
	}
	ok := true
	for _, name := range selected {
		res := measure(env, name, *seed, time.Duration(*seconds*float64(time.Second)), fullSizes)
		rf.Workloads[name] = res
		printWorkload(stdout, name, res)
		ok = ok && res.correct()
	}
	if *out != "" {
		if err := writeJSONFile(*out, rf); err != nil {
			fmt.Fprintln(os.Stderr, "uplan-perf:", err)
			return 1
		}
	}
	if len(selected) == 1 {
		res := rf.Workloads[selected[0]]
		line := resultLine{Correct: res.correct(), Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
		for _, d := range endToEnd {
			line.Metrics[d.Name] = res.Metrics[d.Name]
		}
		if err := printLine(stdout, line); err != nil {
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// measure runs one workload untraced. A workload that cannot run at all
// is reported as one failed op with its error.
func measure(env *runEnv, name string, seed int64, dur time.Duration, sz sizes) *workloadResult {
	var res *workloadResult
	var err error
	if name == "campaign" {
		res, err = runCampaign(env.work, seed, dur, sz)
	} else {
		var in *serveInputs
		if in, err = buildServeInputs([]string{name}, seed, sz); err == nil {
			res, err = runServe(name, env.server, in, dur)
		}
	}
	if err != nil {
		res = newWorkloadResult()
		res.Attempted, res.Failed = 1, 1
		res.Errors = append(res.Errors, err.Error())
	}
	res.finish()
	return res
}

func printLine(w io.Writer, line any) error {
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(data))
	return err
}

// runEnv is where a run builds and keeps its files: .bench_build at the
// repository root, so nothing lands outside the checkout.
type runEnv struct {
	work   string // this run's scratch directory, removed by close
	server string // built uplan-serve binary; empty when no serve workload runs
}

func newRunEnv(selected []string) (*runEnv, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, err
	}
	env := &runEnv{work: work}
	for _, name := range selected {
		if strings.HasPrefix(name, "serve-") {
			if env.server, err = buildServer(root, work); err != nil {
				env.close()
				return nil, err
			}
			break
		}
	}
	return env, nil
}

func (e *runEnv) close() { os.RemoveAll(e.work) }

// repoRoot walks up from the working directory to the go.mod that
// declares module uplan: the repository whose cmd/uplan-serve is measured.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && modulePath(string(data)) == "uplan" {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the uplan repository: no go.mod declares module uplan")
		}
		dir = parent
	}
}

func modulePath(gomod string) string {
	for _, line := range strings.Split(gomod, "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1]
		}
	}
	return ""
}
