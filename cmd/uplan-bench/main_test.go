package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test run main itself: with UPLAN_BENCH_ARGS set, the
// test binary runs main with those arguments instead of the tests.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("UPLAN_BENCH_ARGS"); ok {
		os.Args = append([]string{"uplan-bench"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestCheckExperiment(t *testing.T) {
	for _, name := range experiments {
		if err := checkExperiment(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for _, name := range []string{"", "tabel6", "Batch", "all ", "batch", "text", "codec"} {
		if checkExperiment(name) == nil {
			t.Errorf("%q accepted", name)
		}
	}
}

// TestUnknownExperimentExits2 runs the binary with a misspelt and a
// retired experiment: each must exit 2, naming the valid experiments,
// before running anything.
func TestUnknownExperimentExits2(t *testing.T) {
	for _, name := range []string{"tabel6", "batch"} {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), "UPLAN_BENCH_ARGS=-experiment="+name)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("%s: exit: %v, want status 2\n%s", name, err, out)
		}
		if !strings.Contains(string(out), `unknown -experiment "`+name+`"`) ||
			!strings.Contains(string(out), strings.Join(experiments, ", ")) {
			t.Errorf("%s: output does not name the valid experiments:\n%s", name, out)
		}
	}
}

// TestAllExperimentPrintsArtifacts runs the binary's default artifact
// path: -experiment all must exit 0 and print every paper artifact.
func TestAllExperimentPrintsArtifacts(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "UPLAN_BENCH_ARGS=-experiment all")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("exit: %v\n%s", err, out)
	}
	for _, header := range []string{
		"== Table VI: average operations per category (TPC-H) ==",
		"== Table VII: YCSB (MongoDB) and WDBench (Neo4j) ==",
		"== Figure 4: Producer-count variance per TPC-H query ==",
		"== Listing 4 / q11 analysis ==",
	} {
		if !strings.Contains(string(out), header) {
			t.Errorf("output lacks %q:\n%s", header, out)
		}
	}
}
