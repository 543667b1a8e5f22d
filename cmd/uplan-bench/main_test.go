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
	for _, name := range []string{"", "tabel6", "Batch", "all "} {
		if checkExperiment(name) == nil {
			t.Errorf("%q accepted", name)
		}
	}
}

// TestUnknownExperimentExits2 runs the binary with a misspelt
// experiment: it must exit 2, naming the valid experiments, before
// running anything.
func TestUnknownExperimentExits2(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "UPLAN_BENCH_ARGS=-experiment tabel6")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit: %v, want status 2\n%s", err, out)
	}
	if !strings.Contains(string(out), `unknown -experiment "tabel6"`) ||
		!strings.Contains(string(out), strings.Join(experiments, ", ")) {
		t.Errorf("output does not name the valid experiments:\n%s", out)
	}
}
