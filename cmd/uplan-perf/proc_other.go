//go:build !linux

package main

import (
	"errors"
	"os/exec"
)

// dieWithParent has no portable equivalent outside Linux; children are
// still stopped and waited for on every normal path.
func dieWithParent(*exec.Cmd) {}

// pinToOneCPU uses Linux's CPU affinity; elsewhere the harness runs
// unconfined.
func pinToOneCPU() error { return nil }

// peakRSSMB needs Linux's /proc; elsewhere the runs report an error.
func peakRSSMB(int) (float64, error) {
	return 0, errors.New("peak RSS is read from /proc/<pid>/status, which needs Linux")
}
