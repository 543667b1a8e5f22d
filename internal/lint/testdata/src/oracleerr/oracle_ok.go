package oracleerr

import (
	"context"
	"errors"
	"strings"

	"uplan/internal/bounds"
	"uplan/internal/dbms"
	"uplan/internal/oracle"
	"uplan/internal/pipeline"
	"uplan/internal/store"
)

// This file is the false-positive corpus: handled errors, sentinel
// matching, and recorded worker errors must produce zero diagnostics.

var errGhost = errors.New("ghost table")

// handledAnalyze propagates the signal.
func handledAnalyze(e *dbms.Engine) error {
	if err := e.Analyze(); err != nil {
		return err
	}
	return nil
}

// sentinelMatch is the approved alternative to message matching.
func sentinelMatch(err error) bool {
	return errors.Is(err, errGhost)
}

// containsOverPlainString searches ordinary text, not err.Error().
func containsOverPlainString(s string) bool {
	return strings.Contains(s, "unresolved column")
}

// dropLocal discards a non-deny-listed error outside any worker closure:
// the caller's judgment call, not an oracle drop.
func dropLocal() {
	_ = localErr()
}

func localErr() error { return nil }

// campaignWorkersRecord routes every worker error into the result slice
// the drain step inspects.
func campaignWorkersRecord(e *dbms.Engine, qs []string, errs []error) {
	pipeline.ForEachChunkedCtx(context.Background(), len(qs), 2, 4,
		func() int { return 0 },
		func(s, lo, hi int) {
			for i := lo; i < hi; i++ {
				errs[i] = runOne(e, qs[i])
			}
		},
		func(s int) {})
}

// dispatchHandled runs an oracle the way the orchestrator does: the
// report and the hard failure both flow into the task delta.
func dispatchHandled(o oracle.Oracle, tc *oracle.TaskContext) (oracle.TaskReport, error) {
	rep, err := o.Run(tc)
	return rep, err
}

// boundsSentinelMatch classifies bounds skips the approved way.
func boundsSentinelMatch(e *dbms.Engine, dec *oracle.Decoder, q string) (bool, error) {
	v, err := bounds.Check(e, dec, q)
	if errors.Is(err, bounds.ErrNoBound) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return v != nil, nil
}

// journalHandled captures the store's durability errors sticky, the way
// the campaign store does.
func journalHandled(s *store.Store, f store.Finding, sticky *error) {
	if _, err := s.AppendFinding(f); err != nil && *sticky == nil {
		*sticky = err
	}
	if err := s.Close(); err != nil && *sticky == nil {
		*sticky = err
	}
}
