package campaign

import (
	"hash/fnv"
	"sort"
	"sync"

	"uplan/internal/core"
	pstore "uplan/internal/store"
)

// store is the race-safe cross-engine finding store: every campaign task
// pushes its findings and observed plans here, from whichever worker
// goroutine happens to run it. Findings dedup on a fingerprint of
// (engine, oracle, kind, detail) — the only finding dedup the oracles
// get: they emit every finding as it occurs and count the ones this
// store reports as new — and plans dedup on their structural
// fingerprints in one shared core.FingerprintSet, giving the fleet-wide
// "how many distinct plan shapes did the whole campaign see" number no
// single-engine run can produce.
//
// When a durable log backs the store, every newly observed plan key and
// every newly added finding is journaled through it. The in-memory store
// stays authoritative for the run's result; the log is a journal whose
// first persistence failure is captured sticky (logErr) and joined into
// Run's returned error — never dropped, never fatal to the in-flight run.
type store struct {
	mu       sync.Mutex
	plans    *core.FingerprintSet
	seen     map[uint64]struct{}
	findings []Finding
	log      *pstore.Store
	logErr   error
}

func newStore(log *pstore.Store) *store {
	return &store{
		// The same structural options QPG uses for coverage: operations
		// plus configuration property names, never values, so the same
		// plan shape on two engines with different constants collapses.
		plans: core.NewFingerprintSet(core.FingerprintOptions{
			IncludeConfiguration: true,
		}),
		seen: map[uint64]struct{}{},
		log:  log,
	}
}

// seedPlans preloads recovered plan fingerprints. Resume preloads every
// recovered key — even those written by tasks that did not finish —
// because the cross-engine set is a union: re-running an unfinished task
// re-observes the same keys (dedup absorbs them), and the final size
// equals the uninterrupted run's.
func (s *store) seedPlans(keys [][32]byte) {
	for _, fp := range keys {
		s.plans.ObserveKey(fp)
	}
}

// seedFinding preloads one recovered finding without re-journaling it.
// Resume calls this only for findings of tasks whose Done checkpoint was
// recovered: an unfinished task re-runs from a clean per-task dedup space
// (its keys embed the task identity, so no other task is affected), which
// is what keeps MaxFindings counting — and therefore the finding set —
// byte-identical to an uninterrupted run.
func (s *store) seedFinding(f Finding) {
	key := f.fingerprint()
	if _, dup := s.seen[key]; dup {
		return
	}
	s.seen[key] = struct{}{}
	s.findings = append(s.findings, f)
}

// observePlan records the plan's structural fingerprint in the
// cross-engine set and reports whether it was globally new. Safe for
// concurrent use. The plan may be arena-backed and about to be reset —
// only its fingerprint (a fixed-size key) is retained, and only the key
// is journaled.
func (s *store) observePlan(p *core.Plan) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	fp := s.plans.Key(p)
	fresh := s.plans.ObserveKey(fp)
	if s.log != nil && fresh {
		if _, err := s.log.AppendPlan(fp); err != nil && s.logErr == nil {
			s.logErr = err
		}
	}
	return fresh
}

// distinctPlans is the size of the cross-engine plan set.
func (s *store) distinctPlans() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.plans.Size()
}

// add appends the finding unless an equivalent one was already recorded,
// reporting whether it was added. Because the dedup key embeds the
// (engine, oracle) pair — exactly one task per pair — dedup decisions
// never depend on cross-task scheduling: the store's final contents are a
// pure function of each task's sequential, seed-determined output, which
// is what makes the campaign's finding set identical at any worker count.
func (s *store) add(f Finding) bool {
	key := f.fingerprint()
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.seen[key]; dup {
		return false
	}
	s.seen[key] = struct{}{}
	s.findings = append(s.findings, f)
	if s.log != nil {
		// The log's own index dedups too (a resumed task re-producing a
		// finding it journaled before the crash appends no second frame).
		if _, err := s.log.AppendFinding(pstore.Finding{
			Engine: f.Engine,
			Oracle: string(f.Oracle),
			Kind:   string(f.Kind),
			Query:  f.Query,
			Detail: f.Detail,
		}); err != nil && s.logErr == nil {
			s.logErr = err
		}
	}
	return true
}

// checkpoint writes a durable progress record through the log, capturing
// the first failure sticky. Reports whether the checkpoint was durably
// written.
func (s *store) checkpoint(p pstore.TaskProgress) bool {
	if s.log == nil {
		return false
	}
	err := s.log.Checkpoint(p)
	if err != nil {
		s.mu.Lock()
		if s.logErr == nil {
			s.logErr = err
		}
		s.mu.Unlock()
		return false
	}
	return true
}

// persistErr returns the sticky first persistence failure, if any.
func (s *store) persistErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.logErr
}

// sorted snapshots the findings in canonical order (engine, oracle, kind,
// query, detail) — the byte-stable order Run returns.
func (s *store) sorted() []Finding {
	s.mu.Lock()
	out := append([]Finding(nil), s.findings...)
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		switch {
		case a.Engine != b.Engine:
			return a.Engine < b.Engine
		case a.Oracle != b.Oracle:
			return a.Oracle < b.Oracle
		case a.Kind != b.Kind:
			return a.Kind < b.Kind
		case a.Query != b.Query:
			return a.Query < b.Query
		default:
			return a.Detail < b.Detail
		}
	})
	return out
}

// fingerprint hashes the finding's dedup identity.
func (f Finding) fingerprint() uint64 {
	h := fnv.New64a()
	for _, part := range [...]string{f.Engine, string(f.Oracle), string(f.Kind), f.Detail} {
		h.Write([]byte(part))
		h.Write([]byte{0})
	}
	return h.Sum64()
}
