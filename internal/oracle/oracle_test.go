package oracle_test

import (
	"reflect"
	"testing"

	"uplan/internal/core"
	"uplan/internal/dbms"
	"uplan/internal/oracle"
	_ "uplan/internal/oracle/all"
)

// TestRegistryCanonicalOrder pins the registered set and its order:
// explicit ranks, not init timing, decide it — init order across sibling
// packages is unspecified in Go.
func TestRegistryCanonicalOrder(t *testing.T) {
	got := oracle.Names()
	want := []string{"qpg", "cert", "tlp", "bounds"}
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
}

func TestLookup(t *testing.T) {
	for _, name := range oracle.Names() {
		o, ok := oracle.Lookup(name)
		if !ok {
			t.Fatalf("registered oracle %q not found", name)
		}
		if o.Name() != name {
			t.Errorf("oracle registered as %q names itself %q", name, o.Name())
		}
	}
	if _, ok := oracle.Lookup("nope"); ok {
		t.Error("unknown oracle resolved")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration must panic")
		}
	}()
	existing, _ := oracle.Lookup("qpg")
	oracle.Register(existing, 99)
}

// TestDeriveSeedIdentity pins the derivation: stable across calls, and
// distinct per task identity so no two tasks share a generator stream.
func TestDeriveSeedIdentity(t *testing.T) {
	seen := map[int64]string{}
	for _, engine := range []string{"postgresql", "sqlite"} {
		for _, name := range oracle.Names() {
			s := oracle.DeriveSeed(42, engine, name)
			if s != oracle.DeriveSeed(42, engine, name) {
				t.Fatalf("%s/%s: derivation not stable", engine, name)
			}
			if prev, dup := seen[s]; dup {
				t.Fatalf("%s/%s collides with %s", engine, name, prev)
			}
			seen[s] = engine + "/" + name
		}
	}
	// The identity is delimited, not concatenated: ("ab","c") != ("a","bc").
	if oracle.DeriveSeed(1, "ab", "c") == oracle.DeriveSeed(1, "a", "bc") {
		t.Error("engine/oracle boundary not delimited in the seed derivation")
	}
}

// TestTaskContextNilHooks pins standalone use: with no orchestrator hooks
// attached, every finding is new, plans are never globally new, and the
// task never stops early.
func TestTaskContextNilHooks(t *testing.T) {
	tc := &oracle.TaskContext{}
	if !tc.Emit(oracle.Finding{Kind: oracle.KindLogic}) {
		t.Error("Emit without a Report hook must count as new")
	}
	if tc.Observe(&core.Plan{}) {
		t.Error("Observe without a hook must report not-new")
	}
	if !tc.Alive(5) {
		t.Error("Alive without a Tick hook must keep running")
	}
}

// TestTaskContextLoop pins the budget policy every oracle's query loop
// shares: what stops the loop, and which queries it counts.
func TestTaskContextLoop(t *testing.T) {
	acceptEveryOther := func() func(oracle.Finding) bool {
		n := 0
		return func(oracle.Finding) bool { n++; return n%2 == 1 }
	}
	for _, tt := range []struct {
		name        string
		tc          oracle.TaskContext
		emit        bool // the step emits one finding per query
		stopAt      int  // the step returns false on this call; 0 never
		wantQueries int
	}{
		{
			name:        "budget spent",
			tc:          oracle.TaskContext{Queries: 5, MaxFindings: 1},
			wantQueries: 5,
		},
		{
			name:        "MaxFindings counts only findings Report accepts",
			tc:          oracle.TaskContext{Queries: 10, MaxFindings: 2, Report: acceptEveryOther()},
			emit:        true,
			wantQueries: 3,
		},
		{
			name:        "Alive false stops before a query is counted",
			tc:          oracle.TaskContext{Queries: 10, Tick: func(queries int) bool { return queries < 2 }},
			wantQueries: 2,
		},
		{
			name:        "step false stops after its query is counted",
			tc:          oracle.TaskContext{Queries: 10},
			stopAt:      3,
			wantQueries: 3,
		},
		{
			name:        "nil Report counts every Emit",
			tc:          oracle.TaskContext{Queries: 10, MaxFindings: 4},
			emit:        true,
			wantQueries: 4,
		},
	} {
		t.Run(tt.name, func(t *testing.T) {
			tc := tt.tc
			var rep oracle.TaskReport
			steps := 0
			tc.Loop(&rep, func() bool {
				steps++
				if rep.Queries != steps {
					t.Errorf("step %d sees Queries = %d", steps, rep.Queries)
				}
				if tt.emit {
					tc.Emit(oracle.Finding{Kind: oracle.KindLogic})
				}
				return steps != tt.stopAt
			})
			if rep.Queries != tt.wantQueries || steps != tt.wantQueries {
				t.Errorf("Queries = %d after %d steps, want %d", rep.Queries, steps, tt.wantQueries)
			}
		})
	}
}

// TestRunNeedsDecoder: every oracle that decodes plans refuses a context
// without a decoder as a hard setup error, instead of running plan-blind
// or building a decoder of its own. TLP never decodes, so it runs.
func TestRunNeedsDecoder(t *testing.T) {
	decodes := map[string]bool{"qpg": true, "cert": true, "tlp": false, "bounds": true}
	for _, name := range oracle.Names() {
		want, ok := decodes[name]
		if !ok {
			t.Errorf("oracle %q: the table must say whether it decodes plans", name)
			continue
		}
		o, _ := oracle.Lookup(name)
		tc := &oracle.TaskContext{Engine: dbms.MustNew("postgresql"), Queries: 5, Tables: 1, Rows: 4}
		_, err := o.Run(tc)
		switch {
		case want && err == nil:
			t.Errorf("%s: a task context without a decoder must fail", name)
		case !want && err != nil:
			t.Errorf("%s never decodes, yet failed without a decoder: %v", name, err)
		}
	}
}

func TestCountersAddExtra(t *testing.T) {
	var c oracle.Counters
	c.AddExtra("unbounded", 2)
	c.AddExtra("unbounded", 3)
	c.AddExtra("no-estimate", 1)
	if c.Extra["unbounded"] != 5 || c.Extra["no-estimate"] != 1 {
		t.Errorf("Extra = %v", c.Extra)
	}
}

func TestCountersAdd(t *testing.T) {
	c := oracle.Counters{Queries: 1, Checks: 2}
	c.Add(oracle.Counters{
		Queries: 10, PlanQueries: 3, NewPlans: 2, DistinctPlans: 2,
		Mutations: 1, Checks: 5, Skipped: 4, Extra: map[string]int{"unbounded": 7},
	})
	c.Add(oracle.Counters{Extra: map[string]int{"unbounded": 1}})
	want := oracle.Counters{
		Queries: 11, PlanQueries: 3, NewPlans: 2, DistinctPlans: 2,
		Mutations: 1, Checks: 7, Skipped: 4, Extra: map[string]int{"unbounded": 8},
	}
	if !reflect.DeepEqual(c, want) {
		t.Errorf("Add = %+v, want %+v", c, want)
	}
}
