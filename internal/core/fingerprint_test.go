package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFingerprintIgnoresUnstableInfo(t *testing.T) {
	a := samplePlan()
	b := samplePlan()
	// Perturb costs, cardinalities, and status.
	b.Root.Properties[1].Value = Num(123456)
	b.Properties[0].Value = Num(9.99)
	for _, opts := range []FingerprintOptions{
		{},
		{IncludeConfiguration: true},
		{IncludeConfiguration: true, IncludeConfigurationValues: true},
	} {
		if a.Fingerprint(opts) != b.Fingerprint(opts) {
			t.Errorf("fingerprints must ignore unstable info (opts=%+v)", opts)
		}
	}
}

func TestFingerprintSeesStructure(t *testing.T) {
	a := samplePlan()
	b := samplePlan()
	b.Root.AddChild(NewNode(Executor, "Collect"))
	if a.Fingerprint(FingerprintOptions{}) == b.Fingerprint(FingerprintOptions{}) {
		t.Error("added node must change the fingerprint")
	}
	c := samplePlan()
	c.Root.Op.Name = "Sort Aggregate"
	if a.Fingerprint(FingerprintOptions{}) == c.Fingerprint(FingerprintOptions{}) {
		t.Error("renamed operation must change the fingerprint")
	}
}

func TestFingerprintConfigurationGranularity(t *testing.T) {
	base := samplePlan()
	noFilter := samplePlan()
	// Remove the scan's filter Configuration property.
	scan := noFilter.Root.Children[0].Children[0]
	var kept []Property
	for _, pr := range scan.Properties {
		if pr.Name != "filter" {
			kept = append(kept, pr)
		}
	}
	scan.Properties = kept

	plain := FingerprintOptions{}
	withCfg := FingerprintOptions{IncludeConfiguration: true}
	if base.Fingerprint(plain) != noFilter.Fingerprint(plain) {
		t.Error("ops-only fingerprint should not see configuration")
	}
	if base.Fingerprint(withCfg) == noFilter.Fingerprint(withCfg) {
		t.Error("configuration fingerprint must see the filter property")
	}
}

func TestFingerprintNormalizesConstants(t *testing.T) {
	mk := func(pred string) *Plan {
		return &Plan{Root: NewNode(Producer, "Full Table Scan").
			AddProperty(Configuration, "filter", Str(pred))}
	}
	opts := FingerprintOptions{IncludeConfiguration: true, IncludeConfigurationValues: true}
	if mk("c0 < 100").Fingerprint(opts) != mk("c0 < 999").Fingerprint(opts) {
		t.Error("predicates differing only in constants must collide")
	}
	if mk("c0 < 100").Fingerprint(opts) == mk("c1 < 100").Fingerprint(opts) {
		t.Error("different columns must not collide")
	}
}

// TestNormalizeUnstable checks the fingerprint's canonicalization of
// unstable tokens: each value fingerprints like its normalized form, so
// standalone digit runs read as '?', digits glued to a letter stay, and
// whitespace collapses.
func TestNormalizeUnstable(t *testing.T) {
	mk := func(pred string) *Plan {
		return &Plan{Root: NewNode(Producer, "Full Table Scan").
			AddProperty(Configuration, "filter", Str(pred))}
	}
	opts := FingerprintOptions{IncludeConfiguration: true, IncludeConfigurationValues: true}
	for in, normalized := range map[string]string{
		"TableFullScan_17": "TableFullScan_?",
		"cost=12.5..99.1":  "cost=?.?..?.?",
		"c0 < 100":         "c0 < ?",
		"a   b":            "a b",
		" \ta\n":           "a",
		"":                 "",
	} {
		if mk(in).Fingerprint(opts) != mk(normalized).Fingerprint(opts) {
			t.Errorf("%q and %q fingerprint differently", in, normalized)
		}
	}
}

func TestFingerprintPlanProperties(t *testing.T) {
	a := &Plan{Root: NewNode(Producer, "Scan")}
	b := a.Clone()
	b.AddProperty(Configuration, "optimizer mode", Str("aggressive"))
	opts := FingerprintOptions{IncludePlanProperties: true}
	if a.Fingerprint(opts) == b.Fingerprint(opts) {
		t.Error("plan-level configuration should affect fingerprint when enabled")
	}
	if a.Fingerprint(FingerprintOptions{}) != b.Fingerprint(FingerprintOptions{}) {
		t.Error("plan-level configuration ignored by default")
	}
}

func TestFingerprintSet(t *testing.T) {
	s := NewFingerprintSet(FingerprintOptions{})
	p1 := samplePlan()
	if !s.Observe(p1) {
		t.Error("first observation must be new")
	}
	if s.Observe(p1.Clone()) {
		t.Error("second observation must not be new")
	}
	p2 := samplePlan()
	p2.Root.AddChild(NewNode(Executor, "Collect"))
	if !s.Observe(p2) {
		t.Error("structurally different plan must be new")
	}
	if s.Size() != 2 {
		t.Errorf("Size = %d, want 2", s.Size())
	}
	if s.Count(p1) != 2 {
		t.Errorf("Count = %d, want 2", s.Count(p1))
	}
}

func TestFingerprintDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		p := randomPlan(rand.New(rand.NewSource(seed)), 3)
		opts := FingerprintOptions{IncludeConfiguration: true, IncludeConfigurationValues: true}
		return p.Fingerprint(opts) == p.Clone().Fingerprint(opts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestFingerprintBinaryForms checks that the three fingerprint forms —
// hex string, [32]byte digest, and 64-bit fast hash — agree on identity
// and all react to structural changes.
func TestFingerprintBinaryForms(t *testing.T) {
	allOpts := []FingerprintOptions{
		{},
		{IncludeConfiguration: true},
		{IncludeConfiguration: true, IncludeConfigurationValues: true},
		{IncludePlanProperties: true},
	}
	a := samplePlan()
	for _, opts := range allOpts {
		if got, want := a.Fingerprint(opts), HexFingerprint(a.FingerprintBytes(opts)); got != want {
			t.Errorf("hex form diverged from bytes form (opts=%+v): %s vs %s", opts, got, want)
		}
		clone := a.Clone()
		if a.FingerprintBytes(opts) != clone.FingerprintBytes(opts) {
			t.Errorf("FingerprintBytes not deterministic across clones (opts=%+v)", opts)
		}
		if a.Fingerprint64(opts) != clone.Fingerprint64(opts) {
			t.Errorf("Fingerprint64 not deterministic across clones (opts=%+v)", opts)
		}
	}
	b := samplePlan()
	b.Root.AddChild(NewNode(Executor, "Collect"))
	if a.FingerprintBytes(FingerprintOptions{}) == b.FingerprintBytes(FingerprintOptions{}) {
		t.Error("added node must change FingerprintBytes")
	}
	if a.Fingerprint64(FingerprintOptions{}) == b.Fingerprint64(FingerprintOptions{}) {
		t.Error("added node must change Fingerprint64")
	}
}

// TestFingerprintZeroAllocs guards the QPG hot loop: the fast 64-bit
// fingerprint and the FingerprintSet hit path must not touch the heap.
// (Options including configuration values may allocate while rendering
// values and are not guarded.)
func TestFingerprintZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	p := samplePlan()
	opts := FingerprintOptions{IncludeConfiguration: true}
	s := NewFingerprintSet(opts)
	s.Observe(p) // the set now contains p; further observations are hits
	// Warm the pooled walk state so scratch buffers are grown.
	p.Fingerprint64(opts)
	p.FingerprintBytes(opts)
	cases := []struct {
		name string
		fn   func()
	}{
		{"Fingerprint64", func() { p.Fingerprint64(opts) }},
		{"FingerprintBytes", func() { p.FingerprintBytes(opts) }},
		{"Observe hit", func() { s.Observe(p) }},
		{"Count", func() { s.Count(p) }},
	}
	for _, c := range cases {
		if avg := testing.AllocsPerRun(200, c.fn); avg != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, avg)
		}
	}
}

func TestFingerprintPropertyOrderIndependence(t *testing.T) {
	a := &Plan{Root: NewNode(Producer, "Scan").
		AddProperty(Configuration, "a", Str("1")).
		AddProperty(Configuration, "b", Str("2"))}
	b := &Plan{Root: NewNode(Producer, "Scan").
		AddProperty(Configuration, "b", Str("2")).
		AddProperty(Configuration, "a", Str("1"))}
	opts := FingerprintOptions{IncludeConfiguration: true, IncludeConfigurationValues: true}
	if a.Fingerprint(opts) != b.Fingerprint(opts) {
		t.Error("property order must not affect fingerprints")
	}
}
