package codec

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uplan/internal/core"
)

// samplePlan builds a plan that exercises every corner of the format:
// all five value encodings, unknown operation and property categories,
// plan-associated properties, repeated strings (table dedup), and a tree
// whose shape mixes leaf and multi-child nodes.
func samplePlan() *core.Plan {
	scan1 := core.NewNode(core.Producer, "Full Table Scan")
	scan1.AddProperty(core.Cardinality, "rows", core.Num(1050))
	scan1.AddProperty(core.Configuration, "table", core.Str("lineitem"))
	scan2 := core.NewNode(core.Producer, "Full Table Scan")
	scan2.AddProperty(core.Cardinality, "rows", core.Num(25))
	scan2.AddProperty(core.Configuration, "table", core.Str("orders"))
	join := core.NewNode(core.Join, "Hash Join")
	join.AddProperty(core.Cost, "total_cost", core.Num(123.625))
	join.AddProperty(core.Configuration, "condition", core.Str("l_orderkey = o_orderkey"))
	join.AddProperty(core.Status, "parallel", core.BoolVal(true))
	join.AddProperty(core.PropertyCategory("Provenance"), "shard", core.Str("eu-1"))
	join.AddChild(scan1, scan2)
	sort := core.NewNode(core.Combinator, "Sort")
	sort.AddProperty(core.Configuration, "keys", core.Null())
	sort.AddProperty(core.Status, "spilled", core.BoolVal(false))
	sort.AddChild(join)
	exotic := core.NewNode(core.OperationCategory("Quantum"), "Entangle")
	exotic.AddProperty(core.Cardinality, "rows", core.Num(-17))
	root := core.NewNode(core.Projector, "Projection")
	root.AddChild(sort, exotic)
	p := &core.Plan{Source: "postgresql", Root: root}
	p.AddProperty(core.Cost, "planning_time", core.Num(0.183))
	p.AddProperty(core.Status, "jit", core.BoolVal(false))
	return p
}

func mustEncode(t *testing.T, p *core.Plan) []byte {
	t.Helper()
	blob, err := Encode(p)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return blob
}

func mustDecode(t *testing.T, blob []byte, ar *core.PlanArena) *core.Plan {
	t.Helper()
	p, err := DecodeInto(blob, ar)
	if err != nil {
		t.Fatalf("DecodeInto: %v", err)
	}
	return p
}

func TestRoundTrip(t *testing.T) {
	want := samplePlan()
	blob := mustEncode(t, want)
	got := mustDecode(t, blob, core.NewPlanArena())
	if !got.Equal(want) {
		t.Fatalf("round trip diverges:\n got: %s\nwant: %s",
			got.MarshalIndentedText(), want.MarshalIndentedText())
	}
	if got.Source != want.Source {
		t.Fatalf("Source = %q, want %q", got.Source, want.Source)
	}
	opts := core.FingerprintOptions{IncludeConfiguration: true, IncludeConfigurationValues: true}
	if got.FingerprintBytes(opts) != want.FingerprintBytes(opts) {
		t.Fatal("fingerprints diverge after round trip")
	}
}

// TestEncodeFixedPoint pins determinism: encoding is a pure function of
// the plan, and decode→encode reproduces the exact bytes.
func TestEncodeFixedPoint(t *testing.T) {
	p := samplePlan()
	b1 := mustEncode(t, p)
	b2 := mustEncode(t, p)
	if !bytes.Equal(b1, b2) {
		t.Fatal("two encodes of the same plan differ")
	}
	again := mustEncode(t, mustDecode(t, b1, nil))
	if !bytes.Equal(b1, again) {
		t.Fatal("encode→decode→encode is not byte-identical")
	}
}

// TestRoundTripEdgeShapes covers plans at the grammar's edges: no tree at
// all (InfluxDB-style property bags), a bare single node, and special
// float values.
func TestRoundTripEdgeShapes(t *testing.T) {
	plans := []*core.Plan{
		{Source: "influxdb", Properties: []core.Property{
			{Category: core.Cost, Name: "planning_time", Value: core.Num(1.5)},
		}},
		{},
		{Root: core.NewNode(core.Producer, "Values Scan")},
		{Root: core.NewNode(core.Executor, "Gather").AddProperty(core.Cost, "huge", core.Num(math.MaxFloat64)).
			AddProperty(core.Cost, "tiny", core.Num(5e-324)).
			AddProperty(core.Cardinality, "big_int", core.Num(1<<53)).
			AddProperty(core.Cardinality, "neg", core.Num(-(1 << 53)))},
	}
	for i, want := range plans {
		blob := mustEncode(t, want)
		got := mustDecode(t, blob, nil)
		if !got.Equal(want) || got.Source != want.Source {
			t.Errorf("plan %d: round trip diverges", i)
		}
	}
}

// TestZigzagCompaction checks the point of the integral encoding: whole
// cardinalities cost a couple of bytes, not eight.
func TestZigzagCompaction(t *testing.T) {
	small := &core.Plan{Root: core.NewNode(core.Producer, "S").
		AddProperty(core.Cardinality, "r", core.Num(42))}
	frac := &core.Plan{Root: core.NewNode(core.Producer, "S").
		AddProperty(core.Cardinality, "r", core.Num(42.5))}
	bs := mustEncode(t, small)
	bf := mustEncode(t, frac)
	if len(bs) >= len(bf) {
		t.Fatalf("integral value (%d bytes) not smaller than fractional (%d bytes)", len(bs), len(bf))
	}
}

func TestEncodeNilPlan(t *testing.T) {
	if _, err := Encode(nil); err == nil {
		t.Fatal("Encode(nil) succeeded")
	}
}

// TestDecodeRejectsCorruption walks the usual corruption classes: short
// input, wrong magic, future version, truncations, and trailing garbage —
// every one must fail with ErrCorrupt, never panic.
func TestDecodeRejectsCorruption(t *testing.T) {
	blob := mustEncode(t, samplePlan())
	cases := map[string][]byte{
		"empty":        {},
		"short-header": blob[:3],
		"bad-magic":    append([]byte("XXB"), blob[3:]...),
		"bad-version":  append([]byte("UPB\x7f"), blob[4:]...),
		"trailing":     append(append([]byte{}, blob...), 0x00),
	}
	for i := 4; i < len(blob); i += 7 {
		cases[fmt.Sprintf("truncated@%d", i)] = blob[:i]
	}
	for name, data := range cases {
		if _, err := DecodeInto(data, nil); err == nil {
			t.Errorf("%s: corrupt input decoded successfully", name)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: error %v does not wrap ErrCorrupt", name, err)
		}
	}
}

// TestDecodeRejectsNonCanonicalVarint pins the single-representation rule.
func TestDecodeRejectsNonCanonicalVarint(t *testing.T) {
	// Header + empty table (count 0) + node count 0 encoded non-minimally
	// as {0x80, 0x00}.
	data := []byte{'U', 'P', 'B', Version, 0x00, 0x80, 0x00}
	if _, err := DecodeInto(data, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("non-canonical varint accepted (err=%v)", err)
	}
}

// TestDecodeRejectsInconsistentTree covers shape corruption the varint
// layer cannot catch: child counts that over- or under-promise nodes.
func TestDecodeRejectsInconsistentTree(t *testing.T) {
	var e encoder
	// Record claiming 2 nodes whose root declares 0 children.
	rec := []byte{2}                             // node count
	rec = append(rec, byte(e.ref("src")))        // source ref
	rec = append(rec, 0)                         // plan props
	rec = append(rec, 0, byte(e.ref("A")), 0, 0) // node 0: Producer, no props, 0 children
	rec = append(rec, 0, byte(e.ref("A")), 0, 0) // node 1: orphan
	blob := append([]byte{'U', 'P', 'B', Version}, e.appendTable(nil)...)
	blob = append(blob, rec...)
	if _, err := DecodeInto(blob, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("orphan node accepted (err=%v)", err)
	}

	var e2 encoder
	// Record claiming 2 nodes whose root promises 2 children.
	rec = []byte{2}
	rec = append(rec, byte(e2.ref("src")))
	rec = append(rec, 0)
	rec = append(rec, 0, byte(e2.ref("A")), 0, 2)
	rec = append(rec, 0, byte(e2.ref("A")), 0, 0)
	blob = append([]byte{'U', 'P', 'B', Version}, e2.appendTable(nil)...)
	blob = append(blob, rec...)
	if _, err := DecodeInto(blob, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("over-promised children accepted (err=%v)", err)
	}
}

// TestDecodeDeepChainNoOverflow proves the explicit-stack decode survives
// a pathological linear chain that would overflow a recursive decoder.
func TestDecodeDeepChainNoOverflow(t *testing.T) {
	const depth = 200_000
	var e encoder
	rec := make([]byte, 0, depth*4)
	rec = appendUvarintTest(rec, depth)
	rec = appendUvarintTest(rec, e.ref(""))
	rec = append(rec, 0)
	nameRef := e.ref("N")
	for i := 0; i < depth; i++ {
		children := byte(1)
		if i == depth-1 {
			children = 0
		}
		rec = append(rec, 0)
		rec = appendUvarintTest(rec, nameRef)
		rec = append(rec, 0, children)
	}
	blob := append([]byte{'U', 'P', 'B', Version}, e.appendTable(nil)...)
	blob = append(blob, rec...)
	p, err := DecodeInto(blob, core.NewPlanArena())
	if err != nil {
		t.Fatalf("deep chain: %v", err)
	}
	if got := p.NodeCount(); got != depth {
		t.Fatalf("deep chain: %d nodes, want %d", got, depth)
	}
}

func appendUvarintTest(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// TestCorpusRoundTrip packs a corpus through a file, reads it back via
// OpenCorpus (the mmap path on unix), and checks every plan and the
// Rewind/Close contracts.
func TestCorpusRoundTrip(t *testing.T) {
	plans := []*core.Plan{samplePlan(), {}, {Source: "mysql", Root: core.NewNode(core.Producer, "Index Scan")}}
	path := filepath.Join(t.TempDir(), "plans.upc")
	if err := WriteCorpusFile(path, plans); err != nil {
		t.Fatalf("WriteCorpusFile: %v", err)
	}
	r, err := OpenCorpus(path)
	if err != nil {
		t.Fatalf("OpenCorpus: %v", err)
	}
	if r.Len() != len(plans) {
		t.Fatalf("Len = %d, want %d", r.Len(), len(plans))
	}
	ar := core.NewPlanArena()
	for pass := 0; pass < 2; pass++ {
		for i, want := range plans {
			ar.Reset()
			got, err := r.Next(ar)
			if err != nil {
				t.Fatalf("pass %d plan %d: %v", pass, i, err)
			}
			if !got.Equal(want) || got.Source != want.Source {
				t.Fatalf("pass %d plan %d diverges", pass, i)
			}
		}
		if _, err := r.Next(ar); err != io.EOF {
			t.Fatalf("pass %d: after last plan err = %v, want io.EOF", pass, err)
		}
		r.Rewind()
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := r.Next(ar); err == nil {
		t.Fatal("Next succeeded on a closed reader")
	}
}

func TestCorpusWriterSingleUse(t *testing.T) {
	var buf bytes.Buffer
	cw := NewCorpusWriter(&buf)
	if err := cw.Add(samplePlan()); err != nil {
		t.Fatal(err)
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := cw.Add(samplePlan()); err == nil {
		t.Fatal("Add after Flush succeeded")
	}
	if err := cw.Flush(); err == nil {
		t.Fatal("second Flush succeeded")
	}
	// The flushed bytes must read back.
	r, err := NewCorpusReader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
}

func TestCorpusRejectsTrailingGarbage(t *testing.T) {
	var buf bytes.Buffer
	cw := NewCorpusWriter(&buf)
	if err := cw.Add(samplePlan()); err != nil {
		t.Fatal(err)
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	data := append(buf.Bytes(), 0xEE)
	r, err := NewCorpusReader(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(nil); err != nil {
		t.Fatalf("first plan: %v", err)
	}
	if _, err := r.Next(nil); err == nil || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing garbage not reported: err = %v", err)
	}
}

// TestCorpusEmptyFile: zero plans is a valid corpus (mmap of an empty
// region is the edge the size check guards).
func TestCorpusEmptyCorpus(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.upc")
	if err := WriteCorpusFile(path, nil); err != nil {
		t.Fatal(err)
	}
	r, err := OpenCorpus(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 0 {
		t.Fatalf("Len = %d, want 0", r.Len())
	}
	if _, err := r.Next(nil); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}

// TestTableSharing pins the factorised-representation property: a corpus
// of N identical plans is far smaller than N single-plan blobs because
// the table is stored once.
func TestTableSharing(t *testing.T) {
	p := samplePlan()
	single := mustEncode(t, p)
	var buf bytes.Buffer
	cw := NewCorpusWriter(&buf)
	const n = 50
	for i := 0; i < n; i++ {
		if err := cw.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() >= n*len(single)/2 {
		t.Fatalf("corpus of %d identical plans is %d bytes; %d single blobs are %d — table not shared",
			n, buf.Len(), n, n*len(single))
	}
}

// TestDecodeIntoWarmArena pins the reuse contract: decoding the same blob
// repeatedly into one Reset arena must not grow allocations per decode
// beyond the single-digit budget (plan header + decode bookkeeping; all
// nodes, properties, and strings come from warm slabs and the intern
// table).
func TestDecodeIntoWarmArena(t *testing.T) {
	blob := mustEncode(t, samplePlan())
	ar := core.NewPlanArena()
	// Warm up slabs and intern table.
	for i := 0; i < 3; i++ {
		ar.Reset()
		mustDecode(t, blob, ar)
	}
	avg := testing.AllocsPerRun(100, func() {
		ar.Reset()
		if _, err := DecodeInto(blob, ar); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 9 {
		t.Fatalf("warm-arena decode: %.1f allocs/op, budget 9", avg)
	}
}

// TestDecodedPlanSurvivesClose proves the no-alias contract: plans decoded
// from a corpus stay intact after the reader is closed and its buffer
// conceptually unmapped.
func TestDecodedPlanSurvivesClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.upc")
	want := samplePlan()
	if err := WriteCorpusFile(path, []*core.Plan{want}); err != nil {
		t.Fatal(err)
	}
	r, err := OpenCorpus(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Next(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) || !strings.Contains(got.MarshalText(), "Hash_Join") {
		t.Fatal("decoded plan corrupted after reader Close")
	}
}
