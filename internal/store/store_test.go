package store

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// testFinding fabricates a distinct finding from an index.
func testFinding(i int) Finding {
	return Finding{
		Engine: fmt.Sprintf("engine%d", i%3),
		Oracle: "qpg",
		Kind:   "logic",
		Query:  fmt.Sprintf("SELECT %d", i),
		Detail: fmt.Sprintf("detail %d", i),
	}
}

// testPlanKey fabricates a distinct fingerprint key from an index.
func testPlanKey(i int) [32]byte {
	var fp [32]byte
	fp[0] = byte(i)
	fp[1] = byte(i >> 8)
	fp[31] = 0xA5
	return fp
}

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

// TestRoundTrip pins the basic contract: everything appended before a
// clean Close is recovered by the next Open, deduplicated, with the
// latest checkpoint per task.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if !s.Recovered().Empty() {
		t.Fatal("fresh directory must recover empty")
	}
	if err := s.AppendMeta([]byte("config v1")); err != nil {
		t.Fatal(err)
	}
	var wantPlans [][32]byte
	var wantFindings []Finding
	for i := 0; i < 40; i++ {
		fp := testPlanKey(i)
		fresh, err := s.AppendPlan(fp)
		if err != nil {
			t.Fatal(err)
		}
		if !fresh {
			t.Fatalf("plan %d reported duplicate on first append", i)
		}
		wantPlans = append(wantPlans, fp)
		f := testFinding(i)
		fresh, err = s.AppendFinding(f)
		if err != nil {
			t.Fatal(err)
		}
		if !fresh {
			t.Fatalf("finding %d reported duplicate on first append", i)
		}
		wantFindings = append(wantFindings, f)
	}
	// Duplicates must not re-log.
	if fresh, err := s.AppendPlan(testPlanKey(7)); err != nil || fresh {
		t.Fatalf("duplicate plan: fresh=%v err=%v", fresh, err)
	}
	if fresh, err := s.AppendFinding(testFinding(7)); err != nil || fresh {
		t.Fatalf("duplicate finding: fresh=%v err=%v", fresh, err)
	}
	cp := TaskProgress{Engine: "postgresql", Oracle: "qpg", Queries: 10}
	if err := s.Checkpoint(cp); err != nil {
		t.Fatal(err)
	}
	cp.Done, cp.Queries, cp.Mutations = true, 30, 4
	if err := s.Checkpoint(cp); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close must be a no-op: %v", err)
	}

	r := mustOpen(t, dir, Options{})
	defer r.Close()
	rec := r.Recovered()
	if string(rec.Meta) != "config v1" {
		t.Errorf("meta = %q", rec.Meta)
	}
	if rec.DroppedBytes != 0 || rec.Truncated != 0 {
		t.Errorf("clean close must not drop bytes: %+v", rec)
	}
	if len(rec.Plans) != len(wantPlans) {
		t.Fatalf("recovered %d plans, want %d", len(rec.Plans), len(wantPlans))
	}
	got := map[[32]byte]bool{}
	for _, fp := range rec.Plans {
		got[fp] = true
	}
	for _, fp := range wantPlans {
		if !got[fp] {
			t.Fatalf("plan %x lost", fp[:4])
		}
	}
	if len(rec.Findings) != len(wantFindings) {
		t.Fatalf("recovered %d findings, want %d", len(rec.Findings), len(wantFindings))
	}
	gotF := map[uint64]bool{}
	for _, f := range rec.Findings {
		gotF[f.key()] = true
	}
	for _, f := range wantFindings {
		if !gotF[f.key()] {
			t.Fatalf("finding %+v lost", f)
		}
	}
	p, ok := rec.Progress[TaskKey{Engine: "postgresql", Oracle: "qpg"}]
	if !ok || !p.Done || p.Queries != 30 || p.Mutations != 4 {
		t.Errorf("latest checkpoint not recovered: %+v (ok=%v)", p, ok)
	}
	if len(rec.Tasks()) != 1 {
		t.Errorf("Tasks() = %v", rec.Tasks())
	}
	// Appending after recovery continues to dedup against the log.
	if fresh, err := r.AppendPlan(testPlanKey(3)); err != nil || fresh {
		t.Errorf("recovered plan index lost key 3: fresh=%v err=%v", fresh, err)
	}
	if fresh, err := r.AppendFinding(testFinding(3)); err != nil || fresh {
		t.Errorf("recovered finding index lost finding 3: fresh=%v err=%v", fresh, err)
	}
}

// buildLog writes a known record sequence through a store and returns
// the log file path plus the expected per-record recovery states: after
// k intact records, expect[k] counts.
type logState struct {
	plans, findings, progress int
}

func buildLog(t *testing.T, dir string) (path string, states []logState, boundaries []int) {
	t.Helper()
	s := mustOpen(t, dir, Options{})
	appendOne := func(i int) {
		switch i % 3 {
		case 0:
			if _, err := s.AppendPlan(testPlanKey(i)); err != nil {
				t.Fatal(err)
			}
		case 1:
			if _, err := s.AppendFinding(testFinding(i)); err != nil {
				t.Fatal(err)
			}
		default:
			if err := s.Checkpoint(TaskProgress{Engine: fmt.Sprintf("e%d", i), Oracle: "tlp", Queries: i}); err != nil {
				t.Fatal(err)
			}
		}
	}
	const records = 12
	var st logState
	states = append(states, st)
	for i := 0; i < records; i++ {
		appendOne(i)
		switch i % 3 {
		case 0:
			st.plans++
		case 1:
			st.findings++
		default:
			st.progress++
		}
		states = append(states, st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path = filepath.Join(dir, "shard-000.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct frame boundaries with the parser itself.
	off := 0
	boundaries = append(boundaries, 0)
	for off < len(data) {
		_, _, size, err := parseFrame(data[off:])
		if err != nil {
			t.Fatalf("valid log failed to parse at %d: %v", off, err)
		}
		off += size
		boundaries = append(boundaries, off)
	}
	if len(boundaries) != records+1 {
		t.Fatalf("log has %d frames, want %d", len(boundaries)-1, records)
	}
	return path, states, boundaries
}

// TestRecoverTruncateAnywhere is the tentpole property: for EVERY byte
// offset of a multi-record log, Open succeeds and recovers exactly the
// record prefix that is fully intact, truncating the rest. In particular
// every recovered checkpoint comes with every plan and finding appended
// before it: the ordering resume relies on, which one append-only file
// provides without syncing anything ahead of the checkpoint frame.
func TestRecoverTruncateAnywhere(t *testing.T) {
	srcDir := t.TempDir()
	path, states, boundaries := buildLog(t, srcDir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	workDir := t.TempDir()
	workPath := filepath.Join(workDir, "shard-000.log")
	for cut := 0; cut <= len(data); cut++ {
		// Intact records = frames that end at or before the cut.
		intact := 0
		for intact+1 < len(boundaries) && boundaries[intact+1] <= cut {
			intact++
		}
		want := states[intact]
		if err := os.WriteFile(workPath, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(workDir, Options{})
		if err != nil {
			t.Fatalf("cut %d: Open failed: %v", cut, err)
		}
		rec := s.Recovered()
		if len(rec.Plans) != want.plans || len(rec.Findings) != want.findings || len(rec.Progress) != want.progress {
			t.Fatalf("cut %d: recovered {%d %d %d}, want %+v",
				cut, len(rec.Plans), len(rec.Findings), len(rec.Progress), want)
		}
		plans := map[[32]byte]bool{}
		for _, fp := range rec.Plans {
			plans[fp] = true
		}
		findings := map[Finding]bool{}
		for _, f := range rec.Findings {
			findings[f] = true
		}
		// buildLog's checkpoint i records Queries: i; records j < i with
		// j%3 == 0 are plans and with j%3 == 1 findings.
		for _, p := range rec.Progress {
			for j := 0; j < p.Queries; j++ {
				if (j%3 == 0 && !plans[testPlanKey(j)]) || (j%3 == 1 && !findings[testFinding(j)]) {
					t.Fatalf("cut %d: checkpoint %d recovered without record %d before it", cut, p.Queries, j)
				}
			}
		}
		wantDrop := int64(cut - boundaries[intact])
		if rec.DroppedBytes != wantDrop {
			t.Fatalf("cut %d: dropped %d bytes, want %d", cut, rec.DroppedBytes, wantDrop)
		}
		// The file must be truncated back to the last frame boundary so
		// appends continue cleanly.
		fi, err := os.Stat(workPath)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if fi.Size() != int64(boundaries[intact]) {
			t.Fatalf("cut %d: file size %d, want %d", cut, fi.Size(), boundaries[intact])
		}
		if err := s.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
	}
}

// TestRecoverBitFlipAnywhere flips every bit of a valid log, one at a
// time, and asserts recovery never decodes the corrupt frame: the
// recovered state is exactly the prefix of records before the flipped
// frame.
func TestRecoverBitFlipAnywhere(t *testing.T) {
	srcDir := t.TempDir()
	path, states, boundaries := buildLog(t, srcDir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	workDir := t.TempDir()
	workPath := filepath.Join(workDir, "shard-000.log")
	for bit := int64(0); bit < int64(len(data))*8; bit++ {
		corrupted := append([]byte(nil), data...)
		corrupted[bit/8] ^= 1 << (bit % 8)
		if err := os.WriteFile(workPath, corrupted, 0o644); err != nil {
			t.Fatal(err)
		}
		// The flipped frame is the one whose byte range covers bit/8.
		frame := 0
		for frame+1 < len(boundaries) && boundaries[frame+1] <= int(bit/8) {
			frame++
		}
		want := states[frame]
		s, err := Open(workDir, Options{})
		if err != nil {
			t.Fatalf("bit %d: Open failed: %v", bit, err)
		}
		rec := s.Recovered()
		if len(rec.Plans) != want.plans || len(rec.Findings) != want.findings || len(rec.Progress) != want.progress {
			t.Fatalf("bit %d (frame %d): recovered {%d %d %d}, want %+v",
				bit, frame, len(rec.Plans), len(rec.Findings), len(rec.Progress), want)
		}
		if rec.Truncated != 1 {
			t.Fatalf("bit %d: Truncated = %d, want 1", bit, rec.Truncated)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("bit %d: close: %v", bit, err)
		}
	}
}

// countingSyncer counts the Sync calls that reach the log file.
type countingSyncer struct {
	WriteSyncer
	syncs *int
}

func (c countingSyncer) Sync() error {
	*c.syncs++
	return c.WriteSyncer.Sync()
}

// TestCheckpointSyncsOnce pins the durability cost: every record goes to
// one file, so a Checkpoint after any number of appends is exactly one
// Sync, and closing a log with nothing new to flush adds none.
func TestCheckpointSyncsOnce(t *testing.T) {
	var syncs int
	s := mustOpen(t, t.TempDir(), Options{Open: func(path string) (WriteSyncer, error) {
		ws, err := OpenFile(path)
		if err != nil {
			return nil, err
		}
		return countingSyncer{ws, &syncs}, nil
	}})
	const checkpoints = 25
	for k := 0; k < checkpoints; k++ {
		for j := 0; j < 8; j++ {
			if _, err := s.AppendPlan(testPlanKey(8*k + j)); err != nil {
				t.Fatal(err)
			}
			if _, err := s.AppendFinding(testFinding(8*k + j)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Checkpoint(TaskProgress{Engine: "tidb", Oracle: "qpg", Queries: k}); err != nil {
			t.Fatal(err)
		}
		if syncs != k+1 {
			t.Fatalf("after %d checkpoints: %d syncs, want %d", k+1, syncs, k+1)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if syncs != checkpoints {
		t.Fatalf("Close on a clean log synced: %d syncs, want %d", syncs, checkpoints)
	}
}

// TestRecoverEdgeCases covers the odd directory states recovery must
// shrug at.
func TestRecoverEdgeCases(t *testing.T) {
	t.Run("missing-directory", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "a", "b", "store")
		s := mustOpen(t, dir, Options{})
		if _, err := s.AppendPlan(testPlanKey(1)); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if got := mustOpen(t, dir, Options{}); got.Plans() != 1 {
			t.Errorf("plans = %d, want 1", got.Plans())
		}
	})
	t.Run("zero-length-log", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "shard-000.log"), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		s := mustOpen(t, dir, Options{})
		defer s.Close()
		if !s.Recovered().Empty() {
			t.Errorf("zero-length log must recover empty: %+v", s.Recovered())
		}
	})
	t.Run("checkpoint-only-log", func(t *testing.T) {
		dir := t.TempDir()
		s := mustOpen(t, dir, Options{})
		for i := 0; i < 5; i++ {
			if err := s.Checkpoint(TaskProgress{Engine: "mysql", Oracle: "cert", Queries: i * 10, Done: i == 4}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		r := mustOpen(t, dir, Options{})
		defer r.Close()
		rec := r.Recovered()
		if len(rec.Plans) != 0 || len(rec.Findings) != 0 {
			t.Errorf("checkpoint-only log recovered data records: %+v", rec)
		}
		p := rec.Progress[TaskKey{Engine: "mysql", Oracle: "cert"}]
		if !p.Done || p.Queries != 40 {
			t.Errorf("latest checkpoint wins: %+v", p)
		}
	})
	t.Run("duplicate-fingerprints-across-shards", func(t *testing.T) {
		// A directory written when appends fanned out over several shard
		// files can hold the same fingerprint in two of them; recovery
		// must dedup across files, not per file.
		dir := t.TempDir()
		fp := testPlanKey(9)
		f := testFinding(9)
		for _, name := range []string{"shard-000.log", "shard-001.log"} {
			var b []byte
			b = appendFrame(b, recPlan, fp[:])
			b = appendFrame(b, recFinding, appendFindingPayload(nil, f))
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		sizes := func() map[string]int64 {
			m := map[string]int64{}
			paths, err := filepath.Glob(filepath.Join(dir, "*"))
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range paths {
				fi, err := os.Stat(p)
				if err != nil {
					t.Fatal(err)
				}
				m[filepath.Base(p)] = fi.Size()
			}
			return m
		}
		before := sizes()
		s := mustOpen(t, dir, Options{})
		defer s.Close()
		rec := s.Recovered()
		if len(rec.Plans) != 1 || len(rec.Findings) != 1 {
			t.Errorf("cross-file dedup failed: %d plans, %d findings", len(rec.Plans), len(rec.Findings))
		}
		// And the rebuilt index still dedups new appends.
		if fresh, err := s.AppendPlan(fp); err != nil || fresh {
			t.Errorf("AppendPlan after cross-file recovery: fresh=%v err=%v", fresh, err)
		}
		// New records all go to shard-000.log; no other file grows or
		// appears.
		for i := 0; i < 20; i++ {
			if _, err := s.AppendPlan(testPlanKey(100 + i)); err != nil {
				t.Fatal(err)
			}
			if _, err := s.AppendFinding(testFinding(100 + i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Checkpoint(TaskProgress{Engine: "mysql", Oracle: "qpg"}); err != nil {
			t.Fatal(err)
		}
		after := sizes()
		if len(after) != len(before) {
			t.Errorf("appends changed the file set: %v -> %v", before, after)
		}
		for name, size := range after {
			if grew := size > before[name]; grew != (name == "shard-000.log") {
				t.Errorf("%s: %d -> %d bytes; only shard-000.log may grow", name, before[name], size)
			}
		}
	})
	t.Run("unknown-record-type-skipped", func(t *testing.T) {
		dir := t.TempDir()
		var b []byte
		fp := testPlanKey(1)
		b = appendFrame(b, recPlan, fp[:])
		b = appendFrame(b, 0x7F, []byte("future record type"))
		// 0x05 is the reserved former plan-blob type: skipped whatever
		// its payload, even one shorter than a fingerprint.
		b = appendFrame(b, 0x05, append(fp[:], "blob"...))
		b = appendFrame(b, 0x05, []byte("short"))
		fp2 := testPlanKey(2)
		b = appendFrame(b, recPlan, fp2[:])
		if err := os.WriteFile(filepath.Join(dir, "shard-000.log"), b, 0o644); err != nil {
			t.Fatal(err)
		}
		s := mustOpen(t, dir, Options{})
		defer s.Close()
		if s.Recovered().DroppedBytes != 0 || len(s.Recovered().Plans) != 2 {
			t.Errorf("records after an unknown type lost: %+v", s.Recovered())
		}
	})
	t.Run("valid-crc-bad-payload-fails-loudly", func(t *testing.T) {
		dir := t.TempDir()
		b := appendFrame(nil, recFinding, []byte{0xFF, 0xFF}) // CRC-valid, undecodable
		if err := os.WriteFile(filepath.Join(dir, "shard-000.log"), b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, Options{}); err == nil {
			t.Error("a CRC-valid frame with a malformed payload is a writer bug and must fail Open")
		}
	})
}

// TestMetaConflict: one log, one configuration.
func TestMetaConflict(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if err := s.AppendMeta([]byte("cfg-a")); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendMeta([]byte("cfg-a")); err != nil {
		t.Fatalf("idempotent re-stamp must succeed: %v", err)
	}
	if err := s.AppendMeta([]byte("cfg-b")); err == nil {
		t.Fatal("conflicting meta must be rejected")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	if string(r.Meta()) != "cfg-a" {
		t.Errorf("recovered meta = %q", r.Meta())
	}
}

// TestStoreConcurrentAppend hammers one store from many goroutines — the
// -race test for the append path — then verifies a clean reopen round-
// trips exactly the deduplicated set.
func TestStoreConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	const goroutines = 8
	const perG = 150
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if _, err := s.AppendPlan(testPlanKey(i % 60)); err != nil {
					errs[g] = err
					return
				}
				if _, err := s.AppendFinding(testFinding(i % 40)); err != nil {
					errs[g] = err
					return
				}
				if i%50 == 0 {
					if err := s.Checkpoint(TaskProgress{Engine: fmt.Sprintf("g%d", g), Oracle: "qpg", Queries: i}); err != nil {
						errs[g] = err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	if s.Plans() != 60 || s.Findings() != 40 {
		t.Fatalf("store holds %d plans / %d findings, want 60 / 40", s.Plans(), s.Findings())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	rec := r.Recovered()
	if len(rec.Plans) != 60 || len(rec.Findings) != 40 || len(rec.Progress) != goroutines {
		t.Errorf("recovered {%d %d %d}, want {60 40 %d}", len(rec.Plans), len(rec.Findings), len(rec.Progress), goroutines)
	}
	if rec.DroppedBytes != 0 {
		t.Errorf("clean close dropped %d bytes", rec.DroppedBytes)
	}
}

// TestFrameRoundTrip pins the codec at the byte level.
func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, {0}, []byte("hello"), make([]byte, 1000)}
	var b []byte
	for i, p := range payloads {
		b = appendFrame(b, byte(i+1), p)
	}
	off := 0
	for i, p := range payloads {
		typ, payload, size, err := parseFrame(b[off:])
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if typ != byte(i+1) || !reflect.DeepEqual(append([]byte{}, payload...), append([]byte{}, p...)) {
			t.Fatalf("frame %d round-trip mismatch", i)
		}
		off += size
	}
	if off != len(b) {
		t.Fatalf("trailing bytes: %d != %d", off, len(b))
	}
}

// TestProgressPayloadRoundTrip covers the checkpoint codec including
// zero values and the done flag.
func TestProgressPayloadRoundTrip(t *testing.T) {
	cases := []TaskProgress{
		{},
		{Engine: "postgresql", Oracle: "qpg", Done: true, Queries: 1 << 30, Statements: 7, PlanQueries: 3, NewPlans: 2, DistinctPlans: 9, Mutations: 1, Checks: 0, Skipped: 5},
		{Engine: "", Oracle: "tlp", Queries: 0},
		{Engine: "sqlite", Oracle: "bounds", Done: true, Queries: 25, Skipped: 11, Extra: map[string]int{"unbounded": 7, "no-estimate": 4}},
	}
	for i, p := range cases {
		got, err := decodeProgressPayload(appendProgressPayload(nil, p))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Fatalf("case %d: %+v != %+v", i, got, p)
		}
	}
	// Records written before the extra-counter tail existed decode with a
	// nil Extra map; the tail is strictly optional.
	legacy := appendProgressPayload(nil, TaskProgress{Engine: "mysql", Oracle: "cert", Done: true, Queries: 3})
	if got, err := decodeProgressPayload(legacy); err != nil || got.Extra != nil {
		t.Fatalf("legacy payload: %+v, %v", got, err)
	}
	if _, err := decodeProgressPayload([]byte{0, 0, 2}); err == nil {
		t.Error("bad done flag must be rejected")
	}
}
