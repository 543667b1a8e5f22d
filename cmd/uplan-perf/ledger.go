package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"uplan/internal/codec"
	"uplan/internal/convert"
	"uplan/internal/core"
	"uplan/internal/dbms"
	"uplan/internal/exec"
	"uplan/internal/explain"
	"uplan/internal/pipeline"
	"uplan/internal/planner"
	"uplan/internal/serve"
	"uplan/internal/sql"
	"uplan/internal/sqlancer"
	"uplan/internal/store"
)

// The traced run is the layer ledger. Every workload runs briefly
// untraced and then traced: a traced op is a root "request" span whose
// first child is the real TCP round trip, followed by the same input
// replayed in-process through each layer's public entry points. A
// single-threaded pass over the serve-cold stream then gives per-plan
// costs and allocation counts, and a stage replay of generated queries
// covers the layers the campaign runs through.

// runTraced performs the traced run over every workload and prints every
// per-layer metric; spansPath "1" keeps the spans in memory only.
func runTraced(env *runEnv, rf *runFile, sz sizes, spansPath, outPath string, stdout io.Writer) int {
	// Each workload runs one untraced and one traced phase.
	phase := time.Duration(rf.Seconds / float64(2*len(workloads)) * float64(time.Second))
	lg := &ledger{sz: sz, layers: map[string]metricValue{}}
	if err := lg.run(env, rf, phase); err != nil {
		lg.fail(err)
	}
	for _, n := range slices.Sorted(maps.Keys(lg.layers)) {
		fmt.Fprintf(stdout, "   %-44s %16.4f %s\n", n, lg.layers[n].Value, lg.layers[n].Unit)
	}
	for _, w := range workloads {
		if top, share := lg.largestShare(w); top != "" {
			fmt.Fprintf(stdout, "== %s: largest share %s (%.3f of the round trip p50)\n", w, top, share)
		}
	}
	for _, e := range lg.errors {
		fmt.Fprintln(stdout, "   error:", e)
	}
	rf.Layers = lg.layers
	if spansPath != "1" {
		if err := writeSpans(spansPath, lg.tracers); err != nil {
			lg.fail(err)
		}
	}
	if outPath != "" {
		if err := writeJSONFile(outPath, rf); err != nil {
			lg.fail(err)
		}
	}
	correct := lg.failed == 0 && len(lg.errors) == 0
	if err := printLine(stdout, resultLine{Correct: correct, Attempted: lg.attempted, Failed: lg.failed, Metrics: lg.layers}); err != nil || !correct {
		return 1
	}
	return 0
}

// ledger accumulates a traced run's spans, metrics and failures.
type ledger struct {
	sz        sizes
	layers    map[string]metricValue
	tracers   []*tracer
	attempted int64
	failed    int64
	errors    []string
}

func (lg *ledger) set(name, unit string, v float64) {
	lg.layers[name] = metricValue{Value: v, Unit: unit}
}

func (lg *ledger) fail(err error) {
	lg.attempted++
	lg.failed++
	lg.errors = append(lg.errors, err.Error())
}

// count folds a phase's op counts in.
func (lg *ledger) count(lr loadResult) {
	ops, failed := lr.counts()
	lg.attempted += ops
	lg.failed += failed
	if lr.FirstErr != nil {
		lg.errors = append(lg.errors, lr.FirstErr.Error())
	}
}

func (lg *ledger) run(env *runEnv, rf *runFile, phase time.Duration) error {
	serveWorkloads := workloads[:len(workloads)-1]
	in, err := buildServeInputs(serveWorkloads, rf.Seed, lg.sz)
	if err != nil {
		return err
	}
	epoch := time.Now()
	ids := new(atomic.Int64)
	counters := map[string]int64{}
	for _, w := range serveWorkloads {
		if err := lg.tracedServe(env.server, w, in, phase, epoch, ids, counters); err != nil {
			return fmt.Errorf("%s: %w", w, err)
		}
	}
	for _, c := range []string{"shed", "queue_wait_expired", "deadline_exceeded", "write_errors"} {
		lg.set("serve."+c, "count", float64(counters[c]))
	}
	if err := lg.tracedCampaign(env.work, rf, phase); err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	rt := newTracer(epoch, ids)
	lg.tracers = append(lg.tracers, rt)
	if err := lg.replay(rt, env.work, rf.Seed, lg.sz.replayQueries); err != nil {
		return fmt.Errorf("stage replay: %w", err)
	}
	if err := lg.perPlan(in.cold); err != nil {
		return fmt.Errorf("per-plan ledger: %w", err)
	}
	lg.spanMetrics()
	return nil
}

// tracedServe runs one serve workload untraced and then traced against
// its own server, with an in-process server of default options for the
// handler replays.
func (lg *ledger) tracedServe(bin, w string, in *serveInputs, phase time.Duration, epoch time.Time, ids *atomic.Int64, counters map[string]int64) error {
	srv, err := startServer(bin)
	if err != nil {
		return err
	}
	defer srv.kill()
	cl := newClient(srv.base)
	op := serveOp(w, in, cl)
	if err := warm(w, in, op); err != nil {
		return err
	}
	untraced := closedLoop(phase, op)
	lg.count(untraced)
	snap, err := cl.Metrics(context.Background())
	if err != nil {
		return err
	}
	counters["shed"] += snap.Shed.Single + snap.Shed.Batch
	counters["queue_wait_expired"] += snap.Shed.QueueWaitExpired
	counters["deadline_exceeded"] += snap.DeadlineExceeded
	counters["write_errors"] += snap.WriteErrors
	if w == "serve-hot" || w == "serve-cold" {
		ratio := 0.0
		if tot := snap.Cache.Hits + snap.Cache.Misses; tot > 0 {
			ratio = float64(snap.Cache.Hits) / float64(tot)
		}
		lg.set("serve.cache_hit_ratio."+w, "ratio", ratio)
	}

	inproc := serve.New(serve.Options{})
	t := newTracer(epoch, ids)
	lg.tracers = append(lg.tracers, t)
	traced := closedLoop(phase, tracedServeOp(w, in, op, inproc.Handler(), t))
	lg.count(traced)
	if err := inproc.Drain(context.Background()); err != nil {
		return err
	}
	if _, err := srv.stop(); err != nil {
		return err
	}

	lg.set("trace.overhead."+w, "ratio", 1-opsPerSec(traced)/opsPerSec(untraced))
	return nil
}

func opsPerSec(lr loadResult) float64 {
	ops, failed := lr.counts()
	return float64(ops-failed) / lr.Elapsed.Seconds()
}

// replayFunc replays request i of a workload in-process under root.
type replayFunc func(t *tracer, root int, ar *core.PlanArena, i int64) error

// tracedServeOp wraps a workload's op: root span, the real round trip,
// then the in-process replay of the same input.
func tracedServeOp(w string, in *serveInputs, op opFunc, h http.Handler, t *tracer) opFunc {
	replay := serveReplay(w, in, h)
	arena := core.NewPlanArena()
	return func(i int64) (int, time.Duration, error) {
		root := t.root(w, "", "")
		rt := t.begin(root, "serveclient.roundtrip", "", "")
		n, took, err := op(i)
		t.spans[rt].EndNS = t.spans[rt].StartNS + int64(took)
		rerr := replay(t, root, arena, i)
		arena.Reset()
		t.end(root)
		if err == nil {
			err = rerr
		}
		return n, took, err
	}
}

// handle sends one request through the in-process handler, as the
// server's listener would, under a serve.handler span.
func handle(t *tracer, root int, h http.Handler, path, contentType string, body []byte) error {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	if contentType == serve.BinaryContentType {
		req.Header.Set("Accept", serve.BinaryContentType)
	}
	rec := httptest.NewRecorder()
	sp := t.begin(root, "serve.handler", "", "")
	h.ServeHTTP(rec, req)
	t.end(sp)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("in-process %s: status %d: %s", path, rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	return nil
}

// convertSpan converts r into ar under a convert span.
func convertSpan(t *tracer, root int, r record, ar *core.PlanArena) (*core.Plan, error) {
	sp := t.begin(root, "convert", r.Dialect, string(r.Format))
	p, err := convert.ConvertInto(r.Dialect, r.Serialized, ar)
	t.end(sp)
	return p, err
}

func serveReplay(w string, in *serveInputs, h http.Handler) replayFunc {
	switch w {
	default: // serve-hot, serve-cold
		recs := in.hot
		if w == "serve-cold" {
			recs = in.cold
		}
		return func(t *tracer, root int, ar *core.PlanArena, i int64) error {
			r := recs[i%int64(len(recs))]
			t.spans[root].Dialect, t.spans[root].Format = r.Dialect, string(r.Format)
			body, err := json.Marshal(serve.ConvertRequest{Dialect: r.Dialect, Serialized: r.Serialized})
			if err != nil {
				return err
			}
			if err := handle(t, root, h, "/v1/convert", "application/json", body); err != nil {
				return err
			}
			p, err := convertSpan(t, root, r, ar)
			if err != nil {
				return err
			}
			sp := t.begin(root, "core.fingerprint", r.Dialect, string(r.Format))
			fp := p.FingerprintBytes(core.FingerprintOptions{})
			fp64 := p.Fingerprint64(core.FingerprintOptions{})
			t.end(sp)
			sp = t.begin(root, "core.marshal_json", r.Dialect, string(r.Format))
			_, err = p.MarshalJSON()
			t.end(sp)
			if err != nil {
				return err
			}
			if fp != r.FP || fp64 != r.FP64 {
				return fmt.Errorf("replayed %s/%s: fingerprint mismatch", r.Dialect, r.Format)
			}
			return nil
		}
	case "serve-batch":
		return func(t *tracer, root int, ar *core.PlanArena, i int64) error {
			b := i % int64(len(in.batches))
			recs := in.cold[b*batchRecords : (b+1)*batchRecords]
			body := serve.AppendBinaryBatchRequest(nil, serve.BatchRequest{Records: in.batches[b]})
			if err := handle(t, root, h, "/v1/batch-convert", serve.BinaryContentType, body); err != nil {
				return err
			}
			records := make([]pipeline.Record, len(recs))
			for k, r := range recs {
				records[k] = pipeline.Record{Dialect: r.Dialect, Serialized: r.Serialized}
			}
			sp := t.begin(root, "pipeline.convert_batch", "", "")
			results, _ := pipeline.ConvertBatch(records, pipeline.Options{})
			t.end(sp)
			resp := serve.BinaryBatchResponse{Results: make([]serve.BinaryBatchItem, len(results))}
			sp = t.begin(root, "codec.encode", "", "")
			for k, res := range results {
				if res.Err != nil {
					t.end(sp)
					return fmt.Errorf("replayed batch slot %d: %w", k, res.Err)
				}
				blob, err := codec.Encode(res.Plan)
				if err != nil {
					t.end(sp)
					return err
				}
				resp.Results[k].PlanBlob = blob
			}
			t.end(sp)
			sp = t.begin(root, "serve.wirebin.batch_encode", "", "")
			data := serve.AppendBinaryBatchResponse(nil, resp)
			t.end(sp)
			sp = t.begin(root, "serve.wirebin.batch_decode", "", "")
			dec, err := serve.DecodeBinaryBatchResponse(data)
			t.end(sp)
			if err != nil {
				return err
			}
			plans := make([]*core.Plan, len(dec.Results))
			sp = t.begin(root, "codec.decode", "", "")
			for k, it := range dec.Results {
				if plans[k], err = codec.DecodeInto(it.PlanBlob, ar); err != nil {
					t.end(sp)
					return err
				}
			}
			t.end(sp)
			for k, p := range plans {
				if p.FingerprintBytes(core.FingerprintOptions{}) != recs[k].FP {
					return fmt.Errorf("replayed batch slot %d: fingerprint mismatch", k)
				}
			}
			return nil
		}
	}
}

// tracedCampaign runs the campaign's rounds for one phase, then a traced
// child: round 0 rerun untraced and then with checkpoint spans, each warm,
// and one campaign per oracle.
func (lg *ledger) tracedCampaign(workDir string, rf *runFile, phase time.Duration) error {
	rounds, _, err := measureRounds(workDir, rf.Seed, phase, lg.sz.campaignQueries)
	if err != nil {
		return err
	}
	rep, err := startCampaignChild(workDir, childJob{
		Kind: "traced", Seed: subSeed(rf.Seed, 0), Queries: lg.sz.campaignQueries, OracleQueries: lg.sz.oracleQueries,
	})
	if err != nil {
		return err
	}
	for _, r := range rounds {
		lg.attempted += int64(max(r.Queries, 1))
		if r.Err != "" {
			lg.failed += int64(max(r.Queries, 1))
			lg.errors = append(lg.errors, r.Err)
		}
	}
	tr, ref := rep.TracedRound, rep.TracedRef
	for _, r := range []*roundReport{tr, ref} {
		if r == nil || r.Err != "" || r.Digest != rounds[0].Digest {
			return fmt.Errorf("rerun of round 0 disagrees with it: %+v", r)
		}
	}
	lg.set("trace.overhead.campaign", "ratio", 1-(float64(tr.Queries)/tr.Seconds)/(float64(ref.Queries)/ref.Seconds))
	// How many rounds fit in the phase depends on the machine; round 0's
	// counts depend on the seed alone.
	r0 := rounds[0]
	lg.set("store.bytes_written", "bytes", float64(r0.StoreBytes))
	lg.set("campaign.new_plan_ratio", "ratio", ratio(r0.NewPlans, r0.PlanQueries))
	lg.set("campaign.findings", "count", float64(r0.Findings))
	lg.set("cert.skip_ratio", "ratio", ratio(r0.CertSkipped, r0.CertChecks+r0.CertSkipped))
	lg.set("bounds.no_estimate_ratio", "ratio", ratio(r0.NoEstimate, r0.BoundsRuns))
	for o, qps := range rep.OracleQPS {
		lg.set("oracle."+o+".queries_per_s", "queries/s", qps)
	}
	return nil
}

func ratio(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// replay runs n generated queries per engine through the stages a
// campaign query passes, each as its own call, on a schema built with
// oracle.ApplySchema, journaling each plan fingerprint to a fresh store
// with a checkpoint every checkpointEvery queries.
func (lg *ledger) replay(t *tracer, workDir string, seed int64, n int) error {
	dir, err := os.MkdirTemp(workDir, "replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	ar := core.NewPlanArena()
	for _, name := range dbms.Names() {
		e, g, err := seededEngine(name, seed)
		if err != nil {
			return err
		}
		f := string(e.DefaultFormat())
		for q := 0; q < n; q++ {
			root := t.root("campaign", name, f)
			err := replayQuery(t, root, e, g, ar, log)
			if err == nil && (q+1)%checkpointEvery == 0 {
				sp := t.begin(root, "store.checkpoint", name, f)
				err = log.Checkpoint(store.TaskProgress{Engine: name, Oracle: "replay", Queries: q + 1})
				t.end(sp)
			}
			ar.Reset()
			t.end(root)
			lg.attempted++
			if err != nil {
				lg.failed++
				lg.errors = append(lg.errors, fmt.Sprintf("replay %s query %d: %v", name, q, err))
			}
		}
	}
	return log.Close()
}

// replayQuery is one replayed campaign query: each stage is a separate
// public call on the same input, timed under its own span.
func replayQuery(t *tracer, root int, e *dbms.Engine, g *sqlancer.Generator, ar *core.PlanArena, log *store.Store) error {
	f := e.DefaultFormat()
	var (
		query string
		stmt  sql.Statement
		plan  *planner.PhysOp
		out   string
		p     *core.Plan
		fp    [32]byte
	)
	stages := []struct {
		name string
		fn   func() error
	}{
		{"sqlancer.query", func() error { query = g.Query(); return nil }},
		{"sql.parse", func() (err error) { stmt, err = sql.Parse(query); return }},
		{"planner.plan", func() (err error) { plan, err = planner.New(e.DB.Schema, e.Opts).Plan(stmt); return }},
		{"exec.run", func() error {
			ng := exec.New(e.DB)
			ng.Quirks = e.Quirks
			_, err := ng.Run(plan)
			return err
		}},
		{"dbms.explain", func() (err error) { out, err = e.Explain(query, f); return }},
		{"dbms.explain_analyze", func() (err error) { _, err = e.ExplainAnalyze(query, f); return }},
		{"convert", func() (err error) { p, err = convert.ConvertInto(e.Info.Name, out, ar); return }},
		{"core.fingerprint", func() error {
			fp = p.FingerprintBytes(core.FingerprintOptions{})
			p.Fingerprint64(core.FingerprintOptions{})
			return nil
		}},
		{"store.append_plan", func() (err error) { _, err = log.AppendPlan(fp); return }},
	}
	for _, st := range stages {
		sp := t.begin(root, st.name, e.Info.Name, string(f))
		err := st.fn()
		t.end(sp)
		if errors.Is(err, exec.ErrUnresolvedColumn) {
			// The generator names a column the join does not bind (about
			// 3% of queries); the oracles skip such queries, and so does
			// the replay.
			return nil
		}
		if err != nil {
			return fmt.Errorf("%s: %w", st.name, err)
		}
	}
	return nil
}

// shareSpans names, per workload, the stages whose share of the op the
// ledger reports: the layers on that workload's path.
var shareSpans = map[string][]string{
	"serve-hot":   {"serveclient.transport", "serve.handler", "convert", "core.fingerprint", "core.marshal_json"},
	"serve-cold":  {"serveclient.transport", "serve.handler", "convert", "core.fingerprint", "core.marshal_json"},
	"serve-batch": {"serveclient.transport", "serve.handler", "pipeline.convert_batch", "codec.encode", "serve.wirebin.batch_encode", "serve.wirebin.batch_decode", "codec.decode"},
	"campaign":    {"sqlancer.query", "sql.parse", "planner.plan", "exec.run", "dbms.explain", "dbms.explain_analyze", "convert", "core.fingerprint", "store.append_plan"},
}

// spanMetrics derives the span-based per-layer metrics. Latency-shaped
// ones come from the workload whose path the layer matters most on:
// client transport from serve-hot (cache hits leave little else), the
// handler from serve-cold (mostly misses), the bulk path from serve-batch.
func (lg *ledger) spanMetrics() {
	o := groupOps(lg.tracers)
	for _, q := range []struct {
		metric, workload, span string
		p                      float64
	}{
		{"serveclient.roundtrip_us.p50", "serve-hot", "serveclient.roundtrip", 0.50},
		{"serveclient.roundtrip_us.p99", "serve-hot", "serveclient.roundtrip", 0.99},
		{"serveclient.transport_us.p50", "serve-hot", "serveclient.transport", 0.50},
		{"serve.handler_us.p50", "serve-cold", "serve.handler", 0.50},
		{"serve.handler_us.p99", "serve-cold", "serve.handler", 0.99},
		{"pipeline.convert_batch_us.p50", "serve-batch", "pipeline.convert_batch", 0.50},
		{"serve.wirebin.batch_encode_us", "serve-batch", "serve.wirebin.batch_encode", 0.50},
		{"serve.wirebin.batch_decode_us", "serve-batch", "serve.wirebin.batch_decode", 0.50},
	} {
		lg.set(q.metric, "us", o.quantileUS(q.workload, q.span, q.p))
	}

	// Mean ns per call of the replayed campaign stages, per engine for
	// EXPLAIN.
	calls := map[string][]float64{}
	for _, t := range lg.tracers {
		for i := range t.spans {
			s := &t.spans[i]
			if s.Workload != "campaign" {
				continue
			}
			calls[s.Name] = append(calls[s.Name], s.dur())
			if s.Name == "dbms.explain" {
				calls["dbms."+s.Dialect+".explain"] = append(calls["dbms."+s.Dialect+".explain"], s.dur())
			}
		}
	}
	for _, stage := range []string{"sqlancer.query", "sql.parse", "planner.plan", "exec.run", "dbms.explain_analyze", "store.append_plan"} {
		lg.set(stage+"_ns", "ns", mean(calls[stage]))
	}
	for _, e := range dbms.Names() {
		lg.set("dbms."+e+".explain_ns", "ns", mean(calls["dbms."+e+".explain"]))
	}
	lg.set("store.checkpoint_ms", "ms", median(calls["store.checkpoint"])/1e6)

	for w, names := range shareSpans {
		den := "serveclient.roundtrip"
		if w == "campaign" {
			den = "request"
		}
		base := o.quantileUS(w, den, 0.5)
		for _, name := range names {
			lg.set("share."+w+"."+name, "ratio", o.quantileUS(w, name, 0.5)/base)
		}
	}
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// largestShare names the layer with the largest share of w's op.
func (lg *ledger) largestShare(w string) (string, float64) {
	var top string
	var best float64
	for _, name := range shareSpans[w] {
		if v := lg.layers["share."+w+"."+name].Value; v > best {
			top, best = name, v
		}
	}
	return top, best
}

// perPlan is the single-threaded per-plan ledger over the serve-cold
// stream. Each stage runs alone over a chunk of plans, every call timed,
// with allocation counts read around whole passes; conversion goes into
// one reused arena, as the server's pooled arenas do.
func (lg *ledger) perPlan(recs []record) error {
	const chunk = 256
	type acc struct {
		ns float64
		n  int
	}
	byPath := map[string]*acc{}
	for _, e := range dbms.Names() {
		for _, f := range textFormats(e) {
			byPath[pathKey(e, f)] = &acc{}
		}
	}
	var (
		fpNS, mjNS, cloneNS, encNS, decNS float64
		convAllocs, convBytes, mjAllocs   uint64
		decAllocs                         uint64
		ms0, ms1                          runtime.MemStats
		arA, arB                          = core.NewPlanArena(), core.NewPlanArena()
		plans                             = make([]*core.Plan, chunk)
		blobs                             = make([][]byte, chunk)
		accs                              = make([]*acc, chunk)
	)
	since := func(t0 time.Time) float64 { return float64(time.Since(t0)) }
	for lo := 0; lo < len(recs); lo += chunk {
		part := recs[lo:min(lo+chunk, len(recs))]
		for k, r := range part {
			accs[k] = byPath[pathKey(r.Dialect, r.Format)]
		}
		runtime.ReadMemStats(&ms0)
		for k, r := range part {
			t0 := time.Now()
			p, err := convert.ConvertInto(r.Dialect, r.Serialized, arA)
			accs[k].ns += since(t0)
			accs[k].n++
			if err != nil {
				return err
			}
			plans[k] = p
		}
		runtime.ReadMemStats(&ms1)
		convAllocs += ms1.Mallocs - ms0.Mallocs
		convBytes += ms1.TotalAlloc - ms0.TotalAlloc

		for k := range part {
			t0 := time.Now()
			plans[k].FingerprintBytes(core.FingerprintOptions{})
			plans[k].Fingerprint64(core.FingerprintOptions{})
			fpNS += since(t0)
		}
		runtime.ReadMemStats(&ms0)
		for k := range part {
			t0 := time.Now()
			_, err := plans[k].MarshalJSON()
			mjNS += since(t0)
			if err != nil {
				return err
			}
		}
		runtime.ReadMemStats(&ms1)
		mjAllocs += ms1.Mallocs - ms0.Mallocs
		for k := range part {
			t0 := time.Now()
			plans[k].Clone()
			cloneNS += since(t0)
		}
		for k := range part {
			t0 := time.Now()
			blob, err := codec.Encode(plans[k])
			encNS += since(t0)
			if err != nil {
				return err
			}
			blobs[k] = blob
		}
		runtime.ReadMemStats(&ms0)
		for k := range part {
			t0 := time.Now()
			_, err := codec.DecodeInto(blobs[k], arB)
			decNS += since(t0)
			if err != nil {
				return err
			}
		}
		runtime.ReadMemStats(&ms1)
		decAllocs += ms1.Mallocs - ms0.Mallocs
		arA.Reset()
		arB.Reset()
	}
	n := float64(len(recs))
	for key, a := range byPath {
		v := 0.0
		if a.n > 0 {
			v = a.ns / float64(a.n)
		}
		lg.set("convert."+key+".ns_per_plan", "ns", v)
	}
	lg.set("convert.allocs_per_plan", "count", float64(convAllocs)/n)
	lg.set("convert.bytes_per_plan", "bytes", float64(convBytes)/n)
	lg.set("core.fingerprint.ns_per_plan", "ns", fpNS/n)
	lg.set("core.marshal_json.ns_per_plan", "ns", mjNS/n)
	lg.set("core.marshal_json.allocs_per_plan", "count", float64(mjAllocs)/n)
	lg.set("core.clone.ns_per_plan", "ns", cloneNS/n)
	lg.set("codec.encode.ns_per_plan", "ns", encNS/n)
	lg.set("codec.decode.ns_per_plan", "ns", decNS/n)
	lg.set("codec.decode.allocs_per_plan", "count", float64(decAllocs)/n)
	return nil
}

// pathKey names a converter path: dialect.format, lower case.
func pathKey(dialect string, f explain.Format) string {
	return dialect + "." + strings.ToLower(string(f))
}

// writeSpans writes every span as one JSON document, a span per line.
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	w.WriteString("{\"spans\": [\n")
	sep := ""
	for _, t := range tracers {
		for i := range t.spans {
			data, err := json.Marshal(&t.spans[i])
			if err != nil {
				f.Close()
				return err
			}
			w.WriteString(sep)
			w.Write(data)
			sep = ",\n"
		}
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
