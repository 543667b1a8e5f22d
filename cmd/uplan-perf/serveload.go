package main

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"time"

	"uplan/internal/core"
	"uplan/internal/serve"
	"uplan/internal/serve/serveclient"
)

// serveInputs holds the generated inputs of the serve workloads; each
// workload builds only the part it uses.
type serveInputs struct {
	hot     []record
	cold    []record
	batches [][]serve.ConvertRequest // consecutive batchRecords-long windows of cold
}

// buildServeInputs builds the inputs of every serve workload in selected.
func buildServeInputs(selected []string, seed int64, sz sizes) (*serveInputs, error) {
	in := &serveInputs{}
	var err error
	if slices.Contains(selected, "serve-hot") {
		if in.hot, err = hotRecords(seed); err != nil {
			return nil, err
		}
	}
	if slices.Contains(selected, "serve-cold") || slices.Contains(selected, "serve-batch") {
		if in.cold, err = coldRecords(seed, sz.coldQueries); err != nil {
			return nil, err
		}
		for lo := 0; lo+batchRecords <= len(in.cold); lo += batchRecords {
			b := make([]serve.ConvertRequest, batchRecords)
			for k, r := range in.cold[lo : lo+batchRecords] {
				b[k] = serve.ConvertRequest{Dialect: r.Dialect, Serialized: r.Serialized}
			}
			in.batches = append(in.batches, b)
		}
	}
	return in, nil
}

// probe is the request each cold boot of the workload's server is timed
// to: its first input.
func (in *serveInputs) probe(workload string) record {
	if workload == "serve-hot" {
		return in.hot[0]
	}
	return in.cold[0]
}

// serveOp returns the workload's request function. Every reply is
// checked against the locally computed answer; a mismatch fails the
// request.
func serveOp(workload string, in *serveInputs, cl *serveclient.Client) opFunc {
	ctx := context.Background()
	if workload == "serve-batch" {
		arena := core.NewPlanArena()
		return func(i int64) (int, time.Duration, error) {
			b := i % int64(len(in.batches))
			t0 := time.Now()
			res, err := cl.BatchConvertBinary(ctx, in.batches[b], arena)
			took := time.Since(t0)
			defer arena.Reset()
			if err != nil {
				return batchRecords, took, err
			}
			return batchRecords, took, checkBatch(in.cold[b*batchRecords:(b+1)*batchRecords], res)
		}
	}
	recs := in.hot
	if workload == "serve-cold" {
		recs = in.cold
	}
	return func(i int64) (int, time.Duration, error) {
		r := recs[i%int64(len(recs))]
		t0 := time.Now()
		resp, err := cl.Convert(ctx, r.Dialect, r.Serialized)
		took := time.Since(t0)
		if err != nil {
			return 1, took, err
		}
		return 1, took, checkConvert(r, resp)
	}
}

func checkConvert(r record, resp *serve.ConvertResponse) error {
	if want := strconv.FormatUint(r.FP64, 10); resp.Fingerprint64 != want {
		return fmt.Errorf("convert %s/%s: fingerprint64 %s, want %s", r.Dialect, r.Format, resp.Fingerprint64, want)
	}
	return nil
}

func checkBatch(recs []record, res *serveclient.BinaryBatchResult) error {
	if len(res.Results) != len(recs) {
		return fmt.Errorf("batch: %d results for %d records", len(res.Results), len(recs))
	}
	for k, it := range res.Results {
		if it.Plan == nil {
			return fmt.Errorf("batch slot %d (%s): %s", k, recs[k].Dialect, it.Error)
		}
		if it.Plan.FingerprintBytes(core.FingerprintOptions{}) != recs[k].FP {
			return fmt.Errorf("batch slot %d (%s/%s): fingerprint mismatch", k, recs[k].Dialect, recs[k].Format)
		}
	}
	return nil
}

// warm sends serve-hot's corpus once, untimed, so the measured loop finds
// the response cache filled; the other workloads need no warming.
func warm(workload string, in *serveInputs, op opFunc) error {
	if workload != "serve-hot" {
		return nil
	}
	for i := range in.hot {
		if _, _, err := op(int64(i)); err != nil {
			return fmt.Errorf("warm pass: %w", err)
		}
	}
	return nil
}

// runServe measures one serve workload: setupRuns timed cold boots (the
// last server stays up), an untimed warm pass for serve-hot, the closed
// loop, and a SIGTERM drain that must exit 0.
func runServe(workload, bin string, in *serveInputs, dur time.Duration) (*workloadResult, error) {
	var setups []float64
	var srv *serverProc
	for b := 0; b < setupRuns; b++ {
		s, took, err := bootServer(bin, in.probe(workload))
		if err != nil {
			return nil, fmt.Errorf("boot %d: %w", b+1, err)
		}
		setups = append(setups, took.Seconds())
		if b == setupRuns-1 {
			srv = s
			break
		}
		if _, err := s.stop(); err != nil {
			return nil, fmt.Errorf("boot %d: %w", b+1, err)
		}
	}
	defer srv.kill()

	op := serveOp(workload, in, newClient(srv.base))
	if err := warm(workload, in, op); err != nil {
		return nil, err
	}
	lr := closedLoop(dur, op)
	rss, err := srv.stop()
	res := loadMetrics(lr)
	res.set("setup_s", median(setups))
	res.set("peak_rss_mb", rss)
	if lr.FirstErr != nil {
		res.Errors = append(res.Errors, lr.FirstErr.Error())
	}
	if err != nil {
		// A drain that fails fails the run even when every request
		// succeeded.
		res.Errors = append(res.Errors, err.Error())
		res.Attempted++
		res.Failed++
	}
	return res, nil
}

// loadMetrics turns a closed-loop phase into the serve workloads'
// end-to-end metrics: throughput, p50 and p99 as medians over windows;
// p999, which no window has enough samples for, over the whole phase.
func loadMetrics(lr loadResult) *workloadResult {
	res := newWorkloadResult()
	ops, p50, p99 := lr.windowed()
	lat := lr.latenciesMS()
	res.set("ops_per_s", ops)
	res.set("latency_p50_ms", p50)
	res.set("latency_p99_ms", p99)
	res.set("latency_p999_ms", percentile(lat, 0.999))
	res.Samples = len(lat)
	res.Attempted, res.Failed = lr.counts()
	return res
}
