package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"uplan/internal/campaign"
	"uplan/internal/dbms"
	"uplan/internal/store"
)

// The campaign workload runs campaign.Run in child processes of its own,
// so their peak resident sets are the campaign's alone. Every round journals
// to a fresh store directory with a durable checkpoint every
// checkpointEvery queries per task (each checkpoint fsyncs the data
// shards first); the flush policy is part of the workload. The campaign
// has the one CPU the harness confines itself to (see pinToOneCPU), so it
// runs one worker; a second would only add a runnable thread.
const (
	checkpointEvery = 50
	campaignWorkers = 1
)

// roundReport is one journaled campaign round as its child saw it.
type roundReport struct {
	Seed       int64   `json:"seed"`
	Queries    int     `json:"queries"`
	Seconds    float64 `json:"seconds"`
	Digest     string  `json:"digest"`
	Findings   int     `json:"findings"`
	StoreBytes int64   `json:"store_bytes"`
	DoneTasks  int     `json:"done_tasks"`
	Tasks      int     `json:"tasks"`
	Err        string  `json:"err,omitempty"`
	// IntervalsMS are the times between consecutive durable checkpoints
	// of one task: checkpointEvery queries plus the checkpoint's fsyncs.
	IntervalsMS []float64 `json:"intervals_ms,omitempty"`
	// Useful-work counters summed over the round, for the ledger.
	PlanQueries int `json:"plan_queries"`
	NewPlans    int `json:"new_plans"`
	CertChecks  int `json:"cert_checks"`
	CertSkipped int `json:"cert_skipped"`
	BoundsRuns  int `json:"bounds_queries"`
	NoEstimate  int `json:"bounds_no_estimate"`
}

// campaignOptions is the workload's campaign configuration: the default
// budget shape with every engine and every registered oracle.
func campaignOptions(seed int64, queries int) campaign.Options {
	o := campaign.DefaultOptions()
	o.Seed = seed
	o.Queries = queries
	o.Workers = campaignWorkers
	o.CheckpointEvery = checkpointEvery
	return o
}

// runCampaignRound runs one journaled campaign in a fresh store under dir
// and removes the store afterwards. onProgress sees every checkpoint.
func runCampaignRound(dir string, opts campaign.Options, onProgress func(store.TaskProgress)) (roundReport, error) {
	rep := roundReport{Seed: opts.Seed}
	sdir, err := os.MkdirTemp(dir, "store-")
	if err != nil {
		return rep, err
	}
	defer os.RemoveAll(sdir)
	log, err := store.Open(sdir, store.Options{})
	if err != nil {
		return rep, err
	}
	opts.Store = log
	done := map[store.TaskKey]bool{}
	var mu sync.Mutex
	opts.OnProgress = func(p store.TaskProgress) {
		mu.Lock()
		if p.Done {
			done[p.Key()] = true
		}
		mu.Unlock()
		if onProgress != nil {
			onProgress(p)
		}
	}
	start := time.Now()
	res, runErr := campaign.Run(opts)
	closeErr := log.Close()
	rep.Seconds = time.Since(start).Seconds()
	if runErr != nil {
		return rep, fmt.Errorf("campaign seed %d: %w", opts.Seed, runErr)
	}
	if closeErr != nil {
		return rep, fmt.Errorf("campaign store close: %w", closeErr)
	}
	rep.Queries = res.Stats.Queries
	rep.Findings = len(res.Findings)
	rep.DoneTasks = len(done)
	oracles := opts.Oracles
	if len(oracles) == 0 {
		oracles = campaign.AllOracles()
	}
	rep.Tasks = len(dbms.Names()) * len(oracles)
	h := sha256.New()
	for _, f := range res.Findings {
		fmt.Fprintln(h, f.String())
	}
	rep.Digest = hex.EncodeToString(h.Sum(nil))[:16]
	if rep.StoreBytes, err = dirBytes(sdir); err != nil {
		return rep, err
	}
	for _, es := range res.Stats.Engines {
		rep.PlanQueries += es.PlanQueries
		rep.NewPlans += es.NewPlans
	}
	if st := res.Stats.Oracles[campaign.OracleCERT]; st != nil {
		rep.CertChecks, rep.CertSkipped = st.Checks, st.Skipped
	}
	if st := res.Stats.Oracles[campaign.OracleBounds]; st != nil {
		rep.BoundsRuns, rep.NoEstimate = st.Queries, st.Extra["no-estimate"]
	}
	if rep.DoneTasks != rep.Tasks {
		return rep, fmt.Errorf("campaign seed %d: %d of %d tasks checkpointed done", opts.Seed, rep.DoneTasks, rep.Tasks)
	}
	return rep, nil
}

// dirBytes sums the sizes of the files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// childEnv carries a campaign child's job, as JSON, to a re-executed copy
// of this binary (or of the test binary, whose TestMain honours it too).
// Each round runs in a child of its own, so its peak RSS is one sample
// and the reported peak is their median, steadier than one process's
// maximum over several rounds.
const childEnv = "UPLAN_PERF_CAMPAIGN_CHILD"

// childJob is the work of one campaign child.
type childJob struct {
	// Kind is "setup" (setupRuns timed one-query campaigns), "round" (one
	// measured round at Seed) or "traced" (round Seed rerun untraced and
	// then with checkpoint spans, and one campaign per oracle at
	// OracleQueries).
	Kind          string `json:"kind"`
	Dir           string `json:"dir"`
	Seed          int64  `json:"seed"`
	Queries       int    `json:"queries,omitempty"`
	OracleQueries int    `json:"oracle_queries,omitempty"`
}

// childReport is what a campaign child prints as JSON on its stdout.
type childReport struct {
	// PeakRSSMB is the child's own peak resident set.
	PeakRSSMB    float64            `json:"peak_rss_mb"`
	SetupSeconds []float64          `json:"setup_seconds,omitempty"`
	Round        *roundReport       `json:"round,omitempty"`
	TracedRef    *roundReport       `json:"traced_ref,omitempty"`
	TracedRound  *roundReport       `json:"traced_round,omitempty"`
	OracleQPS    map[string]float64 `json:"oracle_qps,omitempty"`
}

// runChild is the child process body. It returns the exit code.
func runChild(jobJSON string) int {
	var job childJob
	if err := json.Unmarshal([]byte(jobJSON), &job); err != nil {
		fmt.Fprintln(os.Stderr, "uplan-perf: campaign child:", err)
		return 2
	}
	rep, err := campaignChild(job)
	if err == nil {
		err = json.NewEncoder(os.Stdout).Encode(rep)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "uplan-perf: campaign child:", err)
		return 1
	}
	return 0
}

// campaignChild does the job. A round's own failure is reported in its
// Err so the parent counts its queries as failed.
func campaignChild(job childJob) (*childReport, error) {
	rep := &childReport{}
	switch job.Kind {
	case "setup":
		for k := 0; k < setupRuns; k++ {
			start := time.Now()
			if _, err := runCampaignRound(job.Dir, campaignOptions(job.Seed, 1), nil); err != nil {
				return nil, fmt.Errorf("setup run: %w", err)
			}
			rep.SetupSeconds = append(rep.SetupSeconds, time.Since(start).Seconds())
		}
	case "round":
		var mu sync.Mutex
		var intervals []float64
		last := map[store.TaskKey]time.Time{}
		rr, err := runCampaignRound(job.Dir, campaignOptions(job.Seed, job.Queries), func(p store.TaskProgress) {
			now := time.Now()
			mu.Lock()
			defer mu.Unlock()
			// A task's first checkpoint has no predecessor to measure from.
			if t, ok := last[p.Key()]; ok {
				intervals = append(intervals, float64(now.Sub(t))/float64(time.Millisecond))
			}
			last[p.Key()] = now
		})
		if err != nil {
			rr.Err = err.Error()
		}
		rr.IntervalsMS = intervals
		rep.Round = &rr
	case "traced":
		ref, err := runCampaignRound(job.Dir, campaignOptions(job.Seed, job.Queries), nil)
		if err != nil {
			ref.Err = err.Error()
		}
		rep.TracedRef = &ref
		// The harness sees the campaign only through Run and its
		// checkpoint callback, so the traced round records one span per
		// checkpoint.
		var mu sync.Mutex
		tr := newTracer(time.Now(), new(atomic.Int64))
		root := tr.root("campaign", "", "")
		rr, err := runCampaignRound(job.Dir, campaignOptions(job.Seed, job.Queries), func(p store.TaskProgress) {
			mu.Lock()
			defer mu.Unlock()
			tr.end(tr.begin(root, "campaign.checkpoint", p.Engine, p.Oracle))
		})
		if err != nil {
			rr.Err = err.Error()
		}
		rep.TracedRound = &rr
		rep.OracleQPS = map[string]float64{}
		for _, o := range campaign.AllOracles() {
			opts := campaignOptions(job.Seed, job.OracleQueries)
			opts.Oracles = []string{o}
			rr, err := runCampaignRound(job.Dir, opts, nil)
			if err != nil {
				return nil, fmt.Errorf("oracle %s run: %w", o, err)
			}
			rep.OracleQPS[o] = float64(rr.Queries) / rr.Seconds
		}
	default:
		return nil, fmt.Errorf("unknown job kind %q", job.Kind)
	}
	var err error
	rep.PeakRSSMB, err = peakRSSMB(os.Getpid())
	return rep, err
}

// startCampaignChild re-executes this binary as a campaign child in a
// fresh directory under workDir and returns its report.
func startCampaignChild(workDir string, job childJob) (*childReport, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if job.Dir, err = os.MkdirTemp(workDir, "campaign-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(job.Dir)
	jobJSON, err := json.Marshal(job)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), childEnv+"="+string(jobJSON))
	dieWithParent(cmd)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("campaign child %s: %w", job.Kind, err)
	}
	var rep childReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("campaign child %s report: %w", job.Kind, err)
	}
	return &rep, nil
}

// measureRounds runs measured rounds of the run seed, each in a child of
// its own, until dur has passed; the round running at the deadline
// completes and counts, and there is always at least one. Round r uses
// seed subSeed(seed, r), so a run averages over several generated
// schemas. It returns the rounds' reports and peak RSS in MB.
func measureRounds(workDir string, seed int64, dur time.Duration, queries int) ([]roundReport, []float64, error) {
	var rounds []roundReport
	var rss []float64
	start := time.Now()
	for r := 0; r == 0 || time.Since(start) < dur; r++ {
		rep, err := startCampaignChild(workDir, childJob{Kind: "round", Seed: subSeed(seed, r), Queries: queries})
		if err != nil {
			return nil, nil, err
		}
		rounds = append(rounds, *rep.Round)
		rss = append(rss, rep.PeakRSSMB)
	}
	return rounds, rss, nil
}

// roundsPerWindow is how many consecutive rounds make one of the
// campaign's windows: about 1,300 checkpoint intervals, at least ten
// beyond each window's p99.
const roundsPerWindow = 4

// campaignWindows returns the p50 and p99 checkpoint intervals (ms) of
// each whole window of consecutive rounds; fewer rounds than a window
// make one window.
func campaignWindows(rounds []roundReport) (p50s, p99s []float64) {
	per := min(roundsPerWindow, len(rounds))
	for lo := 0; lo+per <= len(rounds); lo += per {
		var lat []float64
		for _, r := range rounds[lo : lo+per] {
			lat = append(lat, r.IntervalsMS...)
		}
		lat = sortedCopy(lat)
		p50s = append(p50s, percentile(lat, 0.50))
		p99s = append(p99s, percentile(lat, 0.99))
	}
	return p50s, p99s
}

// runCampaign measures the campaign workload. Its rates are per round,
// its latencies per window of rounds, summarised like the serve
// workloads' windows by windowStats.
func runCampaign(workDir string, seed int64, dur time.Duration, sz sizes) (*workloadResult, error) {
	setup, err := startCampaignChild(workDir, childJob{Kind: "setup", Seed: seed})
	if err != nil {
		return nil, err
	}
	rounds, rss, err := measureRounds(workDir, seed, dur, sz.campaignQueries)
	if err != nil {
		return nil, err
	}
	res := newWorkloadResult()
	var rates, intervals []float64
	for _, r := range rounds {
		rates = append(rates, float64(r.Queries)/r.Seconds)
		intervals = append(intervals, r.IntervalsMS...)
		// A failed round fails all its queries, and at least one op even
		// when it stopped before running any.
		ops := int64(max(r.Queries, 1))
		res.Attempted += ops
		if r.Err != "" {
			res.Errors = append(res.Errors, r.Err)
			res.Failed += ops
		}
	}
	// How many rounds fit depends on the machine; the first round's
	// findings and store bytes depend on the seed alone.
	res.Digest, res.StoreBytes = rounds[0].Digest, rounds[0].StoreBytes
	p50s, p99s := campaignWindows(rounds)
	ops, p50, p99 := windowStats(rates, p50s, p99s)
	lat := sortedCopy(intervals)
	res.set("ops_per_s", ops)
	res.set("latency_p50_ms", p50)
	res.set("latency_p99_ms", p99)
	res.set("latency_p999_ms", percentile(lat, 0.999))
	res.set("setup_s", median(setup.SetupSeconds))
	res.set("peak_rss_mb", median(rss))
	res.Samples = len(lat)
	return res, nil
}
