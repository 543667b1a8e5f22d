// Command uplan-serve runs the hardened plan service (internal/serve):
// an HTTP/JSON front end over the conversion pipeline and campaign
// store with bounded admission, per-request deadlines, panic isolation,
// and graceful drain.
//
// Usage:
//
//	uplan-serve [-addr 127.0.0.1:8091] [-workers N] [-inflight N] [-queue N]
//	            [-request-timeout 5s] [-batch-timeout 30s] [-read-timeout 10s]
//	            [-max-body BYTES] [-max-batch N] [-cache N]
//	            [-store DIR] [-drain-timeout 10s] [-debug-delay 0]
//
// Endpoints: POST /v1/convert, /v1/batch-convert, /v1/fingerprint,
// /v1/compare; GET /v1/campaign-status, /healthz, /readyz, /metrics.
//
// -store DIR attaches the durable campaign log: /v1/campaign-status
// reports its recovered progress, and the drain path syncs it before
// exit so everything journaled is durable.
//
// Shutdown: the first SIGINT/SIGTERM starts a graceful drain — the
// listener closes, /readyz flips to 503, in-flight requests finish or
// are deadline-cancelled at -drain-timeout, the store is synced, and
// the process exits 0. A second signal during the drain forces an
// immediate exit with status 3 (internal/shutdown), so a drain hung on
// sick storage can always be abandoned deliberately.
//
// -debug-delay is a fault-injection aid: it makes every admitted
// conversion handler sleep first, so queue-full sheds and drains with
// in-flight work are deterministic to provoke (the CI smoke job uses
// it). Never set it in production.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"uplan/internal/serve"
	"uplan/internal/shutdown"
	"uplan/internal/store"
)

func main() {
	os.Exit(run())
}

// run is main with an exit code, so defers (store close, notifier stop)
// execute before the process exits.
func run() int {
	addr := flag.String("addr", serve.DefaultAddr, "listen address")
	workers := flag.Int("workers", 0, "batch conversion workers per request (0 = GOMAXPROCS)")
	inflight := flag.Int("inflight", 0, "admission slots: concurrent requests doing conversion work (0 = 2x GOMAXPROCS)")
	queue := flag.Int("queue", serve.DefaultMaxQueue, "admission queue bound before shedding with 429 (batches shed at half; negative = shed immediately)")
	requestTimeout := flag.Duration("request-timeout", serve.DefaultRequestTimeout, "deadline for single-plan requests, queue wait included")
	batchTimeout := flag.Duration("batch-timeout", serve.DefaultBatchTimeout, "deadline for batch-convert requests")
	readTimeout := flag.Duration("read-timeout", serve.DefaultReadTimeout, "connection read deadline (slow-loris bound)")
	maxBody := flag.Int64("max-body", serve.DefaultMaxBodyBytes, "request body byte cap (413 beyond)")
	maxBatch := flag.Int("max-batch", serve.DefaultMaxBatchRecords, "records per batch-convert request (413 beyond)")
	cacheSize := flag.Int("cache", serve.DefaultCacheSize, "convert response cache entries (negative disables)")
	storeDir := flag.String("store", "", "attach the durable campaign log at DIR (served by /v1/campaign-status, synced on drain)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "how long a graceful drain waits for in-flight requests before cancelling them")
	debugDelay := flag.Duration("debug-delay", 0, "fault injection: sleep every admitted conversion handler this long (testing only)")
	flag.Parse()

	warn := func(msg string) { fmt.Fprintln(os.Stderr, "uplan-serve:", msg) }

	opts := serve.Options{
		Addr:            *addr,
		Workers:         *workers,
		MaxInFlight:     *inflight,
		MaxQueue:        *queue,
		RequestTimeout:  *requestTimeout,
		BatchTimeout:    *batchTimeout,
		ReadTimeout:     *readTimeout,
		MaxBodyBytes:    *maxBody,
		MaxBatchRecords: *maxBatch,
		CacheSize:       *cacheSize,
		HandlerDelay:    *debugDelay,
	}
	if *debugDelay > 0 {
		warn(fmt.Sprintf("fault injection active: -debug-delay %s holds every admitted handler", *debugDelay))
	}
	if *storeDir != "" {
		log, err := store.Open(*storeDir, store.Options{})
		if err != nil {
			warn(err.Error())
			return 1
		}
		defer func() {
			if err := log.Close(); err != nil {
				warn("store close: " + err.Error())
			}
		}()
		opts.Store = log
		rec := log.Recovered()
		fmt.Printf("uplan-serve: campaign store %s attached: %d plans, %d findings, %d checkpointed tasks\n",
			*storeDir, len(rec.Plans), len(rec.Findings), len(rec.Progress))
	}

	srv := serve.New(opts)

	// Listen before arming signals so a bad -addr fails fast with a plain
	// error instead of looking like a drain.
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		warn(err.Error())
		return 1
	}
	fmt.Printf("uplan-serve: listening on %s\n", l.Addr())

	// First signal cancels ctx (graceful drain below); a second one during
	// the drain forces exit 3 from inside the notifier.
	ctx, notifier := shutdown.Install(context.Background(), warn)
	defer notifier.Stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	select {
	case err := <-serveErr:
		// The listener died without a signal — a real failure.
		if err != nil {
			warn(err.Error())
			return 1
		}
		return 0
	case <-ctx.Done():
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	code := 0
	if err := srv.Drain(drainCtx); err != nil {
		warn(err.Error())
		code = 1
	}
	if err := <-serveErr; err != nil {
		warn(err.Error())
		code = 1
	}
	if code == 0 {
		fmt.Println("uplan-serve: drained clean")
	}
	return code
}
