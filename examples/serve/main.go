// Serve: boot the hardened plan service in-process, walk its HTTP API
// with the retrying client, and drain it gracefully.
//
// The same walkthrough against a standalone server, with curl:
//
//	go run ./cmd/uplan-serve -addr 127.0.0.1:8091 &
//
//	# Liveness and readiness (readiness flips 503 once a drain starts):
//	curl http://127.0.0.1:8091/healthz
//	curl http://127.0.0.1:8091/readyz
//
//	# Convert one native plan. Repeat it and watch X-Uplan-Cache flip
//	# from "miss" to "hit":
//	curl -i -X POST http://127.0.0.1:8091/v1/convert -d '{
//	  "dialect": "postgresql",
//	  "serialized": "Seq Scan on t1  (cost=0.00..431.00 rows=20100 width=4)"
//	}'
//
//	# A batch through the pipeline worker pool:
//	curl -X POST http://127.0.0.1:8091/v1/batch-convert -d '{
//	  "records": [
//	    {"dialect": "postgresql", "serialized": "Seq Scan on t1  (cost=0.00..431.00 rows=20100 width=4)"},
//	    {"dialect": "postgresql", "serialized": "Index Scan using i0 on t2  (cost=0.29..8.31 rows=1 width=8)"}
//	  ]
//	}'
//
//	# Fingerprints only, and a structural comparison:
//	curl -X POST http://127.0.0.1:8091/v1/fingerprint -d '{
//	  "dialect": "postgresql",
//	  "serialized": "Seq Scan on t1  (cost=0.00..431.00 rows=20100 width=4)"
//	}'
//	curl -X POST http://127.0.0.1:8091/v1/compare -d '{
//	  "a": {"dialect": "postgresql", "serialized": "Seq Scan on t1  (cost=0.00..431.00 rows=20100 width=4)"},
//	  "b": {"dialect": "postgresql", "serialized": "Seq Scan on t1  (cost=0.00..431.00 rows=100 width=4)"}
//	}'
//
//	# Counters: requests, sheds (429s carry Retry-After), panics
//	# contained, cache hits/misses, per-dialect conversion totals:
//	curl http://127.0.0.1:8091/metrics
//
//	# Graceful drain: finish in-flight work, sync the store, exit 0.
//	# A second signal would force exit 3 instead of waiting.
//	kill -TERM %1 && wait %1; echo "exit $?"
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"uplan/internal/serve"
	"uplan/internal/serve/serveclient"
)

const pgPlan = `Hash Join  (cost=26150.38..56906.48 rows=400 width=4)
  Hash Cond: (t0.c0 = t1.c0)
  ->  Seq Scan on t0  (cost=0.00..14425.00 rows=99 width=4)
  ->  Hash  (cost=35.50..35.50 rows=2550 width=4)
        ->  Seq Scan on t1  (cost=0.00..35.50 rows=2550 width=4)
`

func main() {
	// Boot on a kernel-assigned port; cmd/uplan-serve is this plus flags,
	// a campaign store, and the two-stage SIGINT/SIGTERM protocol.
	srv := serve.New(serve.Options{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()

	base := "http://" + l.Addr().String()
	c := serveclient.New(base, serveclient.Options{RequestTimeout: 5 * time.Second})
	ctx := context.Background()

	fmt.Println("== probes ==")
	health, err := c.Healthy(ctx)
	if err != nil {
		log.Fatal(err)
	}
	ready, err := c.Ready(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("healthz=%s readyz=%s\n", health.Status, ready.Status)

	fmt.Println("\n== convert (twice: the repeat is a cache hit) ==")
	for i := 0; i < 2; i++ {
		resp, err := c.Convert(ctx, "postgresql", pgPlan)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("fingerprint64=%s fingerprint=%s\n", resp.Fingerprint64, resp.Fingerprint)
	}

	fmt.Println("\n== batch-convert ==")
	batch, err := c.BatchConvert(ctx, []serve.ConvertRequest{
		{Dialect: "postgresql", Serialized: pgPlan},
		{Dialect: "postgresql", Serialized: "Seq Scan on t1  (cost=0.00..431.00 rows=20100 width=4)"},
		{Dialect: "postgresql", Serialized: "not a plan at all"},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("converted=%d errors=%d of %d\n", batch.Converted, batch.Errors, len(batch.Results))

	fmt.Println("\n== binary batch-convert (negotiated via Content-Type/Accept) ==")
	// The compact binary wire carries batches only: plans come back as
	// internal/codec blobs, decoded client-side. One plan is a batch of
	// one record.
	binBatch, err := c.BatchConvertBinary(ctx, []serve.ConvertRequest{
		{Dialect: "postgresql", Serialized: pgPlan},
		{Dialect: "postgresql", Serialized: "Seq Scan on t1  (cost=0.00..431.00 rows=20100 width=4)"},
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("binary batch: converted=%d errors=%d\n", binBatch.Converted, binBatch.Errors)

	fmt.Println("\n== compare ==")
	cmp, err := c.Compare(ctx,
		serve.ConvertRequest{Dialect: "postgresql", Serialized: pgPlan},
		serve.ConvertRequest{Dialect: "postgresql", Serialized: "Seq Scan on t1  (cost=0.00..431.00 rows=20100 width=4)"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("equal=%v similarity=%.2f edit distance=%d\n", cmp.Equal, cmp.Similarity, cmp.EditDistance)

	fmt.Println("\n== metrics ==")
	m, err := c.Metrics(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("requests: convert=%d batch=%d compare=%d; cache: hits=%d misses=%d\n",
		m.Requests.Convert, m.Requests.Batch, m.Requests.Compare, m.Cache.Hits, m.Cache.Misses)

	// Graceful drain: the listener closes, in-flight work finishes, and
	// Serve returns clean — what SIGTERM triggers in cmd/uplan-serve.
	drainCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		log.Fatal(err)
	}
	if err := <-done; err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ndrained clean")
}
