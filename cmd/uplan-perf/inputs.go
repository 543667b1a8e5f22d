package main

import (
	"fmt"

	"uplan/internal/bench"
	"uplan/internal/convert"
	"uplan/internal/core"
	"uplan/internal/dbms"
	"uplan/internal/explain"
	"uplan/internal/oracle"
	"uplan/internal/sqlancer"
)

// This file builds every workload's inputs from the seed alone: the same
// seed gives byte-identical requests, and the program under test sees
// only these generated inputs.

// sizes are the workload input sizes. The harness runs with fullSizes;
// the smoke test shrinks them. They are not flags: a benchmark number is
// only comparable to one measured on the same inputs.
type sizes struct {
	coldQueries     int // generated queries explained per engine for serve-cold
	campaignQueries int // campaign budget per (engine, oracle) task and round
	oracleQueries   int // per-oracle campaign budget in the traced ledger
	replayQueries   int // generated queries replayed per engine in the ledger
}

var fullSizes = sizes{
	coldQueries:     4000,
	campaignQueries: 500,
	oracleQueries:   1500,
	replayQueries:   2000,
}

// Shape of the generated schemas and batches.
const (
	schemaTables = 3
	schemaRows   = 30
	batchRecords = 64
)

// record is one convert request plus the answer the harness expects,
// computed locally with convert.Convert before any request is sent.
type record struct {
	Dialect    string
	Format     explain.Format
	Serialized string
	FP64       uint64
	FP         [32]byte
}

// hotCorpora is how many bench.Corpus seeds the serve-hot stream joins.
// One corpus is 264 records with 250 distinct bodies, and a request's
// cost depends on its plan, so one corpus makes a run's cost hinge on
// its seed: with one, seeds 3 and 4 ran 6% to 13% below the median of
// seeds 1 to 10 in two separate sweeps. Three corpora, at most 750
// distinct bodies, still fit the server's 1024-entry response cache.
const hotCorpora = 3

// hotRecords is bench.Corpus of the run's first hotCorpora sub-seeds,
// one after the other.
func hotRecords(seed int64) ([]record, error) {
	var recs []record
	for k := 0; k < hotCorpora; k++ {
		corpus, err := bench.Corpus(subSeed(seed, k))
		if err != nil {
			return nil, fmt.Errorf("hot corpus: %w", err)
		}
		for _, r := range corpus {
			e, err := dbms.New(r.Dialect)
			if err != nil {
				return nil, err
			}
			recs = append(recs, record{Dialect: r.Dialect, Format: e.DefaultFormat(), Serialized: r.Serialized})
		}
	}
	return recs, fingerprint(recs)
}

// textFormats lists an engine's serialization formats other than the
// GRAPH (DOT) stand-in, which has no converter.
func textFormats(engine string) []explain.Format {
	var out []explain.Format
	for _, f := range dbms.Formats[engine] {
		if f != explain.FormatGraph {
			out = append(out, f)
		}
	}
	return out
}

// seededEngine builds an engine loaded with sqlancer.New(seed)'s schema
// and returns the generator, ready to produce queries over that schema.
func seededEngine(name string, seed int64) (*dbms.Engine, *sqlancer.Generator, error) {
	e, err := dbms.New(name)
	if err != nil {
		return nil, nil, err
	}
	g := sqlancer.New(seed)
	if err := oracle.ApplySchema(e, g, schemaTables, schemaRows); err != nil {
		return nil, nil, fmt.Errorf("%s schema: %w", name, err)
	}
	return e, g, nil
}

// schemas is how many generated schemas the cold and batch streams are
// spread over, so that a run's cost does not hinge on one schema's shape.
const schemas = 8

// subSeed derives the k-th seed of a hot corpus, schema or campaign
// round from a run seed; run seeds below 10^15 never share one.
func subSeed(seed int64, k int) int64 { return seed*1000 + int64(k) }

// share splits n items over schemas as evenly as possible.
func share(n, k int) int {
	if k < n%schemas {
		return n/schemas + 1
	}
	return n / schemas
}

// coldRecords is the serve-cold stream: on each of the nine engines,
// n generated queries explained round-robin over the engine's formats
// (all 17 dialect/format converter paths), spread over the schemas.
// Schemas and engines are interleaved query by query, so every stretch
// of the stream, a window of the run or a batch, mixes all of them and
// costs about the same. Most bodies are distinct, so the response cache
// mostly misses.
func coldRecords(seed int64, n int) ([]record, error) {
	engines := dbms.Names()
	streams := make([][][]record, schemas) // by schema, then engine
	explained := make([]int, len(engines)) // per engine, for the format rotation
	for k := range streams {
		streams[k] = make([][]record, len(engines))
		for i, name := range engines {
			e, g, err := seededEngine(name, subSeed(seed, k))
			if err != nil {
				return nil, err
			}
			formats := textFormats(name)
			for q := 0; q < share(n, k); q++ {
				f := formats[explained[i]%len(formats)]
				explained[i]++
				out, err := e.Explain(g.Query(), f)
				if err != nil {
					return nil, fmt.Errorf("cold stream %s schema %d query %d: %w", name, k, q, err)
				}
				streams[k][i] = append(streams[k][i], record{Dialect: name, Format: f, Serialized: out})
			}
		}
	}
	recs := make([]record, 0, n*len(engines))
	for q := 0; q < share(n, 0); q++ { // schema 0 has the largest share
		for k := range streams {
			if q < share(n, k) {
				for i := range engines {
					recs = append(recs, streams[k][i][q])
				}
			}
		}
	}
	return recs, fingerprint(recs)
}

// fingerprint fills in each record's expected fingerprints from a local
// one-shot conversion. A record that does not convert is a generator or
// converter bug, not a workload property, so it stops the run.
func fingerprint(recs []record) error {
	for i := range recs {
		p, err := convert.Convert(recs[i].Dialect, recs[i].Serialized)
		if err != nil {
			return fmt.Errorf("record %d (%s/%s) does not convert: %w", i, recs[i].Dialect, recs[i].Format, err)
		}
		recs[i].FP64 = p.Fingerprint64(core.FingerprintOptions{})
		recs[i].FP = p.FingerprintBytes(core.FingerprintOptions{})
	}
	return nil
}
