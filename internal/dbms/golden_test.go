package dbms_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"
	"strings"
	"testing"

	"uplan/internal/bench"
	"uplan/internal/dbms"
	"uplan/internal/sqlancer"
)

// loadGenerated gives e the generated schema of seed (3 tables of 20
// rows), refreshes its statistics, and returns the seed's 300 generated
// queries.
func loadGenerated(tb testing.TB, e *dbms.Engine, seed int64) []string {
	tb.Helper()
	_, queries := generate(tb, e, seed)
	return queries
}

// generate is loadGenerated that also returns the generator, positioned
// after the 300 queries, for callers that draw more from it.
func generate(tb testing.TB, e *dbms.Engine, seed int64) (*sqlancer.Generator, []string) {
	tb.Helper()
	g := sqlancer.New(seed)
	for _, s := range g.SchemaSQL(3, 20) {
		if _, err := e.Execute(s); err != nil {
			tb.Fatalf("%s seed %d: %q: %v", e.Info.Name, seed, s, err)
		}
	}
	if err := e.Analyze(); err != nil {
		tb.Fatal(err)
	}
	queries := make([]string, 300)
	for i := range queries {
		queries[i] = g.Query()
	}
	return g, queries
}

// forGenerated calls fn for every generated query of seeds 1-5, each seed
// on a fresh engine.
func forGenerated(tb testing.TB, name string, fn func(e *dbms.Engine, seed int64, i int, q string)) {
	for seed := int64(1); seed <= 5; seed++ {
		e := dbms.MustNew(name)
		for i, q := range loadGenerated(tb, e, seed) {
			fn(e, seed, i, q)
		}
	}
}

// goldenDigests pins TestExplainGoldenDigest: engine/format/mode →
// SHA-256 of that path's outputs over the golden workload.
var goldenDigests = map[string]string{
	"influxdb/TEXT/ANALYZE":    "2f9fc304e7524238c311db7d6e02bf02823a0fcf3a8b8418fc113e9e549804d1",
	"influxdb/TEXT/EXPLAIN":    "126f242d11827c3003f25f33817ccdf8a37d8f06161892d3e22de5caa638498c",
	"mongodb/GRAPH/ANALYZE":    "eb868da475e9e2b57b4051b4d417e761814eb7b23240c73c6f18b2b66f81f01e",
	"mongodb/GRAPH/EXPLAIN":    "1c7d77bdb684c657ac581e3a6536d3d99f4899c1188716a5c5578cf7d9b9ab54",
	"mongodb/JSON/ANALYZE":     "edafc42686c25a627c621df5f810d1153be28b32b0303efe0326db47a040d628",
	"mongodb/JSON/EXPLAIN":     "1ae5f6fb8df7a31f99678e6778a3eb03e10b2998a78f66358aab49dff0630760",
	"mysql/GRAPH/ANALYZE":      "6ff9548fb9cd644adc2caf173776556e0cbba616ec17eda151a13d3230a51c7d",
	"mysql/GRAPH/EXPLAIN":      "226e2aed42b5396f6843cd2bcbed8ab92fd36a4c0d006d855d5dd60fea6fbf85",
	"mysql/JSON/ANALYZE":       "1485046f089ac87ed766e28b375d1759d08c4036000d9bcf193328e7a884d17f",
	"mysql/JSON/EXPLAIN":       "9914188356268b60f893f08fb37dfe91e1afed1845815fbc3d9d7c8f7f374c61",
	"mysql/TEXT/ANALYZE":       "b7bcf1b7bd051df34715731b849e0e1d049ccc5969ba2fb972b822795b78232e",
	"mysql/TEXT/EXPLAIN":       "900ac9f4a69330057a7d43caa7b02607ebc30a4f6c09c8579d6a2682df4f3e4b",
	"neo4j/GRAPH/ANALYZE":      "34e642b5d4f23006601f905fc2a4a8cf0b5997ac73cff38aceb2e4d1ef7c0d48",
	"neo4j/GRAPH/EXPLAIN":      "b472a091e01f68dfca3470720752fd906b7eee69604a9907d80dcbd3fc9f2afd",
	"neo4j/JSON/ANALYZE":       "9398a19c1ffcb4776c2d60e7d53ecdcc5156b30c0d1e95c47bd2ec4d4dbc3af1",
	"neo4j/JSON/EXPLAIN":       "a57ace62edcd6ea03f975f29acccd50ebc7bc120a3cfd3a8f7cc109c2dc47303",
	"neo4j/TEXT/ANALYZE":       "4289754efe565e43c80bb561bf6bccf1ed664c0eb65b16df40524601e7bbc638",
	"neo4j/TEXT/EXPLAIN":       "18eea38c138d65bb923cad4bf9014b69848df356c0abbfcdfeeac3fabebc0439",
	"postgresql/GRAPH/ANALYZE": "9f9771d89db0fbd451d11090eeef9b356245866d29144865050e1a2bbbe4931e",
	"postgresql/GRAPH/EXPLAIN": "120d25a79450a11ca94704a357c7a659a7b1bdb720dfc9f45c1febfc989f52ba",
	"postgresql/JSON/ANALYZE":  "064f98eca86ee1bc871524e055c1d152f52410ee3047d8b1bb0c5d565381e00f",
	"postgresql/JSON/EXPLAIN":  "bd2bb7281db2b2daffcdc830245b9bf6fa7e3a073fb501a8f6d2bb3b3b7084fa",
	"postgresql/TEXT/ANALYZE":  "f27e637a777c6dfeff5b21408edac362210eef827040284a717c55c7513ac7e8",
	"postgresql/TEXT/EXPLAIN":  "9fec39845e037eb72d5ddd158185a4f642f745abcb84b7a6a09846edef3f5b23",
	"postgresql/XML/ANALYZE":   "a70dc2faece10e3ae986122678c2e8abf3228dd6ddabefda6efbc0d64aef9977",
	"postgresql/XML/EXPLAIN":   "161a04363e66ba14f2695c86896cb13d6ff6974a4d508d6ab0c6bd06092c811a",
	"postgresql/YAML/ANALYZE":  "ea649baeaff8e0fc56b9dd892f5d09868b00e3ac1758e968e3e6236da8059e87",
	"postgresql/YAML/EXPLAIN":  "8349e3915fbd20e8f3a5b14cdc2e4da6600e9972af8b1ab7ab070fcdb810c50e",
	"sparksql/GRAPH/ANALYZE":   "47416e2f7f0e7e483c591f50f91d7494da9813947e8e6097c152dd6372580e17",
	"sparksql/GRAPH/EXPLAIN":   "e82b3f682f4ebac3be4f1f778feccbb7de704566df3bed89a448742cc91835d2",
	"sparksql/TEXT/ANALYZE":    "02c78129ec1e221baf777ba93a1dda29149789edbc2534f929563a1fb8f1c1e0",
	"sparksql/TEXT/EXPLAIN":    "73775c80475f46b7768f417a2afaf4bc38ecb5ad2413d633b650da6da43f5442",
	"sqlite/TEXT/ANALYZE":      "dfcbc9a323a6c23b4437b7f8e02447b9b16eaf4d0aa425b1313832119e432bac",
	"sqlite/TEXT/EXPLAIN":      "c24eae104b00a89e49d37c6e3d175c44dc08e16aac2def04a3773ac345b53540",
	"sqlserver/GRAPH/ANALYZE":  "e61e982cb54bb329d2594d3b1fdf14f5aa4879a20804a28357d28c4da5678b41",
	"sqlserver/GRAPH/EXPLAIN":  "d4391df0aa2088c936ed8e064eb19b4e906989f9b1ce53a254aec2d4ebb93118",
	"sqlserver/TABLE/ANALYZE":  "b11f222dc88182ea7425093c7997c93f79aeb3a4c32c8200433040eed58fd29a",
	"sqlserver/TABLE/EXPLAIN":  "532d0c0d285fd4bb1037c87b1af11203fb2f1382e7c41e325f320d27c6eb9082",
	"sqlserver/TEXT/ANALYZE":   "15c99305b9406b3b7efa77caa2be7f5b5571605e09b0cb20af14fa835f47882c",
	"sqlserver/TEXT/EXPLAIN":   "9661fb838eb92aeff162aa8de0841bb169706dd6593c9f39eff200de007a9686",
	"sqlserver/XML/ANALYZE":    "48aa728807b4dfbf21fb1ccf7ff781119c7c9598d443fe927b4637cf5aa0b853",
	"sqlserver/XML/EXPLAIN":    "072763b106a920b379bc042f42bafc0432120a2da1b2682b5e59b128ce8f24f6",
	"tidb/GRAPH/ANALYZE":       "845fe90294c33397504a932f612b5df8e048230550cd5a5255c98da14ad53384",
	"tidb/GRAPH/EXPLAIN":       "4d0e75b1295f2bb9c1592bb37aad9c5de04668b47d9fdd0ef1abffe2dd379436",
	"tidb/JSON/ANALYZE":        "50fd66c859fa594c0eac310e8c3a883473c277a045d248fc303ded59bd1b8669",
	"tidb/JSON/EXPLAIN":        "b32ec60c634e83a8efe2584c8ec43bdcfa093e6645e35564367e4b905f25240c",
	"tidb/TABLE/ANALYZE":       "296b3ced7e1a9c7bac31fab065e30c0cde2c415cf2db376d530404beb3ee82e7",
	"tidb/TABLE/EXPLAIN":       "d77e310d74b9bca8cebcb605fbc3ea94d397a6d6406632cebfbaecf61a11f1d0",
}

// TestExplainGoldenDigest pins every engine's native output: one SHA-256
// per engine, supported format (GRAPH included) and mode (EXPLAIN or
// EXPLAIN ANALYZE, with measured durations zeroed) over the generated
// queries of seeds 1-5 and the 22 TPC-H queries at seed 42. A new digest
// means some engine's EXPLAIN output changed.
func TestExplainGoldenDigest(t *testing.T) {
	hashes := map[string]hash.Hash{}
	explainAll := func(e *dbms.Engine, label string, q string) {
		for _, f := range e.SupportedFormats() {
			for _, analyze := range []bool{false, true} {
				key := fmt.Sprintf("%s/%s/%s", e.Info.Name, f, map[bool]string{false: "EXPLAIN", true: "ANALYZE"}[analyze])
				h := hashes[key]
				if h == nil {
					h = sha256.New()
					hashes[key] = h
				}
				out, err := dbms.ExplainTimeless(e, q, f, analyze)
				if err != nil {
					fmt.Fprintf(h, "%s error %v\n", label, err)
					continue
				}
				fmt.Fprintf(h, "%s\n%s", label, out)
			}
		}
	}
	for _, name := range dbms.Names() {
		forGenerated(t, name, func(e *dbms.Engine, seed int64, i int, q string) {
			explainAll(e, fmt.Sprintf("seed%d/q%d", seed, i), q)
		})
		e := dbms.MustNew(name)
		if err := bench.LoadTPCH(e, 42, bench.DefaultSizes()); err != nil {
			t.Fatal(err)
		}
		for i, q := range bench.TPCHQueries() {
			explainAll(e, fmt.Sprintf("tpch/q%d", i+1), q)
		}
	}
	var keys []string
	for k := range hashes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var diff strings.Builder
	for _, k := range keys {
		got := hex.EncodeToString(hashes[k].Sum(nil))
		if got != goldenDigests[k] {
			fmt.Fprintf(&diff, "\t%q: %q,\n", k, got)
		}
	}
	if len(hashes) != len(goldenDigests) || diff.Len() > 0 {
		t.Errorf("%d digests (want %d); changed:\n%s", len(hashes), len(goldenDigests), diff.String())
	}
}
