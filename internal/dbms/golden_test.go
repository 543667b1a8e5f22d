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

// indexedWorkload gives e the generated schema of seed with an index on
// every column plus a two-column (c1, c0) index per table, created first
// so that it serves c1 probes, refreshes its statistics, and returns the
// statements that reach index paths: the seed's 300 generated queries, 50
// RestrictableQuery pairs (the TLP/CERT SELECT * … WHERE shape) and the
// UPDATE and DELETE statements among 50 drawn mutations.
func indexedWorkload(tb testing.TB, e *dbms.Engine, seed int64) []string {
	tb.Helper()
	g, stmts := generate(tb, e, seed)
	for _, t := range g.Tables {
		ddl := []string{fmt.Sprintf("CREATE INDEX %s_c1_c0 ON %s (c1, c0)", t.Name, t.Name)}
		for _, c := range t.Columns {
			ddl = append(ddl, fmt.Sprintf("CREATE INDEX %s_%s ON %s (%s)", t.Name, c.Name, t.Name, c.Name))
		}
		for _, s := range ddl {
			if _, err := e.Execute(s); err != nil {
				tb.Fatalf("%s seed %d: %q: %v", e.Info.Name, seed, s, err)
			}
		}
	}
	if err := e.Analyze(); err != nil {
		tb.Fatal(err)
	}
	for range 50 {
		base, restricted := g.RestrictableQuery()
		stmts = append(stmts, base, restricted)
	}
	for range 50 {
		if m := g.Mutation(); strings.HasPrefix(m, "UPDATE") || strings.HasPrefix(m, "DELETE") {
			stmts = append(stmts, m)
		}
	}
	return stmts
}

// forIndexed calls fn for every statement of the indexed workload of seeds
// 1-5, each seed on a fresh engine.
func forIndexed(tb testing.TB, name string, fn func(e *dbms.Engine, seed int64, i int, q string)) {
	for seed := int64(1); seed <= 5; seed++ {
		e := dbms.MustNew(name)
		for i, q := range indexedWorkload(tb, e, seed) {
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
	hashes := digests{}
	explainAll := func(e *dbms.Engine, label string, q string) {
		for _, f := range e.SupportedFormats() {
			for _, analyze := range []bool{false, true} {
				h := hashes.of(fmt.Sprintf("%s/%s/%s", e.Info.Name, f, map[bool]string{false: "EXPLAIN", true: "ANALYZE"}[analyze]))
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
	hashes.check(t, goldenDigests)
}

// indexedGoldenDigests pins TestExplainIndexedGoldenDigest: engine/format
// → SHA-256 of that path's EXPLAIN outputs over the indexed workload.
var indexedGoldenDigests = map[string]string{
	"influxdb/TEXT":    "f4d9bd49c42eb0d8f98f193a27407ec21975c702161d8b696d0695cafcac6d21",
	"mongodb/GRAPH":    "b14a96d8e83a8208a1bd91cdecad5a683ec1206b6b37ae341bb34808217fa43c",
	"mongodb/JSON":     "6df7f6701dc7477b84f565275fe2f92cdbe002e1e7e31c66ed4114fac53770bb",
	"mysql/GRAPH":      "e412f917bf74852b64c416625ee8486b734bbbdec1ab377914ae4f0caf9658ac",
	"mysql/JSON":       "172e7d0a804d84437bd4dc68539c0f88e27dfe90223267a1686e8a9b280f5ad0",
	"mysql/TEXT":       "dd997e59d345915edc619b5edf2c3405c5c741fc2eb2f2f077e278141fdac44b",
	"neo4j/GRAPH":      "7c36baed46f643202787e3ca3dc349b2c49609ac293324b6837d2ea468336de9",
	"neo4j/JSON":       "b76d437100cefd97a3c437f14f992fd1584fb81e6ebb9d765e7b7f910af4f929",
	"neo4j/TEXT":       "ee1210ae5928944738e16676c50884e26e5a9bce2bb49c65045a96e04fcd0089",
	"postgresql/GRAPH": "9cae604ab9729ac99e00ebff453c7bcaea3042d6838d162333ed7ac8fd479c2b",
	"postgresql/JSON":  "cd889e8d6297bb95ba8f4e91d517ffc57224157a1b2ed0154ee09fe356d8b779",
	"postgresql/TEXT":  "9ae60162bd6a6697bedbd35c45a0101006b1dcacc635d901506e7085fd9b6e95",
	"postgresql/XML":   "978b2c2ff0afc75786bd23e29fc87a7521d5995a49924d2396233b18f0984a22",
	"postgresql/YAML":  "adf5e215315c7605ebb1b6ffe4a935d63ffe1674bec25ba46cb6ddff2ab30716",
	"sparksql/GRAPH":   "8fd70f06fee40fd002b506b411c80d5d26edd3cbb40651eeadc4b3b5d97aef0a",
	"sparksql/TEXT":    "08dc760051fc7b6f056abc37128d7ca61128796f7fa98c7ef9e7697fc30088ea",
	"sqlite/TEXT":      "f490a095ceaa8d629651acb14aa46a501569520512e0c545fd5e50ca83c173a5",
	"sqlserver/GRAPH":  "9f4ad189cdf65aacc4d4241696a045507053b4d87e6ae9bc2625b86371f19a01",
	"sqlserver/TABLE":  "9222b6bc225bca49cc4bb37fe2bda7a619621f071c79f62e4956fe2306aadead",
	"sqlserver/TEXT":   "4dd0a362473d93896e07cd314e0e4bd7c84e1bf9b43ec658dca5ea9d17986019",
	"sqlserver/XML":    "f6b883b29fdf6656ce70c3ba7645fb8279130456b354fca87776dc1c44863c81",
	"tidb/GRAPH":       "b841b7cec987526fb283d10efb84aefd84cdda89e161481c87f081a260b2696b",
	"tidb/JSON":        "263c8ee587e53c520012b44400454aa7940d71f22f9769f5f69fb82a830f9ce3",
	"tidb/TABLE":       "25ff4c4a4841e4d3f6d56ff29069f7fb44bcc2bbbaf6f5374dd70750217f45f0",
}

// TestExplainIndexedGoldenDigest pins every engine's EXPLAIN output, one
// SHA-256 per engine and supported format, over the indexed workload of
// seeds 1-5: the access paths (index, index-only and sequential scans)
// the golden workload's index-less tables never reach.
func TestExplainIndexedGoldenDigest(t *testing.T) {
	hashes := digests{}
	for _, name := range dbms.Names() {
		forIndexed(t, name, func(e *dbms.Engine, seed int64, i int, q string) {
			for _, f := range e.SupportedFormats() {
				h := hashes.of(e.Info.Name + "/" + string(f))
				out, err := e.Explain(q, f)
				if err != nil {
					fmt.Fprintf(h, "seed%d/s%d error %v\n", seed, i, err)
					continue
				}
				fmt.Fprintf(h, "seed%d/s%d\n%s", seed, i, out)
			}
		})
	}
	hashes.check(t, indexedGoldenDigests)
}

// digests holds one SHA-256 per output path.
type digests map[string]hash.Hash

// of returns path's hash, starting it on first use.
func (d digests) of(path string) hash.Hash {
	h := d[path]
	if h == nil {
		h = sha256.New()
		d[path] = h
	}
	return h
}

// check reports a path count other than want's, and every path whose
// digest differs from want, written as a want entry.
func (d digests) check(t *testing.T, want map[string]string) {
	t.Helper()
	var paths []string
	for k := range d {
		paths = append(paths, k)
	}
	sort.Strings(paths)
	var diff strings.Builder
	for _, k := range paths {
		if got := hex.EncodeToString(d[k].Sum(nil)); got != want[k] {
			fmt.Fprintf(&diff, "\t%q: %q,\n", k, got)
		}
	}
	if len(d) != len(want) || diff.Len() > 0 {
		t.Errorf("%d digests (want %d); changed:\n%s", len(d), len(want), diff.String())
	}
}
