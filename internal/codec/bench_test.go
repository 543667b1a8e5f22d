package codec

import (
	"sync"
	"testing"

	"uplan/internal/bench"
	"uplan/internal/convert"
	"uplan/internal/core"
)

// corpusPlans converts the full nine-dialect benchmark corpus once per
// test binary: the 264 unified plans the codec benchmarks encode and
// decode.
var corpusPlans = sync.OnceValues(func() ([]*core.Plan, error) {
	recs, err := bench.Corpus(42)
	if err != nil {
		return nil, err
	}
	plans := make([]*core.Plan, 0, len(recs))
	for _, rec := range recs {
		c, err := convert.Cached(rec.Dialect)
		if err != nil {
			return nil, err
		}
		p, err := c.Convert(rec.Serialized)
		if err != nil {
			return nil, err
		}
		plans = append(plans, p)
	}
	return plans, nil
})

// corpusBlobs encodes every benchmark corpus plan as its own blob.
func corpusBlobs(tb testing.TB) [][]byte {
	tb.Helper()
	plans, err := corpusPlans()
	if err != nil {
		tb.Fatal(err)
	}
	blobs := make([][]byte, len(plans))
	for i, p := range plans {
		if blobs[i], err = Encode(p); err != nil {
			tb.Fatal(err)
		}
	}
	return blobs
}

// decodeAll decodes every blob once, resetting ar before each plan (the
// reuse lifecycle).
func decodeAll(tb testing.TB, blobs [][]byte, ar *core.PlanArena) {
	for _, blob := range blobs {
		ar.Reset()
		if _, err := DecodeInto(blob, ar); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestCodecDecodeAllocBudget enforces the acceptance budget directly:
// decoding each of the 264 corpus blobs with DecodeInto into one reused
// arena must stay at or under 9 allocations per plan.
func TestCodecDecodeAllocBudget(t *testing.T) {
	blobs := corpusBlobs(t)
	ar := core.NewPlanArena()
	decodeAll(t, blobs, ar) // warm slabs and intern table
	const runs = 10
	avg := testing.AllocsPerRun(runs, func() { decodeAll(t, blobs, ar) })
	perPlan := avg / float64(len(blobs))
	t.Logf("reused-arena decode: %.2f allocs/plan over %d plans", perPlan, len(blobs))
	if perPlan > 9 {
		t.Fatalf("reused-arena decode: %.2f allocs/plan, budget 9", perPlan)
	}
}

// BenchmarkCodecDecode measures blob decode throughput over the corpus.
// The reuse sub-benchmark is the acceptance configuration (one arena,
// Reset per plan); oneshot pays a fresh arena per plan the way a cold
// caller would. plans/s is reported for direct comparison with
// BenchmarkDecodeJSON/stream at the same HEAD.
func BenchmarkCodecDecode(b *testing.B) {
	blobs := corpusBlobs(b)
	report := func(b *testing.B) {
		perPlan := float64(b.Elapsed().Nanoseconds()) / float64(b.N*len(blobs))
		b.ReportMetric(1e9/perPlan, "plans/s")
		b.ReportMetric(perPlan, "ns/plan")
	}
	b.Run("reuse", func(b *testing.B) {
		ar := core.NewPlanArena()
		decodeAll(b, blobs, ar)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			decodeAll(b, blobs, ar)
		}
		b.StopTimer()
		report(b)
	})
	b.Run("oneshot", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, blob := range blobs {
				if _, err := DecodeInto(blob, core.NewPlanArena()); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		report(b)
	})
}

// BenchmarkCodecEncode measures single-plan blob encoding through the
// pooled Encode and through one warm reused Encoder (the serve batch wire
// path) over the full corpus.
func BenchmarkCodecEncode(b *testing.B) {
	plans, err := corpusPlans()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("blob", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, p := range plans {
				if _, err := Encode(p); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		perPlan := float64(b.Elapsed().Nanoseconds()) / float64(b.N*len(plans))
		b.ReportMetric(perPlan, "ns/plan")
	})
	b.Run("reuse", func(b *testing.B) {
		var enc Encoder
		var buf []byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, p := range plans {
				var err error
				if buf, err = enc.AppendEncode(buf[:0], p); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		perPlan := float64(b.Elapsed().Nanoseconds()) / float64(b.N*len(plans))
		b.ReportMetric(perPlan, "ns/plan")
	})
}
