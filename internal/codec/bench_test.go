package codec

import (
	"io"
	"sync"
	"testing"

	"uplan/internal/bench"
	"uplan/internal/convert"
	"uplan/internal/core"
)

// corpusPlans converts the full nine-dialect benchmark corpus once per
// test binary: the 264 unified plans the codec benchmarks pack and decode.
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

// packedCorpus packs the benchmark corpus into one in-memory corpus blob.
func packedCorpus(tb testing.TB) ([]byte, []*core.Plan) {
	tb.Helper()
	plans, err := corpusPlans()
	if err != nil {
		tb.Fatal(err)
	}
	var buf writerBuffer
	cw := NewCorpusWriter(&buf)
	for _, p := range plans {
		if err := cw.Add(p); err != nil {
			tb.Fatal(err)
		}
	}
	if err := cw.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.b, plans
}

// writerBuffer is a minimal io.Writer; bytes.Buffer would work, but this
// keeps the packed slice without the Buffer's read-cursor semantics.
type writerBuffer struct{ b []byte }

func (w *writerBuffer) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// decodeAll runs one full pass over the packed corpus, resetting ar
// before each plan (the reuse lifecycle).
func decodeAll(tb testing.TB, r *CorpusReader, ar *core.PlanArena) int {
	n := 0
	for {
		ar.Reset()
		_, err := r.Next(ar)
		if err == io.EOF {
			r.Rewind()
			return n
		}
		if err != nil {
			tb.Fatal(err)
		}
		n++
	}
}

// TestCodecDecodeAllocBudget enforces the acceptance budget directly:
// iterating the packed 264-record corpus with a reused arena must stay at
// or under 9 allocations per decoded plan.
func TestCodecDecodeAllocBudget(t *testing.T) {
	blob, plans := packedCorpus(t)
	r, err := NewCorpusReader(blob)
	if err != nil {
		t.Fatal(err)
	}
	ar := core.NewPlanArena()
	decodeAll(t, r, ar) // warm slabs and intern table
	const runs = 10
	avg := testing.AllocsPerRun(runs, func() {
		if n := decodeAll(t, r, ar); n != len(plans) {
			t.Fatalf("decoded %d plans, want %d", n, len(plans))
		}
	})
	perPlan := avg / float64(len(plans))
	t.Logf("reused-arena decode: %.2f allocs/plan over %d plans", perPlan, len(plans))
	if perPlan > 9 {
		t.Fatalf("reused-arena decode: %.2f allocs/plan, budget 9", perPlan)
	}
}

// BenchmarkCodecDecode measures corpus decode throughput. The reuse
// sub-benchmark is the acceptance configuration (one arena, Reset per
// plan, table parsed once per file); oneshot pays a fresh arena per plan
// the way a cold caller would. plans/s is reported for direct comparison
// with BenchmarkDecodeJSON/stream at the same HEAD.
func BenchmarkCodecDecode(b *testing.B) {
	blob, plans := packedCorpus(b)
	b.Run("reuse", func(b *testing.B) {
		r, err := NewCorpusReader(blob)
		if err != nil {
			b.Fatal(err)
		}
		ar := core.NewPlanArena()
		decodeAll(b, r, ar)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			decodeAll(b, r, ar)
		}
		b.StopTimer()
		perPlan := float64(b.Elapsed().Nanoseconds()) / float64(b.N*len(plans))
		b.ReportMetric(1e9/perPlan, "plans/s")
		b.ReportMetric(perPlan, "ns/plan")
	})
	b.Run("oneshot", func(b *testing.B) {
		r, err := NewCorpusReader(blob)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for {
				_, err := r.Next(core.NewPlanArena())
				if err == io.EOF {
					r.Rewind()
					break
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		perPlan := float64(b.Elapsed().Nanoseconds()) / float64(b.N*len(plans))
		b.ReportMetric(1e9/perPlan, "plans/s")
		b.ReportMetric(perPlan, "ns/plan")
	})
}

// BenchmarkCodecEncode measures single-plan blob encoding through the
// pooled Encode, through one warm reused Encoder (the serve batch wire
// path), and corpus packing (the store/tooling path) over the full corpus.
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
	b.Run("corpus", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var buf writerBuffer
			cw := NewCorpusWriter(&buf)
			for _, p := range plans {
				if err := cw.Add(p); err != nil {
					b.Fatal(err)
				}
			}
			if err := cw.Flush(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		perPlan := float64(b.Elapsed().Nanoseconds()) / float64(b.N*len(plans))
		b.ReportMetric(perPlan, "ns/plan")
	})
}
