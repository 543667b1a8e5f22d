package main

import (
	"sync/atomic"
	"time"
)

// span is one timed call into a layer's public API, made by this harness.
// Spans of one op share Request, the ID of its root "request" span; the
// stages under a root are siblings, each a separate call on the same
// input, so their durations need not sum to the root's.
type span struct {
	Name     string `json:"name"`
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent,omitempty"`
	Request  int64  `json:"request"`
	StartNS  int64  `json:"start_ns"` // since the trace began
	EndNS    int64  `json:"end_ns"`
	Workload string `json:"workload"`
	Dialect  string `json:"dialect,omitempty"`
	Format   string `json:"format,omitempty"`
}

func (s *span) dur() float64 { return float64(s.EndNS - s.StartNS) }

// tracer records the spans of one goroutine in memory; spans are written
// out only when the run ends. A root's spans follow it in its tracer, so
// ops can be reassembled by a sequential scan.
type tracer struct {
	epoch time.Time
	ids   *atomic.Int64
	spans []span
}

// newTracer returns a tracer on the run's clock and ID space, which
// every tracer of the run shares.
func newTracer(epoch time.Time, ids *atomic.Int64) *tracer {
	return &tracer{epoch: epoch, ids: ids}
}

// root opens an op's "request" span and returns its index.
func (t *tracer) root(workload, dialect, format string) int {
	id := t.ids.Add(1)
	t.spans = append(t.spans, span{
		Name: "request", ID: id, Request: id, StartNS: t.now(),
		Workload: workload, Dialect: dialect, Format: format,
	})
	return len(t.spans) - 1
}

// begin opens a child of the span at index parent and returns its index.
func (t *tracer) begin(parent int, name, dialect, format string) int {
	p := &t.spans[parent]
	t.spans = append(t.spans, span{
		Name: name, ID: t.ids.Add(1), Parent: p.ID, Request: p.Request, StartNS: t.now(),
		Workload: p.Workload, Dialect: dialect, Format: format,
	})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].EndNS = t.now() }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// opSpans regroups spans by op: for each workload and span name, the
// summed duration of that name's spans in each op that has one (ns).
// Roots appear under "request", and serveclient.transport is derived per
// op as the round trip minus the in-process handler.
type opSpans map[string]map[string][]float64

func groupOps(tracers []*tracer) opSpans {
	out := opSpans{}
	for _, t := range tracers {
		var (
			sums map[string]float64
			wl   string
		)
		flush := func() {
			if sums == nil {
				return
			}
			if out[wl] == nil {
				out[wl] = map[string][]float64{}
			}
			rt, ok1 := sums["serveclient.roundtrip"]
			h, ok2 := sums["serve.handler"]
			if ok1 && ok2 {
				sums["serveclient.transport"] = rt - h
			}
			for name, d := range sums {
				out[wl][name] = append(out[wl][name], d)
			}
		}
		for i := range t.spans {
			s := &t.spans[i]
			if s.Parent == 0 {
				flush()
				sums, wl = map[string]float64{}, s.Workload
			}
			sums[s.Name] += s.dur()
		}
		flush()
	}
	return out
}

// quantileUS is the p-quantile of one workload's per-op durations of
// name, in µs.
func (o opSpans) quantileUS(workload, name string, p float64) float64 {
	return percentile(sortedCopy(o[workload][name]), p) / 1e3
}
