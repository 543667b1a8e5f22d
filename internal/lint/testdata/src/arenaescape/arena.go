// Package arenaescape exercises the arenaescape analyzer: every want
// comment marks a PlanArena ownership-contract violation.
package arenaescape

import (
	"context"
	"sync"

	"uplan/internal/convert"
	"uplan/internal/core"
	"uplan/internal/pipeline"
)

// result mirrors the pipeline record shape: the caller-visible slot a
// worker writes its plan into.
type result struct {
	Plan *core.Plan
	Err  error
}

// retResetLocal returns a plan that still aliases a local arena this
// function Resets: the classic use-after-Reset.
func retResetLocal(ac convert.Converter, raw string) *core.Plan {
	ar := core.NewPlanArena()
	p, err := ac.ConvertIn(raw, ar)
	if err != nil {
		return nil
	}
	ar.Reset()
	return p // want `arena-backed value p returned`
}

var arenaPool = sync.Pool{New: func() any { return core.NewPlanArena() }}

// retPooled puts the arena back in the pool while the plan still aliases
// its slabs: the next Get/Reset corrupts the returned plan.
func retPooled(ac convert.Converter, raw string) *core.Plan {
	ar := arenaPool.Get().(*core.PlanArena)
	p, _ := ac.ConvertIn(raw, ar)
	arenaPool.Put(ar)
	return p // want `arena-backed value p returned`
}

// retBorrowed returns the arena to convert's shared pool while the plan
// still aliases it: the next borrower resets and rebuilds those slabs.
func retBorrowed(ac convert.Converter, raw string) *core.Plan {
	ar := convert.BorrowArena()
	p, _ := ac.ConvertIn(raw, ar)
	convert.ReturnArena(ar)
	return p // want `arena-backed value p returned`
}

// nakedReturn leaks the same way through a named result.
func nakedReturn(ac convert.Converter, raw string) (p *core.Plan, err error) {
	ar := core.NewPlanArena()
	p, err = ac.ConvertIn(raw, ar)
	ar.Reset()
	return // want `arena-backed value p returned`
}

// worker reuses one arena across conversions, so everything built in it
// is invalidated by the next Reset.
type worker struct {
	arena *core.PlanArena
	conv  convert.Converter
}

// storeUndetached writes a still-aliased plan into the caller's result
// slice: the next record's Reset rewrites it in place.
func (w *worker) storeUndetached(raw string, out []result, i int) {
	w.arena.Reset()
	p, err := w.conv.ConvertIn(raw, w.arena)
	out[i].Plan = p // want `arena-backed value stored in out\[i\]\.Plan`
	out[i].Err = err
}

// sendUndetached hands an aliased plan to another goroutine while the
// worker keeps mutating the arena.
func sendUndetached(w *worker, raw string, ch chan *core.Plan) {
	p, _ := w.conv.ConvertIn(raw, w.arena)
	ch <- p // want `arena-backed value p sent on a channel`
}

// nodeCache keeps a node built in an arena that is Reset before the
// function returns.
type nodeCache struct {
	root *core.Node
}

func (c *nodeCache) keepNode() {
	ar := core.NewPlanArena()
	n := ar.NewNodeIn(core.Join, "HashJoin")
	c.root = n // want `arena-backed value stored in c\.root`
	ar.Reset()
}

// convertChunk is the batch worker shape: the per-worker arena is
// Reset between records, so plans escaping into out must be detached
// first — these are not.
func convertChunk(ac convert.Converter, raws []string, out []result) {
	pipeline.ForEachChunkedCtx(context.Background(), len(raws), 4, 8,
		func() *core.PlanArena { return core.NewPlanArena() },
		func(ar *core.PlanArena, lo, hi int) {
			for i := lo; i < hi; i++ {
				ar.Reset()
				p, err := ac.ConvertIn(raws[i], ar)
				out[i] = result{Plan: p, Err: err} // want `arena-backed value stored in out\[\.\.\.\]`
			}
		},
		func(ar *core.PlanArena) {})
}
