package arenaescape

import (
	"context"

	"uplan/internal/convert"
	"uplan/internal/core"
	"uplan/internal/pipeline"
)

// This file is the false-positive corpus: every function below follows
// the documented arena patterns and must produce zero diagnostics.

// cloneDetach is the canonical lifecycle: Clone detaches the plan before
// the arena is Reset, so returning it is safe.
func cloneDetach(ac convert.Converter, raw string) *core.Plan {
	ar := core.NewPlanArena()
	p, err := ac.ConvertIn(raw, ar)
	if err != nil {
		return nil
	}
	p = p.Clone()
	ar.Reset()
	return p
}

// borrowDetach is the shared-pool lifecycle: Clone detaches the plan
// before convert.ReturnArena hands the arena to the next borrower.
func borrowDetach(ac convert.Converter, raw string) *core.Plan {
	ar := convert.BorrowArena()
	defer convert.ReturnArena(ar)
	p, err := ac.ConvertIn(raw, ar)
	if err != nil {
		return nil
	}
	return p.Clone()
}

// paramArena is the converter contract: build into the caller-supplied
// arena and return the aliased plan — the caller owns the lifecycle.
func paramArena(ac convert.Converter, raw string, ar *core.PlanArena) (*core.Plan, error) {
	p, err := ac.ConvertIn(raw, ar)
	return p, err
}

// oneShot never Resets or pools its arena: the plan and arena die
// together under GC, which is the documented one-shot mode.
func oneShot(ac convert.Converter, raw string) *core.Plan {
	ar := core.NewPlanArena()
	p, _ := ac.ConvertIn(raw, ar)
	return p
}

// errClears covers the worker error branch: the reference is either
// nilled out or Clone-detached on every path before it escapes.
func errClears(ac convert.Converter, raw string, out []*core.Plan, i int) {
	ar := core.NewPlanArena()
	defer ar.Reset()
	p, err := ac.ConvertIn(raw, ar)
	if err != nil {
		p = nil
	} else {
		p = p.Clone()
	}
	out[i] = p
}

// convertChunkDetached is the corrected batch worker: every plan is
// detached before it reaches the shared result slice.
func convertChunkDetached(ac convert.Converter, raws []string, out []result) {
	pipeline.ForEachChunkedCtx(context.Background(), len(raws), 4, 8,
		func() *core.PlanArena { return core.NewPlanArena() },
		func(ar *core.PlanArena, lo, hi int) {
			for i := lo; i < hi; i++ {
				ar.Reset()
				p, err := ac.ConvertIn(raws[i], ar)
				if p != nil {
					p = p.Clone()
				}
				out[i] = result{Plan: p, Err: err}
			}
		},
		func(ar *core.PlanArena) {})
}

// buildChildren grows a child list inside the caller's arena — the
// AppendChildIn producer under the converter contract.
func buildChildren(ar *core.PlanArena, parent *core.Node, n int) []*core.Node {
	var children []*core.Node
	for i := 0; i < n; i++ {
		children = ar.AppendChildIn(children, ar.NewNodeIn(core.Join, "NestedLoop"))
	}
	return children
}
