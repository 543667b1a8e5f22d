// The conversion-surface case: ConvertIn sits on the one converter
// interface, so a dropped error there turns a malformed plan into a
// silently half-built one whatever the dialect.

package oracleerr

import (
	"uplan/internal/convert"
	"uplan/internal/core"
)

// dropConvertInErr hands a possibly half-built plan on as if the native
// plan had parsed.
func dropConvertInErr(c convert.Converter, raw string, ar *core.PlanArena) *core.Plan {
	p, _ := c.ConvertIn(raw, ar) // want `error result of convert\.Converter\.ConvertIn assigned to _`
	return p
}

// handledConvertIn observes the error before trusting the plan.
func handledConvertIn(c convert.Converter, raw string, ar *core.PlanArena) (*core.Plan, error) {
	p, err := c.ConvertIn(raw, ar)
	if err != nil {
		return nil, err
	}
	return p, nil
}
