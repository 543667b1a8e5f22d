// Package allowdir exercises //lint:allow directive handling: same-line
// and line-above suppression, analyzer matching, and the mandatory
// reason string.
package allowdir

import "uplan/internal/dbms"

// sameLine is suppressed by a directive on the flagged line.
func sameLine(e *dbms.Engine) {
	_ = e.Analyze() //lint:allow oracleerr engine torn down next statement in the harness
}

// lineAbove is suppressed by a directive on the line directly above.
func lineAbove(e *dbms.Engine) {
	//lint:allow oracleerr timing loop; the same path is validated before measuring
	_ = e.Analyze()
}

// wrongAnalyzer names a different analyzer, so the finding survives.
func wrongAnalyzer(e *dbms.Engine) {
	//lint:allow hotalloc directive for another analyzer does not suppress this
	_ = e.Analyze() // want `error result of dbms\.Engine\.Analyze assigned to _`
}

// missingReason omits the mandatory reason: the directive is itself a
// finding and suppresses nothing.
func missingReason(e *dbms.Engine) {
	/* want `requires a reason string` */ //lint:allow oracleerr
	_ = e.Analyze()                       // want `error result of dbms\.Engine\.Analyze assigned to _`
}
