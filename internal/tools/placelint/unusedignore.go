package main

import "fmt"

// checkUnusedIgnore audits the suppressions themselves: a
// //placelint:ignore <check> <reason> that no longer suppresses anything —
// no diagnostic on its lines, no fact cleared at its source — is reported.
// Stale ignores are how invariant rot starts: the hazard they documented
// was fixed (or moved), the comment stays, and a later real violation on
// the same line hides behind it. The check keeps the suppression set
// exactly as large as the set of live, reasoned exceptions.
//
// It runs last in the registry, after every other check of the run has had
// the chance to consume directives, and judges only directives whose check
// actually ran (a run restricted to some checks cannot know whether an
// out-of-set directive is live). Findings are recorded directly, not through reportf: a
// suppression of the suppression audit would be self-defeating.
func checkUnusedIgnore(p *pass) {
	for _, d := range p.lp.ignoreList {
		if p.only != nil && !contains(p.only, d.check) {
			continue
		}
		if p.db.usedIgnores[d] {
			continue
		}
		p.findings = append(p.findings, finding{d.pos, "unusedignore",
			fmt.Sprintf("suppression for %q no longer suppresses anything: delete it (stale reason: %s)", d.check, d.reason)})
	}
}
