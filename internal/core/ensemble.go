package core

import "repro/internal/control"

// Ensemble combines several validators: a step is accepted only when every
// member accepts it. Combining LBDC and IBDC trades extra false positives
// for the union of their detection patterns — the "different corruption
// patterns" rationale of §V taken one step further.
//
// Every member sees every trial (so each one's false-positive
// self-detection keeps working); the combined verdict is:
//
//   - Reject if any member rejects;
//   - FPRescue if no member rejects and at least one rescued;
//   - Accept otherwise.
type Ensemble struct {
	Members []control.Validator
	Stats   Stats
}

// NewEnsemble returns an ensemble over the given members.
func NewEnsemble(members ...control.Validator) *Ensemble {
	return &Ensemble{Members: members}
}

// Validate implements control.Validator.
func (e *Ensemble) Validate(c *control.CheckContext) control.Verdict {
	e.Stats.Checks++
	verdict := control.VerdictAccept
	for _, m := range e.Members {
		switch m.Validate(c) {
		case control.VerdictReject:
			verdict = control.VerdictReject
		case control.VerdictFPRescue:
			if verdict == control.VerdictAccept {
				verdict = control.VerdictFPRescue
			}
		}
	}
	switch verdict {
	case control.VerdictReject:
		e.Stats.Rejections++
	case control.VerdictFPRescue:
		e.Stats.FPRescues++
	}
	return verdict
}
