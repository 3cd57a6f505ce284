package control_test

import (
	"testing"

	"repro/internal/control"
	"repro/internal/la"
)

// oddReporter evaluates FProp and reports a double-check on odd calls only,
// rejecting them, and does neither on even calls. It records whether each
// call saw a recomputation.
type oddReporter struct {
	calls  int
	recomp []bool
}

func (v *oddReporter) Validate(c *control.CheckContext) control.Verdict {
	v.calls++
	v.recomp = append(v.recomp, c.Recomputation)
	if v.calls%2 == 0 {
		return control.VerdictAccept
	}
	c.FProp()
	c.ReportCheck(0.25, 2, 3)
	return control.VerdictReject
}

// TestDecideRefreshesCheckAndContext pins the field-by-field refresh of the
// engine's Check and CheckContext: what one Decide's validator reported or
// evaluated must not survive into the next. The campaign goldens cannot
// see a stale field, because their validators report on every check.
func TestDecideRefreshesCheckAndContext(t *testing.T) {
	var sys control.System = control.Func{N: 2, F: func(tt float64, x, dst la.Vec) {
		dst[0] = x[1]
		dst[1] = -x[0]
	}}
	hook := control.StageHook(func(_ int, _ float64, k la.Vec) int {
		k[0] += 1
		return 1
	})
	v := &oddReporter{}
	var eng control.Engine
	eng.Reset(2)
	eng.Validator = v
	ctrl := control.DefaultController(1e-6, 1e-6)
	hist := control.NewHistory(4, 2)
	x := la.Vec{1, 0}
	xProp := la.Vec{0.995, -0.0998}
	errVec := la.Vec{1e-9, -1e-9}
	weights := la.NewVec(2)

	eng.BeginStep()
	for call := 1; call <= 6; call++ {
		chk := eng.Decide(&ctrl, 0, 0, 0.1, x, x, xProp, errVec, weights,
			hist, nil, sys, hook, nil)
		if chk.ClassicReject {
			t.Fatalf("call %d: classic-rejected", call)
		}
		if call%2 == 1 {
			if chk.Verdict != control.VerdictReject || chk.SErr2 != 0.25 || chk.DetOrder != 2 || chk.DetWindow != 3 ||
				chk.EstimateInjections != 1 || chk.FPropEvals != 1 || chk.FProp == nil {
				t.Fatalf("call %d: reporting check = %+v", call, *chk)
			}
			continue
		}
		if chk.Verdict != control.VerdictAccept || chk.SErr2 != -1 || chk.DetOrder != -1 || chk.DetWindow != -1 ||
			chk.EstimateInjections != 0 || chk.FPropEvals != 0 || chk.FProp != nil {
			t.Fatalf("call %d: silent check kept the previous call's report: %+v", call, *chk)
		}
	}
	for i, r := range v.recomp {
		if want := i%2 == 1; r != want {
			t.Fatalf("call %d: Recomputation = %v, want %v", i+1, r, want)
		}
	}
}
