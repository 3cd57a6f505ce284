package hashpure_test

import (
	"testing"

	"repro/internal/lint/hashpure"
	"repro/internal/lint/linttest"
)

func TestHashpure(t *testing.T) {
	linttest.SetFlags(t, hashpure.Analyzer, map[string]string{
		"pkgs":   "",
		"typ":    "a.Spec",
		"fields": "Workers,Batch,Trace,TraceCap",
		"sinks":  "a.hashSpec,a.Spec.fingerprint,a.scrub,a.bump,a.store",
	})
	linttest.Run(t, "testdata/src/a", "a", hashpure.Analyzer)
}
