// Package lintutil holds the few helpers the sdcvet analyzers share:
// test-file detection (the determinism invariants bind production code;
// tests deliberately compare floats bitwise and pin literal seeds),
// package gating by path suffix, and the list of deterministic packages.
package lintutil

import (
	"go/token"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// DeterministicPkgs lists the packages whose results must replay from
// seeds alone: the in-module import closure of internal/harness and
// internal/server, which holds the detectors, the injector streams and the
// right-hand sides, plus internal/batch. The walltime and detrange
// analyzers default to it; a scope test fails when the closure gains a
// package the list lacks.
const DeterministicPkgs = "repro/internal/batch,repro/internal/control,repro/internal/core,repro/internal/euler,repro/internal/grid,repro/internal/harness,repro/internal/inject,repro/internal/la,repro/internal/ode,repro/internal/pde,repro/internal/problems,repro/internal/server,repro/internal/server/store,repro/internal/stats,repro/internal/telemetry,repro/internal/weno,repro/internal/xrand"

// InTestFile reports whether pos lies in a _test.go file.
func InTestFile(pass *analysis.Pass, pos token.Pos) bool {
	return strings.HasSuffix(pass.Fset.Position(pos).Filename, "_test.go")
}

// PkgMatches reports whether the pass's package path matches any of the
// comma-separated path suffixes (exact path or suffix at a path-segment
// boundary; the implicit foo_test external test package matches through
// its base package). An empty list matches every package.
func PkgMatches(pass *analysis.Pass, sufList string) bool {
	path := strings.TrimSuffix(pass.Pkg.Path(), "_test")
	any := false
	for _, suf := range strings.Split(sufList, ",") {
		suf = strings.TrimSpace(suf)
		if suf == "" {
			continue
		}
		any = true
		if path == suf || strings.HasSuffix(path, "/"+suf) || strings.HasSuffix(path, suf) {
			return true
		}
	}
	return !any
}
