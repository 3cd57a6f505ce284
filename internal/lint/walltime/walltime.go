// Package walltime forbids wall-clock reads (time.Now, time.Since) and the
// process-global math/rand generators in the deterministic packages: the
// campaign engine guarantees bitwise-identical results for any worker
// count, and both are ambient nondeterminism that cannot be replayed from
// a seed.
//
// The only sanctioned use is the telemetry "time."-prefixed wall-clock
// metrics path (dropped from determinism comparisons by
// Snapshot.WithoutTimings) and the harness's §VI-B wall-clock overhead
// measurements. Those sites carry an explicit, validated escape hatch:
//
//	//lint:allow walltime -- <reason>
//
// on the offending line (or the line above). The analyzer validates the
// hatch itself: a directive without a reason, or one left behind after the
// excused call is gone, is reported as a finding.
package walltime

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"repro/internal/lint/directive"
	"repro/internal/lint/lintutil"
)

const name = "walltime"

var Analyzer = &analysis.Analyzer{
	Name:     name,
	Doc:      "forbids time.Now/time.Since and global math/rand in deterministic packages",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

var (
	pkgs      = lintutil.DeterministicPkgs
	testFiles = false
)

func init() {
	Analyzer.Flags.StringVar(&pkgs, "pkgs", pkgs,
		"comma-separated package path suffixes to check (empty checks every package)")
	Analyzer.Flags.BoolVar(&testFiles, "tests", testFiles, "also check _test.go files")
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !lintutil.PkgMatches(pass, pkgs) {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	allows := directive.Collect(pass, name)

	ins.Preorder([]ast.Node{(*ast.SelectorExpr)(nil)}, func(n ast.Node) {
		sel := n.(*ast.SelectorExpr)
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return
		}
		if !testFiles && lintutil.InTestFile(pass, sel.Pos()) {
			return
		}
		var what string
		switch fn.Pkg().Path() {
		case "time":
			if fn.Name() == "Now" || fn.Name() == "Since" {
				what = "wall-clock read time." + fn.Name()
			}
		case "math/rand", "math/rand/v2":
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
				what = "process-global " + shortPkg(fn.Pkg().Path()) + "." + fn.Name()
			}
		}
		if what == "" {
			return
		}
		if allows.Allowed(sel.Pos()) {
			return
		}
		pass.ReportRangef(sel, "%s in deterministic package %s: results must be replayable from seeds — plumb measured time/entropy in explicitly, or //lint:allow walltime -- reason", what, pass.Pkg.Path())
	})

	allows.ReportUnused()
	return nil, nil
}

func shortPkg(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 && path != "math/rand" {
		return "rand/" + path[i+1:]
	}
	return "rand"
}
