// Package floatcmp flags the two floating-point comparison shapes that let
// a silently corrupted value pick the wrong branch:
//
//  1. == and != on floating-point operands. Rounding makes equality
//     meaningless and NaN compares unequal to everything including itself,
//     so an exact comparison is either a bug or a deliberate bitwise check
//     that belongs in a designated helper. Comparisons against an exact
//     constant zero are exempt — "zero means unset" is the repo's config
//     sentinel convention and a NaN cannot satisfy it by accident.
//
//  2. "NaN falls through": an ordered comparison (<, >, <=, >=) used as a
//     branch condition in step-size/error-control code. Every ordered
//     comparison with a NaN operand is false, so a corrupted error
//     estimate silently selects the untaken branch — exactly the
//     NewStepSize bug where a NaN scaled error fell through `sErr > 0`
//     and picked the maximum step increase. The guard is discharged when
//     the enclosing function sanitizes the operand with math.IsNaN or
//     math.IsInf.
//
// Escape hatches: `//lint:allow floatcmp -- reason` on the line (or the
// enclosing function's doc comment), or a helper named in -helpers whose
// whole body is trusted with exact comparisons.
package floatcmp

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"repro/internal/lint/directive"
	"repro/internal/lint/lintutil"
)

const name = "floatcmp"

var Analyzer = &analysis.Analyzer{
	Name:     name,
	Doc:      "flags ==/!= on floats and NaN fall-through guards in step-size/error-control code",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

var (
	helpers   = "repro/internal/la.ExactEq"
	nanFuncs  = "StepSize"
	nanPkgs   = "repro/internal/control,repro/internal/core,repro/internal/dist,repro/internal/pde"
	nanVars   = `(?i)^s?err`
	testFiles = false
)

func init() {
	Analyzer.Flags.BoolVar(&testFiles, "tests", testFiles,
		"also check _test.go files (off by default: determinism tests compare floats bitwise on purpose)")
	Analyzer.Flags.StringVar(&helpers, "helpers", helpers,
		"comma-separated designated comparison helpers (pkgpath.Func or bare Func) whose bodies may use exact float comparisons")
	Analyzer.Flags.StringVar(&nanFuncs, "nanfuncs", nanFuncs,
		"regexp of function names whose ordered float comparisons must be NaN-guarded")
	Analyzer.Flags.StringVar(&nanPkgs, "nanpkgs", nanPkgs,
		"comma-separated package path suffixes where -nanvars operands must be NaN-guarded (empty disables)")
	Analyzer.Flags.StringVar(&nanVars, "nanvars", nanVars,
		"regexp of operand names checked for NaN fall-through inside -nanpkgs")
}

func run(pass *analysis.Pass) (interface{}, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	allows := directive.Collect(pass, name)
	nanFuncRE, err := regexp.Compile(nanFuncs)
	if err != nil {
		return nil, err
	}
	nanVarRE, err := regexp.Compile(nanVars)
	if err != nil {
		return nil, err
	}
	helperSet := make(map[string]bool)
	for _, h := range strings.Split(helpers, ",") {
		if h = strings.TrimSpace(h); h != "" {
			helperSet[h] = true
		}
	}
	inNanPkg := strings.TrimSpace(nanPkgs) != "" && lintutil.PkgMatches(pass, nanPkgs)

	// Equality comparisons, with the enclosing-function context needed for
	// the helper allowlist and func-level directives.
	ins.WithStack([]ast.Node{(*ast.BinaryExpr)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return true
		}
		cmp := n.(*ast.BinaryExpr)
		if cmp.Op != token.EQL && cmp.Op != token.NEQ {
			return true
		}
		if !testFiles && lintutil.InTestFile(pass, cmp.Pos()) {
			return true
		}
		if !isFloat(pass.TypesInfo.TypeOf(cmp.X)) && !isFloat(pass.TypesInfo.TypeOf(cmp.Y)) {
			return true
		}
		if isZeroConst(pass, cmp.X) || isZeroConst(pass, cmp.Y) {
			return true
		}
		fd := enclosingFuncDecl(stack)
		if fd != nil && isHelper(pass, fd, helperSet) {
			return true
		}
		if allows.Allowed(cmp.Pos()) || allows.AllowedFunc(fd) {
			return true
		}
		pass.ReportRangef(cmp, "exact %s on float operands (NaN-unsafe; rounding-unsafe) — use a designated comparison helper or //lint:allow floatcmp -- reason", cmp.Op)
		return true
	})

	// NaN fall-through guards: scan each function body for ordered float
	// comparisons in branch conditions, discharged by IsNaN/IsInf mentions.
	ins.Nodes([]ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)}, func(n ast.Node, push bool) bool {
		if !push {
			return true
		}
		var body *ast.BlockStmt
		var fd *ast.FuncDecl
		name := ""
		switch fn := n.(type) {
		case *ast.FuncDecl:
			body, fd, name = fn.Body, fn, fn.Name.Name
		case *ast.FuncLit:
			body = fn.Body
		}
		if body == nil {
			return true
		}
		if !testFiles && lintutil.InTestFile(pass, body.Pos()) {
			return true
		}
		byName := name != "" && nanFuncs != "" && nanFuncRE.MatchString(name)
		if !byName && !inNanPkg {
			return true
		}
		sanitized := sanitizedOperands(pass, body)
		for _, cond := range branchConds(body) {
			for _, op := range orderedFloatOperands(pass, cond) {
				key := types.ExprString(op)
				if sanitized[key] || sanitized[rootName(op)] {
					continue
				}
				if !byName && !nanVarRE.MatchString(lastName(op)) {
					continue
				}
				if allows.Allowed(op.Pos()) || allows.AllowedFunc(fd) {
					continue
				}
				pass.ReportRangef(op, "NaN falls through: ordered comparison on %s selects the untaken branch for a NaN operand; sanitize with math.IsNaN/math.IsInf first", key)
			}
		}
		return true
	})

	allows.ReportUnused()
	return nil, nil
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isZeroConst reports whether e is a compile-time constant equal to zero —
// the "zero value means default" sentinel this repo's config structs use.
func isZeroConst(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	v := constant.ToFloat(tv.Value)
	return v.Kind() != constant.Unknown && constant.Sign(v) == 0
}

func enclosingFuncDecl(stack []ast.Node) *ast.FuncDecl {
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return fd
		}
	}
	return nil
}

func isHelper(pass *analysis.Pass, fd *ast.FuncDecl, helperSet map[string]bool) bool {
	if len(helperSet) == 0 {
		return false
	}
	name := fd.Name.Name
	return helperSet[name] || helperSet[pass.Pkg.Path()+"."+name]
}

// sanitizedOperands collects the rendered expressions passed to math.IsNaN
// or math.IsInf anywhere in body — a mention is taken as evidence the
// function routes non-finite values explicitly.
func sanitizedOperands(pass *analysis.Pass, body *ast.BlockStmt) map[string]bool {
	out := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "IsNaN" && sel.Sel.Name != "IsInf") {
			return true
		}
		if obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); !ok || obj.Pkg() == nil || obj.Pkg().Path() != "math" {
			return true
		}
		out[types.ExprString(call.Args[0])] = true
		out[rootName(call.Args[0])] = true
		return true
	})
	return out
}

// branchConds returns the if- and for-conditions directly inside body,
// excluding nested function literals (which are scanned as their own
// functions).
func branchConds(body *ast.BlockStmt) []ast.Expr {
	var out []ast.Expr
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.IfStmt:
			out = append(out, s.Cond)
		case *ast.ForStmt:
			if s.Cond != nil {
				out = append(out, s.Cond)
			}
		}
		return true
	})
	return out
}

// orderedFloatOperands returns the non-constant identifier/selector
// operands of ordered float comparisons within cond.
func orderedFloatOperands(pass *analysis.Pass, cond ast.Expr) []ast.Expr {
	var out []ast.Expr
	ast.Inspect(cond, func(n ast.Node) bool {
		cmp, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch cmp.Op {
		case token.LSS, token.GTR, token.LEQ, token.GEQ:
		default:
			return true
		}
		for _, op := range []ast.Expr{cmp.X, cmp.Y} {
			if !isFloat(pass.TypesInfo.TypeOf(op)) {
				continue
			}
			if tv, ok := pass.TypesInfo.Types[op]; ok && tv.Value != nil {
				continue // constants cannot be NaN
			}
			switch op.(type) {
			case *ast.Ident, *ast.SelectorExpr:
				out = append(out, op)
			}
		}
		return true
	})
	return out
}

// rootName returns the leading identifier of an expression chain
// (sErr for sErr, c for c.SErr1), so sanitizing any part of a chain
// discharges comparisons rooted at it.
func rootName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x.Name
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.CallExpr:
			e = x.Fun
		case *ast.IndexExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return ""
		}
	}
}

// lastName returns the final identifier of an expression (SErr1 for
// c.SErr1), the name matched against -nanvars.
func lastName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	}
	return ""
}
