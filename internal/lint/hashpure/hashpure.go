// Package hashpure guards the server's content-addressing purity: the
// execution-hint fields of server.Spec (Workers, Trace, TraceCap) change
// how a campaign runs but — by the harness's determinism guarantees —
// never a result byte, and the exactness of the result cache depends on
// them staying out of everything that is hashed, cached, or served. A hint that leaks into the fingerprint
// splits the cache (identical campaigns miss); a hint that leaks into
// the result document breaks byte-identity with the serial reference.
//
// Three rules:
//
//  1. Inside a designated sink function (the fingerprint builders, the
//     result encoder, the cache stores), reading a hint field is a
//     finding. Plain writes are fine — EncodeResult legitimately
//     scrubs the hints by overwriting them with zero values.
//
//  2. Inside a sink, iterating a map is a finding unless the loop only
//     collects keys that the function sorts afterwards
//     (collect-then-sort, detrange's discharge extended into the cache
//     layer): hashed or served bytes must not depend on map order.
//
//  3. Anywhere in the scoped packages, passing an expression that reads
//     a hint field as an argument to a sink call is a finding — the
//     taint check at the call boundary, so a leak is caught in the
//     caller even when the sink itself lives in another file.
//
// Exemptions use the standard escape hatch, reason mandatory:
//
//	//lint:allow hashpure -- <reason>
package hashpure

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"repro/internal/lint/directive"
	"repro/internal/lint/lintutil"
)

const name = "hashpure"

var Analyzer = &analysis.Analyzer{
	Name:     name,
	Doc:      "execution hints must not flow into hashed, cached, or served result bytes; no map-order dependence in sinks",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

var (
	pkgs = "repro/internal/server,repro/internal/server/store"
	typs = "repro/internal/server.Spec"
	flds = "Workers,Trace,TraceCap"
	sink = "repro/internal/server.Spec.appendCore," +
		"repro/internal/server.Spec.Hash," +
		"repro/internal/server.Spec.ShardKey," +
		"repro/internal/server.EncodeResult," +
		"repro/internal/server.newShardReport," +
		"repro/internal/server.resultCache.storeCampaign," +
		"repro/internal/server.resultCache.storeShard"
	testFiles = false
)

func init() {
	Analyzer.Flags.StringVar(&pkgs, "pkgs", pkgs,
		"comma-separated package path suffixes to check (empty checks every package)")
	Analyzer.Flags.StringVar(&typs, "typ", typs,
		"comma-separated qualified type names carrying execution-hint fields")
	Analyzer.Flags.StringVar(&flds, "fields", flds,
		"comma-separated hint field names excluded from the content hash")
	Analyzer.Flags.StringVar(&sink, "sinks", sink,
		"comma-separated qualified names of hash/result/cache sink functions")
	Analyzer.Flags.BoolVar(&testFiles, "tests", testFiles, "also check _test.go files")
}

func parseSet(csv string) map[string]bool {
	set := make(map[string]bool)
	for _, s := range strings.Split(csv, ",") {
		if s = strings.TrimSpace(s); s != "" {
			set[s] = true
		}
	}
	return set
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !lintutil.PkgMatches(pass, pkgs) {
		return nil, nil
	}
	typSet := parseSet(typs)
	fieldSet := parseSet(flds)
	sinkSet := parseSet(sink)
	if len(sinkSet) == 0 || len(fieldSet) == 0 {
		return nil, nil
	}
	allows := directive.Collect(pass, name)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	reported := map[token.Pos]bool{}

	report := func(fd *ast.FuncDecl, pos token.Pos, format string, args ...interface{}) {
		if reported[pos] || allows.Allowed(pos) || allows.AllowedFunc(fd) {
			return
		}
		reported[pos] = true
		pass.Reportf(pos, format+" — or //lint:allow hashpure -- reason", args...)
	}

	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil || (!testFiles && lintutil.InTestFile(pass, fd.Pos())) {
			return
		}
		qname := declQName(pass, fd)
		if sinkSet[qname] {
			checkSinkBody(pass, fd, qname, typSet, fieldSet, report)
		}
		// Rule 3: hint reads in the arguments of sink calls.
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := lintutil.CalleeFunc(pass.TypesInfo, call)
			if callee == nil {
				return true
			}
			q := funcQName(callee)
			if q == "" || !sinkSet[q] {
				return true
			}
			for _, arg := range call.Args {
				ast.Inspect(arg, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok && isHintRead(pass, sel, typSet, fieldSet) {
						report(fd, sel.Pos(), "execution hint %s flows into sink %s: hints must never influence hashed or served bytes", types.ExprString(sel), shortName(q))
					}
					return true
				})
			}
			return true
		})
	})

	allows.ReportUnused()
	return nil, nil
}

// checkSinkBody applies rules 1 and 2 inside a sink function.
func checkSinkBody(pass *analysis.Pass, fd *ast.FuncDecl, qname string, typSet, fieldSet map[string]bool, report func(*ast.FuncDecl, token.Pos, string, ...interface{})) {
	// Plain writes scrub hints; only reads taint. Collect the pure
	// write positions (LHS of = and :=; compound ops read too).
	writes := map[ast.Node]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || (as.Tok != token.ASSIGN && as.Tok != token.DEFINE) {
			return true
		}
		for _, lhs := range as.Lhs {
			if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
				writes[sel] = true
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if !writes[n] && isHintRead(pass, n, typSet, fieldSet) {
				report(fd, n.Pos(), "execution hint %s read in sink %s: hashed, cached, and served bytes must not depend on engine shape", types.ExprString(n), shortName(qname))
			}
		case *ast.RangeStmt:
			t := pass.TypesInfo.TypeOf(n.X)
			if t == nil {
				return true
			}
			if _, ok := t.Underlying().(*types.Map); !ok {
				return true
			}
			if collectThenSort(pass, fd, n) {
				return true
			}
			report(fd, n.Pos(), "map iteration in sink %s: map order is nondeterministic — collect the keys, sort, then emit", shortName(qname))
		}
		return true
	})
}

// isHintRead reports whether sel is Field access on a configured hint
// type with a configured hint field name.
func isHintRead(pass *analysis.Pass, sel *ast.SelectorExpr, typSet, fieldSet map[string]bool) bool {
	if !fieldSet[sel.Sel.Name] {
		return false
	}
	t := pass.TypesInfo.TypeOf(sel.X)
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return typSet[named.Obj().Pkg().Path()+"."+named.Obj().Name()]
}

// collectThenSort discharges a map range whose body only appends to
// locals that the function sorts after the loop.
func collectThenSort(pass *analysis.Pass, fd *ast.FuncDecl, rng *ast.RangeStmt) bool {
	// Destinations appended to inside the loop body.
	dsts := map[types.Object]bool{}
	pure := true
	for _, s := range rng.Body.List {
		as, ok := s.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			pure = false
			break
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			pure = false
			break
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "append" {
			pure = false
			break
		}
		if dst, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident); ok {
			if obj := pass.TypesInfo.Uses[dst]; obj != nil {
				dsts[obj] = true
				continue
			}
			if obj := pass.TypesInfo.Defs[dst]; obj != nil {
				dsts[obj] = true
				continue
			}
		}
		pure = false
		break
	}
	if !pure || len(dsts) == 0 {
		return false
	}
	// Every destination must be sorted after the loop.
	sorted := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		if id, ok := call.Args[0].(*ast.Ident); ok {
			if obj := pass.TypesInfo.Uses[id]; obj != nil {
				sorted[obj] = true
			}
		}
		return true
	})
	for obj := range dsts {
		if !sorted[obj] {
			return false
		}
	}
	return true
}

// declQName returns the qualified name of a declaration: pkgpath.Func,
// or pkgpath.Type.Method with any pointer receiver dropped.
func declQName(pass *analysis.Pass, fd *ast.FuncDecl) string {
	pkg := pass.Pkg.Path()
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return pkg + "." + fd.Name.Name
	}
	n := namedOf(pass.TypesInfo.TypeOf(fd.Recv.List[0].Type))
	if n == nil {
		return ""
	}
	return pkg + "." + n.Obj().Name() + "." + fd.Name.Name
}

// funcQName returns the qualified name of a called function or method.
func funcQName(f *types.Func) string {
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		n := namedOf(sig.Recv().Type())
		if n == nil || n.Obj().Pkg() == nil {
			return ""
		}
		return n.Obj().Pkg().Path() + "." + n.Obj().Name() + "." + f.Name()
	}
	if f.Pkg() == nil {
		return ""
	}
	return f.Pkg().Path() + "." + f.Name()
}

// shortName strips the package path, leaving Func or Type.Method.
func shortName(q string) string {
	if i := strings.LastIndex(q, "/"); i >= 0 {
		q = q[i+1:]
	}
	if i := strings.Index(q, "."); i >= 0 {
		return q[i+1:]
	}
	return q
}

func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}
