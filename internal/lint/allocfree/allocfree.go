// Package allocfree guards the zero-allocation hot path: the steady-state
// protected step is pinned at zero heap allocations by AllocsPerRun tests
// and the cmd/sdcperf benchmark gate, and that budget is easiest to blow by
// reintroducing a `make` (or an allocating helper like la.NewVec) into one
// of the per-step functions. The analyzer flags builtin make/new calls and
// calls to configured allocator functions inside the designated hot-path
// functions.
//
// The check is intraprocedural and syntactic: it sees allocations written
// directly in a designated function, not ones reached through calls — the
// runtime AllocsPerRun tests cover the transitive path. Deliberate
// grow-once workspace allocations (sized on first use, reused forever
// after) are exempted with `//lint:allow allocfree -- reason`.
package allocfree

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"repro/internal/lint/directive"
)

const name = "allocfree"

var Analyzer = &analysis.Analyzer{
	Name:     name,
	Doc:      "flags make/new and allocator calls inside designated allocation-free hot-path functions",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// funcs designates the hot-path functions, as qualified names: pkgpath.Func
// for functions, pkgpath.Type.Method for methods (pointer receivers drop
// the *). The default set is the per-step path of the protected integrator.
var funcs = "repro/internal/batch.Integrator.Round," +
	"repro/internal/control.CheckContext.FProp," +
	"repro/internal/control.Controller.NewStepSize," +
	"repro/internal/control.Controller.Score," +
	"repro/internal/control.Engine.Decide," +
	"repro/internal/core.AID.Validate," +
	"repro/internal/core.DoubleCheck.Validate," +
	"repro/internal/core.HotRode.Validate," +
	"repro/internal/core.Replication.Validate," +
	"repro/internal/core.Richardson.Validate," +
	"repro/internal/core.TMR.Validate," +
	"repro/internal/la.FirstDerivativeWeightsInto," +
	"repro/internal/la.LagrangeWeightsInto," +
	"repro/internal/ode.BDFEstimator.Estimate," +
	"repro/internal/ode.Integrator.Step," +
	"repro/internal/ode.LIPEstimator.Estimate," +
	"repro/internal/ode.Stepper.Trial," +
	"repro/internal/pde.EulerSystem.Eval," +
	"repro/internal/pde.split," +
	"repro/internal/weno.Crweno5.ReconstructLeft," +
	"repro/internal/weno.Weno5.ReconstructLeft," +
	"repro/internal/weno.WenoZ5.ReconstructLeft"

// allocators names functions whose calls count as allocations, in the same
// qualified form as -funcs.
var allocators = "repro/internal/la.NewVec,repro/internal/la.Vec.Clone"

func init() {
	Analyzer.Flags.StringVar(&funcs, "funcs", funcs,
		"comma-separated qualified names of allocation-free hot-path functions")
	Analyzer.Flags.StringVar(&allocators, "allocs", allocators,
		"comma-separated qualified names of functions whose calls count as allocations")
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
	hot := parseSet(funcs)
	allocSet := parseSet(allocators)
	if len(hot) == 0 {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	allows := directive.Collect(pass, name)

	ins.WithStack([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return true
		}
		fd := enclosingFuncDecl(stack)
		if fd == nil {
			return true
		}
		fname := declQName(pass, fd)
		if !hot[fname] {
			return true
		}
		call := n.(*ast.CallExpr)
		what := allocKind(pass, call, allocSet)
		if what == "" {
			return true
		}
		if allows.Allowed(call.Pos()) || allows.AllowedFunc(fd) {
			return true
		}
		pass.ReportRangef(call, "%s in allocation-free hot-path function %s: the steady-state step is pinned at zero heap allocations (AllocsPerRun tests, cmd/sdcperf gate) — hoist into a reused workspace or //lint:allow %s -- reason", what, shortName(fname), name)
		return true
	})

	allows.ReportUnused()
	return nil, nil
}

// allocKind classifies call as a flagged allocation: "make"/"new" for the
// builtins, "allocating call <name>" for configured allocators, "" for
// anything else.
func allocKind(pass *analysis.Pass, call *ast.CallExpr, allocSet map[string]bool) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch obj := pass.TypesInfo.Uses[fun].(type) {
		case *types.Builtin:
			if n := obj.Name(); n == "make" || n == "new" {
				return n
			}
		case *types.Func:
			if q := funcQName(obj); q != "" && allocSet[q] {
				return "allocating call " + shortName(q)
			}
		}
	case *ast.SelectorExpr:
		if f, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			if q := funcQName(f); q != "" && allocSet[q] {
				return "allocating call " + shortName(q)
			}
		}
	}
	return ""
}

// declQName returns the qualified name of a function declaration in the
// package under analysis ("" when the receiver type cannot be resolved).
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

// funcQName returns the qualified name of a called function or method
// ("" for builtins without packages and unresolvable receivers).
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

func enclosingFuncDecl(stack []ast.Node) *ast.FuncDecl {
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return fd
		}
	}
	return nil
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
