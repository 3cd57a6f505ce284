// Package detrange flags map iteration whose body produces ordered output
// — appends to slices, writes through strings.Builder/bytes.Buffer/
// io.Writer, JSON encoding, channel sends, or slice-element stores. Go
// randomizes map iteration order, so any such loop in a deterministic
// package can produce run-to-run different results that the campaign
// engine's bitwise-identity guarantees cannot tolerate; iterate over
// sorted keys instead.
//
// The canonical collect-then-sort idiom is recognized and allowed: a loop
// that only appends keys to a slice which the same function later passes
// to sort.* / slices.Sort* is exactly how sorted-key iteration starts.
// Anything else needs `//lint:allow detrange -- reason`.
package detrange

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

const name = "detrange"

var Analyzer = &analysis.Analyzer{
	Name:     name,
	Doc:      "flags map iteration producing ordered output in deterministic packages",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

var pkgs = lintutil.DeterministicPkgs

func init() {
	Analyzer.Flags.StringVar(&pkgs, "pkgs", pkgs,
		"comma-separated package path suffixes to check (empty checks every package)")
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !lintutil.PkgMatches(pass, pkgs) {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	allows := directive.Collect(pass, name)

	ins.WithStack([]ast.Node{(*ast.RangeStmt)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return true
		}
		rng := n.(*ast.RangeStmt)
		t := pass.TypesInfo.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, ok := t.Underlying().(*types.Map); !ok {
			return true
		}
		for _, w := range orderedWrites(pass, rng) {
			if w.sortedAfter(pass, stack, rng) {
				continue
			}
			if allows.Allowed(w.node.Pos()) || allows.Allowed(rng.Pos()) {
				continue
			}
			pass.ReportRangef(w.node, "%s inside map iteration: map order is nondeterministic — iterate over sorted keys or //lint:allow detrange -- reason", w.what)
		}
		return true
	})

	allows.ReportUnused()
	return nil, nil
}

// write is one order-sensitive operation found in a map-range body.
type write struct {
	node ast.Node
	what string
	// appendDst is the destination object of a plain `x = append(x, ...)`,
	// the only shape eligible for the collect-then-sort discharge.
	appendDst types.Object
}

func orderedWrites(pass *analysis.Pass, rng *ast.RangeStmt) []write {
	var out []write
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.CallExpr:
			if id, ok := s.Fun.(*ast.Ident); ok && id.Name == "append" {
				if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
					out = append(out, write{node: s, what: "append", appendDst: appendTarget(pass, s)})
				}
				return true
			}
			if what := writerCall(pass, s); what != "" {
				out = append(out, write{node: s, what: what})
			}
		case *ast.SendStmt:
			out = append(out, write{node: s, what: "channel send"})
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				ix, ok := lhs.(*ast.IndexExpr)
				if !ok {
					continue
				}
				t := pass.TypesInfo.TypeOf(ix.X)
				if t == nil {
					continue
				}
				switch t.Underlying().(type) {
				case *types.Slice, *types.Array, *types.Pointer:
					out = append(out, write{node: s, what: "slice element store"})
				}
			}
		}
		return true
	})
	return out
}

// appendTarget resolves the variable that receives the append result in
// the enclosing assignment, when the call is the sole RHS.
func appendTarget(pass *analysis.Pass, call *ast.CallExpr) types.Object {
	if len(call.Args) == 0 {
		return nil
	}
	id, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return nil
	}
	return pass.TypesInfo.Uses[id]
}

// writerCall classifies method/function calls that emit ordered output.
func writerCall(pass *analysis.Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return ""
	}
	name := fn.Name()
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && strings.HasPrefix(name, "Fprint") {
		return "fmt." + name
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	switch name {
	case "Write", "WriteString", "WriteByte", "WriteRune", "Encode":
		return recvName(sig) + "." + name
	}
	return ""
}

func recvName(sig *types.Signature) string {
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

// sortedAfter discharges the collect-then-sort idiom: the write is an
// append to a local that the enclosing function sorts after the loop.
func (w write) sortedAfter(pass *analysis.Pass, stack []ast.Node, rng *ast.RangeStmt) bool {
	if w.appendDst == nil {
		return false
	}
	var encl ast.Node
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			encl = stack[i]
		}
		if encl != nil {
			break
		}
	}
	if encl == nil {
		return false
	}
	sorted := false
	ast.Inspect(encl, func(n ast.Node) bool {
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
		switch fn.Pkg().Path() {
		case "sort", "slices":
		default:
			return true
		}
		name := fn.Name()
		if !strings.HasPrefix(name, "Sort") && !strings.HasPrefix(name, "Slice") &&
			!strings.HasSuffix(name, "s") && name != "Stable" {
			return true
		}
		if id, ok := call.Args[0].(*ast.Ident); ok && pass.TypesInfo.Uses[id] == w.appendDst {
			sorted = true
		}
		return true
	})
	return sorted
}
