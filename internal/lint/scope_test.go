package lint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/lintutil"
)

// The scoped analyzers aim concurrency and purity rules at specific
// packages through plain string flag defaults. Nothing in the compiler
// notices when those strings rot: a renamed package silently drops out
// of its analyzer's scope, and a new package that starts spawning
// goroutines or locking mutexes is born unwatched. The tests in this
// file pin both directions — every scoped path must exist, and every
// package using a primitive an analyzer polices must be either scoped
// or exempted here with a recorded reason.

// scopedFlags names every (analyzer, flag) pair whose default value is a
// comma-separated list of package import paths.
var scopedFlags = map[string][]string{
	"ctxflow":  {"pkgs"},
	"golife":   {"pkgs"},
	"locksafe": {"pkgs"},
	"hashpure": {"pkgs"},
	"detrange": {"pkgs"},
	"walltime": {"pkgs"},
}

// triggers maps each concurrency analyzer to a pattern recognizing the
// primitive it polices, applied to comment-stripped non-test source
// lines. A package matching the pattern must be in the analyzer's scope
// or carry a justified exemption below.
var triggers = map[string]*regexp.Regexp{
	"ctxflow":  regexp.MustCompile(`\bcontext\.(Background|TODO|WithCancel|WithTimeout|WithDeadline|Context)\b`),
	"golife":   regexp.MustCompile(`^\s*go\s+(func\b|\w+[.(])`),
	"locksafe": regexp.MustCompile(`\bsync\.(Mutex|RWMutex|Cond)\b`),
}

// exempt records packages deliberately left outside a scope, with the
// reason. An entry here is a decision, not an accident.
var exempt = map[string]map[string]string{
	"ctxflow": {
		"repro/cmd/sdcd": "package main: the process root context legitimately originates in main, and handler ctx plumbing is exercised by the server package's scope",
	},
	"golife":   {},
	"locksafe": {},
}

func flagDefault(t *testing.T, analyzer, flagName string) string {
	t.Helper()
	for _, a := range lint.All() {
		if a.Name != analyzer {
			continue
		}
		f := a.Flags.Lookup(flagName)
		if f == nil {
			t.Fatalf("analyzer %s has no flag %q", analyzer, flagName)
		}
		return f.DefValue
	}
	t.Fatalf("no analyzer named %s", analyzer)
	return ""
}

func splitList(csv string) []string {
	var out []string
	for _, s := range strings.Split(csv, ",") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}

// packagesUnder maps every package import path under internal/... and
// cmd/... to its non-test .go files, skipping vendor, testdata, and the
// lint subtree itself (the analyzers' own sources name the primitives
// they search for; sdcvet's concurrency scopes do not cover the linter).
func packagesUnder(t *testing.T, includeLint bool) map[string][]string {
	t.Helper()
	root := moduleRoot(t)
	_, modPath, err := lint.FindModule(root)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]string)
	for _, top := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join(root, top), func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				name := d.Name()
				if name == "vendor" || name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(d.Name(), ".go") {
				return nil
			}
			rel, err := filepath.Rel(root, filepath.Dir(path))
			if err != nil {
				return err
			}
			ip := modPath + "/" + filepath.ToSlash(rel)
			if !includeLint && (ip == modPath+"/internal/lint" || strings.HasPrefix(ip, modPath+"/internal/lint/")) {
				return nil
			}
			if strings.HasSuffix(d.Name(), "_test.go") {
				out[ip] = append(out[ip], "") // package exists; file not scanned
				return nil
			}
			out[ip] = append(out[ip], path)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestScopedPackagesExist fails when any package path named by a scope
// flag's default no longer exists in the tree.
func TestScopedPackagesExist(t *testing.T) {
	pkgs := packagesUnder(t, true)
	for analyzer, flags := range scopedFlags {
		for _, fl := range flags {
			for _, p := range splitList(flagDefault(t, analyzer, fl)) {
				if _, ok := pkgs[p]; !ok {
					t.Errorf("-%s.%s names %s, which does not exist (renamed or deleted?)", analyzer, fl, p)
				}
			}
		}
	}
}

// TestDeterministicPkgsCoverClosure fails when a package that
// internal/harness or internal/server imports, directly or not, is missing
// from lintutil.DeterministicPkgs: a campaign's results depend on every
// package of that closure, so each must stay replayable from seeds.
func TestDeterministicPkgsCoverClosure(t *testing.T) {
	root := moduleRoot(t)
	_, modPath, err := lint.FindModule(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs := packagesUnder(t, false)
	listed := make(map[string]bool)
	for _, p := range splitList(lintutil.DeterministicPkgs) {
		listed[p] = true
	}
	seen := make(map[string]bool)
	queue := []string{modPath + "/internal/harness", modPath + "/internal/server"}
	for len(queue) > 0 {
		ip := queue[0]
		queue = queue[1:]
		if seen[ip] {
			continue
		}
		seen[ip] = true
		if !listed[ip] {
			t.Errorf("%s is in the import closure of harness and server but not in lintutil.DeterministicPkgs", ip)
		}
		for _, f := range pkgs[ip] {
			if f == "" {
				continue
			}
			file, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range file.Imports {
				if dep := strings.Trim(spec.Path.Value, `"`); strings.HasPrefix(dep, modPath+"/") {
					queue = append(queue, dep)
				}
			}
		}
	}
}

// stripLineComments removes // comments so primitive mentions in prose
// do not count as usage.
func stripLineComments(src string) string {
	var b strings.Builder
	for _, line := range strings.Split(src, "\n") {
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestScopeCompleteness fails when a package uses a primitive one of the
// concurrency analyzers polices but sits in neither that analyzer's
// scope nor the exemption table above.
func TestScopeCompleteness(t *testing.T) {
	pkgs := packagesUnder(t, false)
	for analyzer, re := range triggers {
		scope := make(map[string]bool)
		for _, p := range splitList(flagDefault(t, analyzer, "pkgs")) {
			scope[p] = true
		}
		var missing []string
		for ip, files := range pkgs {
			if scope[ip] || exempt[analyzer][ip] != "" {
				continue
			}
			for _, f := range files {
				if f == "" {
					continue
				}
				src, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				if re.MatchString(stripLineComments(string(src))) {
					missing = append(missing, ip)
					break
				}
			}
		}
		sort.Strings(missing)
		for _, ip := range missing {
			t.Errorf("%s uses a primitive %s polices but is neither in -%s.pkgs nor exempted with a reason in scope_test.go", ip, analyzer, analyzer)
		}
	}
}

// TestExemptionsJustified fails when an exemption goes stale: the
// exempted package must still exist, must not also be in scope, and the
// reason must be non-empty.
func TestExemptionsJustified(t *testing.T) {
	pkgs := packagesUnder(t, true)
	for analyzer, m := range exempt {
		scope := make(map[string]bool)
		for _, p := range splitList(flagDefault(t, analyzer, "pkgs")) {
			scope[p] = true
		}
		for ip, reason := range m {
			if strings.TrimSpace(reason) == "" {
				t.Errorf("exemption of %s from %s has no reason", ip, analyzer)
			}
			if _, ok := pkgs[ip]; !ok {
				t.Errorf("exemption of %s from %s is stale: the package no longer exists", ip, analyzer)
			}
			if scope[ip] {
				t.Errorf("%s is both scoped and exempted for %s; delete the exemption", ip, analyzer)
			}
		}
	}
}

// TestQualifiedNamesExist resolves every function, method, and type the
// allocfree and hashpure defaults name, so the hot-path and sink lists
// cannot rot when code moves.
func TestQualifiedNamesExist(t *testing.T) {
	root := moduleRoot(t)
	_, modPath, err := lint.FindModule(root)
	if err != nil {
		t.Fatal(err)
	}
	ld := lint.NewLoader(root, modPath)
	decls := make(map[string]map[string]bool) // pkg path -> declared Func / Type.Method / Type
	declsOf := func(path string) map[string]bool {
		if d, ok := decls[path]; ok {
			return d
		}
		pkg, err := ld.Load(path)
		if err != nil {
			t.Fatalf("load %s: %v", path, err)
		}
		d := make(map[string]bool)
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					if r := recvTypeName(decl); r != "" {
						d[r+"."+decl.Name.Name] = true
					} else {
						d[decl.Name.Name] = true
					}
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						if ts, ok := spec.(*ast.TypeSpec); ok {
							d[ts.Name.Name] = true
						}
					}
				}
			}
		}
		decls[path] = d
		return d
	}

	check := func(analyzer, fl string) {
		for _, q := range splitList(flagDefault(t, analyzer, fl)) {
			slash := strings.LastIndex(q, "/")
			dot := strings.Index(q[slash+1:], ".")
			if dot < 0 {
				t.Errorf("-%s.%s entry %q is not a qualified name", analyzer, fl, q)
				continue
			}
			path, name := q[:slash+1+dot], q[slash+1+dot+1:]
			if !declsOf(path)[name] {
				t.Errorf("-%s.%s names %s, but %s declares no such function, method, or type", analyzer, fl, q, path)
			}
		}
	}
	check("allocfree", "funcs")
	check("allocfree", "allocs")
	check("hashpure", "sinks")
	check("hashpure", "typ")
}

func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if st, ok := t.(*ast.StarExpr); ok {
		t = st.X
	}
	switch t := t.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.IndexExpr:
		if id, ok := t.X.(*ast.Ident); ok {
			return id.Name
		}
	}
	return ""
}
