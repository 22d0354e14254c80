package realisticfd

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// simulatorDirs are the packages every simulator run passes through:
// a run must be a function of its spec and seed alone.
var simulatorDirs = []string{
	"internal/sim", "internal/fd", "internal/model", "internal/consensus",
	"internal/trb", "internal/abcast", "internal/core", "internal/harness",
	"internal/scenario", "internal/experiments", "cmd/fdsim",
}

// detectorCoreDir holds the live detector's algorithm: every file of it
// but detectorDriver, the live driver, which alone may read the clock.
// The others take every instant as an argument, so they must be as
// deterministic as a simulator package, and they start no goroutine,
// take no lock and make no channel.
const detectorCoreDir, detectorDriver = "internal/heartbeat", "gossip.go"

// TestDeterminismByConstruction walks the non-test code of the
// simulator packages and of the detector core and fails on the three
// ways a run could come to depend on something besides its spec and
// seed:
//   - a range over a map (or over maps.Keys, maps.Values or maps.All),
//     unless the loop binds no variable, or only appends to slices
//     that the same function sorts, or carries an "// order-free:
//     <reason>" comment that ends on the line of the for or above it;
//   - a clock read or wait: time.Now, Since, Until, After, AfterFunc,
//     NewTimer, NewTicker, Sleep and Tick;
//   - the global math/rand functions (constructors such as rand.New
//     are fine: a seeded *rand.Rand is deterministic).
//
// In the detector core it also fails on a go statement, a channel and
// anything of package sync or sync/atomic.
func TestDeterminismByConstruction(t *testing.T) {
	t.Parallel()
	fset := token.NewFileSet()
	imp := &repoImporter{fset: fset, std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*checked{}}
	for _, dir := range append(simulatorDirs, detectorCoreDir) {
		c := imp.load(modulePath + "/" + dir)
		if c.err != nil {
			t.Fatalf("%s: %v", dir, c.err)
		}
		for _, f := range c.files {
			var problems []string
			switch {
			case dir != detectorCoreDir:
				problems = nondeterminism(fset, f, c.info)
			case filepath.Base(fset.Position(f.Pos()).Filename) != detectorDriver:
				problems = append(nondeterminism(fset, f, c.info), concurrency(fset, f, c.info)...)
			}
			for _, problem := range problems {
				t.Error(problem)
			}
		}
	}
}

// clockCalls are the functions of package time that read the clock or
// wait on it.
var clockCalls = []string{"Now", "Since", "Until", "After", "AfterFunc", "NewTimer", "NewTicker", "Sleep", "Tick"}

const modulePath = "realisticfd"

// repoImporter type-checks this module's packages from source (their
// non-test files), each once, and the standard library through the
// source importer.
type repoImporter struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*checked
}

// checked is one type-checked package of this module.
type checked struct {
	files []*ast.File
	info  *types.Info
	pkg   *types.Package
	err   error
}

func (imp *repoImporter) Import(path string) (*types.Package, error) {
	if !strings.HasPrefix(path, modulePath+"/") {
		return imp.std.Import(path)
	}
	c := imp.load(path)
	return c.pkg, c.err
}

// load parses and type-checks the non-test files of one package.
func (imp *repoImporter) load(path string) *checked {
	if c, ok := imp.pkgs[path]; ok {
		return c
	}
	c := &checked{info: &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}}}
	imp.pkgs[path] = c
	dir := filepath.FromSlash(strings.TrimPrefix(path, modulePath+"/"))
	entries, err := os.ReadDir(dir)
	if err != nil {
		c.err = err
		return c
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(imp.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			c.err = err
			return c
		}
		c.files = append(c.files, f)
	}
	conf := types.Config{Importer: imp}
	c.pkg, c.err = conf.Check(path, imp.fset, c.files, c.info)
	return c
}

// nondeterminism lists the forbidden constructs of one file.
func nondeterminism(fset *token.FileSet, f *ast.File, info *types.Info) []string {
	annotated := map[int]bool{} // last lines of order-free comments
	for _, cg := range f.Comments {
		if strings.HasPrefix(cg.List[0].Text, "// order-free:") {
			annotated[fset.Position(cg.End()).Line] = true
		}
	}
	var problems []string
	report := func(n ast.Node, format string, args ...any) {
		problems = append(problems, fset.Position(n.Pos()).String()+": "+fmt.Sprintf(format, args...))
	}
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				line := fset.Position(n.For).Line
				if !rangesOverMap(n.X, info) || n.Key == nil && n.Value == nil || annotated[line] || annotated[line-1] {
					return true
				}
				if slices := appendedSlices(n.Body); slices != nil && sortsAll(fn.Body, n, slices, info) {
					return true
				}
				report(n, "range over a map: iteration order leaks into the run (sort, or say why with // order-free:)")
			case *ast.SelectorExpr:
				obj, ok := info.Uses[n.Sel].(*types.Func)
				if !ok || obj.Pkg() == nil || obj.Type().(*types.Signature).Recv() != nil {
					return true
				}
				switch path := obj.Pkg().Path(); {
				case path == "time" && slices.Contains(clockCalls, obj.Name()):
					report(n, "time.%s reads the wall clock", obj.Name())
				case (path == "math/rand" || path == "math/rand/v2") && !strings.HasPrefix(obj.Name(), "New"):
					report(n, "rand.%s draws from the global source", obj.Name())
				}
			}
			return true
		})
	}
	return problems
}

// concurrency lists the goroutines, channels and sync objects of one
// file.
func concurrency(fset *token.FileSet, f *ast.File, info *types.Info) []string {
	var problems []string
	ast.Inspect(f, func(n ast.Node) bool {
		what := ""
		switch n := n.(type) {
		case *ast.GoStmt:
			what = "a go statement"
		case *ast.ChanType, *ast.SendStmt, *ast.SelectStmt:
			what = "a channel"
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				what = "a channel"
			}
		case *ast.RangeStmt:
			if _, ok := info.Types[n.X].Type.Underlying().(*types.Chan); ok {
				what = "a channel"
			}
		case *ast.SelectorExpr:
			if obj := info.Uses[n.Sel]; obj != nil && obj.Pkg() != nil && (obj.Pkg().Path() == "sync" || obj.Pkg().Path() == "sync/atomic") {
				what = obj.Pkg().Name() + "." + obj.Name()
			}
		}
		if what != "" {
			problems = append(problems, fset.Position(n.Pos()).String()+": "+what+" in the detector core, which runs on no goroutine, lock or channel of its own")
		}
		return true
	})
	return problems
}

// rangesOverMap reports whether x is a map, or a maps.Keys, maps.Values
// or maps.All iterator.
func rangesOverMap(x ast.Expr, info *types.Info) bool {
	if _, ok := info.Types[x].Type.Underlying().(*types.Map); ok {
		return true
	}
	call, ok := x.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj, ok := info.Uses[sel.Sel].(*types.Func)
	return ok && obj.Pkg() != nil && obj.Pkg().Path() == "maps" && (obj.Name() == "Keys" || obj.Name() == "Values" || obj.Name() == "All")
}

// appendedSlices returns the slices a loop body fills when every
// statement of it, through if statements, is s = append(s, ...); nil
// when the body does anything else.
func appendedSlices(body *ast.BlockStmt) []string {
	var names []string
	var walk func(stmts []ast.Stmt) bool
	walk = func(stmts []ast.Stmt) bool {
		for _, st := range stmts {
			switch st := st.(type) {
			case *ast.AssignStmt:
				name, ok := selfAppend(st)
				if !ok {
					return false
				}
				names = append(names, name)
			case *ast.IfStmt:
				if st.Init != nil || !walk(st.Body.List) {
					return false
				}
				if st.Else != nil {
					els, ok := st.Else.(*ast.BlockStmt)
					if !ok || !walk(els.List) {
						return false
					}
				}
			case *ast.BranchStmt:
				if st.Tok != token.CONTINUE || st.Label != nil {
					return false
				}
			default:
				return false
			}
		}
		return true
	}
	if !walk(body.List) || len(names) == 0 {
		return nil
	}
	return names
}

// selfAppend matches s = append(s, ...) and returns s.
func selfAppend(st *ast.AssignStmt) (string, bool) {
	if st.Tok != token.ASSIGN || len(st.Lhs) != 1 || len(st.Rhs) != 1 {
		return "", false
	}
	lhs, ok := st.Lhs[0].(*ast.Ident)
	if !ok {
		return "", false
	}
	call, ok := st.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) < 2 {
		return "", false
	}
	if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "append" {
		return "", false
	}
	if arg, ok := call.Args[0].(*ast.Ident); !ok || arg.Name != lhs.Name {
		return "", false
	}
	return lhs.Name, true
}

// sortsAll reports whether, after the loop, the function passes each
// named slice to a sort or slices sorting function.
func sortsAll(fnBody *ast.BlockStmt, loop *ast.RangeStmt, names []string, info *types.Info) bool {
	sorted := map[string]bool{}
	ast.Inspect(fnBody, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < loop.End() || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj, ok := info.Uses[sel.Sel].(*types.Func)
		if !ok || obj.Pkg() == nil {
			return true
		}
		path := obj.Pkg().Path()
		if path != "sort" && !(path == "slices" && strings.HasPrefix(obj.Name(), "Sort")) {
			return true
		}
		if arg, ok := call.Args[0].(*ast.Ident); ok {
			sorted[arg.Name] = true
		}
		return true
	})
	for _, name := range names {
		if !sorted[name] {
			return false
		}
	}
	return true
}
