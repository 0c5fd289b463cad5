package thorin

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// compilePathDirs are the packages a compile runs through, from source
// text to executed program. backend is walked recursively.
var compilePathDirs = []string{
	"internal/ir", "internal/analysis", "internal/transform", "internal/pm",
	"internal/impala", "internal/ssa", "internal/link", "internal/backend",
	"internal/driver", "internal/vm", "internal/wasm",
}

// allowedExportedVars lists the only exported package-level vars the
// compile path may declare besides errors.New sentinels. The impala
// primitive types are canonical type instances: shared, immutable values
// the frontend hands out instead of allocating a fresh type each time.
// Nothing assigns them, and type equality is structural, so they hold no
// state a compile could observe.
var allowedExportedVars = map[string]bool{
	"impala.TyI64":  true,
	"impala.TyF64":  true,
	"impala.TyBool": true,
	"impala.TyUnit": true,
}

// TestNoExportedGlobalCompileState fails on any exported package-level var
// in a compile-path package. Such a var is a knob any importer can flip at
// runtime, outside the spec and the compile server's cache key, so the
// same request could compile to different output. Compiled output must be
// a function of the cache-key inputs alone.
func TestNoExportedGlobalCompileState(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range compilePathDirs {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || filepath.Ext(path) != ".go" || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					vs := spec.(*ast.ValueSpec)
					for i, name := range vs.Names {
						if !name.IsExported() || allowedExportedVars[f.Name.Name+"."+name.Name] {
							continue
						}
						if i < len(vs.Values) && isErrorsNew(vs.Values[i]) {
							continue
						}
						t.Errorf("%s: exported package-level var %s.%s is global compile state outside the cache key",
							fset.Position(name.Pos()), f.Name.Name, name.Name)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// isErrorsNew reports whether e is a call errors.New(...): an error
// sentinel, compared by identity and never reassigned.
func isErrorsNew(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "errors" && sel.Sel.Name == "New"
}
