package lint

import (
	"go/ast"
	"go/types"
)

// decoratorAnalyzer enforces the interception-completeness contract
// (DESIGN.md "Decorator composition"): a named struct type that embeds the
// wl.Scheme interface and declares its own Write method is a decorator — it
// interposes on the per-request write path. Such a type must itself declare
// every other method that writes or captures scheme state: WriteRun,
// WriteSweep, CheckInvariants, Snapshot and Restore. The check looks at
// declared methods only. wl.Scheme is the whole contract, so the embedded
// interface promotes all five and the type satisfies wl.Scheme regardless —
// and each promoted method is a silent bypass: a bulk write that dodges the
// decorator's failure handling, a checkpoint that drops its state, a
// paranoid check that never sees its invariants. One diagnostic per missing
// method; a decorator that genuinely wants pass-through for one states so
// in twlint.allow.
var decoratorAnalyzer = &Analyzer{
	Name: "decorator",
	Doc:  "a type embedding wl.Scheme that overrides Write must declare every other state-touching Scheme method",
}

func init() { decoratorAnalyzer.Run = runDecorator }

// interceptedMethods are the wl.Scheme methods besides Write that a
// decorator must declare rather than inherit.
var interceptedMethods = []string{"WriteRun", "WriteSweep", "CheckInvariants", "Snapshot", "Restore"}

func runDecorator(p *Package, w *World) []Diagnostic {
	if !internalScope(p.Path) {
		return nil
	}
	var diags []Diagnostic
	for _, f := range p.Files {
		if testSupport(f) {
			continue
		}
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				obj, ok := p.Info.Defs[ts.Name].(*types.TypeName)
				if !ok || obj.IsAlias() {
					continue
				}
				named, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				st, ok := named.Underlying().(*types.Struct)
				if !ok || !embedsScheme(st) || !declares(named, "Write") {
					continue
				}
				for _, name := range interceptedMethods {
					if declares(named, name) {
						continue
					}
					diags = report(diags, p, w, decoratorAnalyzer, obj.Pos(),
						"decorator %s embeds wl.Scheme and overrides Write but does not declare %s; the embedded scheme's promoted method serves that path without the decorator's interception", named.Obj().Name(), name)
				}
			}
		}
	}
	return diags
}

// embedsScheme reports whether the struct has an embedded field of the
// wl.Scheme interface type itself (not a concrete scheme).
func embedsScheme(st *types.Struct) bool {
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Embedded() && isWLNamed(f.Type(), "Scheme") {
			return true
		}
	}
	return false
}

// declares reports whether the named type declares a method called name
// itself (methods promoted from the embedded scheme do not count).
func declares(named *types.Named, name string) bool {
	for i := 0; i < named.NumMethods(); i++ {
		if named.Method(i).Name() == name {
			return true
		}
	}
	return false
}
