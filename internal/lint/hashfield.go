package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// HashFieldRule names one struct whose exported fields must all be
// referenced in its canonical-form functions. The bug class: a new field
// is added to a hashed spec type, json.Marshal dutifully includes it in
// the canonical bytes, but nobody taught Normalized (defaulting,
// name-folding, zeroing of ignored fields) or Validate about it — so two
// spellings of the same run stop sharing a cache entry, or an
// out-of-range value is hashed and run. Requiring every exported field to
// appear in the named functions forces that decision to be made (or
// visibly suppressed) in review.
type HashFieldRule struct {
	// PkgPath is the package the rule applies to.
	PkgPath string
	// TypeName is the struct type.
	TypeName string
	// Funcs are function names in the package (methods of any receiver or
	// package-level functions) that together must reference every
	// exported field of TypeName.
	Funcs []string
}

// DefaultHashFieldRules pins the three hashed spec types: the run Spec
// (canonical bytes = content hash = cache key) and the scenario
// definition types embedded in it.
var DefaultHashFieldRules = []HashFieldRule{
	{PkgPath: "repro/internal/experiments", TypeName: "Spec", Funcs: []string{"Normalized", "Validate"}},
	{PkgPath: "repro/internal/scenario", TypeName: "Definition", Funcs: []string{"Normalized", "Validate"}},
	{PkgPath: "repro/internal/scenario", TypeName: "PhaseDef", Funcs: []string{"Normalized", "Validate"}},
}

// NewHashField returns the hashfield analyzer for the given rules.
func NewHashField(rules []HashFieldRule) *Analyzer {
	a := &Analyzer{
		Name: "hashfield",
		Doc: "every exported field of a hashed spec struct must be referenced in its canonical-form " +
			"functions (Normalized/Validate) so no field is silently excluded from the contract",
	}
	a.Run = func(pass *Pass) error {
		for _, rule := range rules {
			if pass.Path != rule.PkgPath {
				continue
			}
			checkHashFields(pass, rule)
		}
		return nil
	}
	return a
}

// HashField is the production hashfield analyzer.
var HashField = NewHashField(DefaultHashFieldRules)

func checkHashFields(pass *Pass, rule HashFieldRule) {
	obj := pass.Pkg.Scope().Lookup(rule.TypeName)
	if obj == nil {
		pass.Reportf(pass.Files[0].Pos(), "hashfield rule names unknown type %s.%s", rule.PkgPath, rule.TypeName)
		return
	}
	named, ok := obj.Type().(*types.Named)
	if !ok {
		return
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return
	}

	covered := map[string]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !nameIn(fd.Name.Name, rule.Funcs) {
				continue
			}
			markFieldRefs(pass, fd.Body, named, covered)
		}
	}

	for i := 0; i < st.NumFields(); i++ {
		field := st.Field(i)
		if !field.Exported() || covered[field.Name()] {
			continue
		}
		pass.Reportf(field.Pos(), "exported field %s.%s is not referenced in %s — decide its canonical handling (default it, fold it, zero it) or suppress with a reason",
			rule.TypeName, field.Name(), strings.Join(rule.Funcs, "/"))
	}
}

// markFieldRefs records every field of typ referenced in body, through
// selectors (s.Field — including via pointers and local copies) and keyed
// composite literals (Type{Field: v}).
func markFieldRefs(pass *Pass, body ast.Node, typ *types.Named, covered map[string]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			selInfo, ok := pass.TypesInfo.Selections[n]
			if !ok || selInfo.Kind() != types.FieldVal {
				return true
			}
			if recvNamed(selInfo.Recv()) == typ.Obj() {
				covered[n.Sel.Name] = true
			}
		case *ast.CompositeLit:
			tv, ok := pass.TypesInfo.Types[n]
			if !ok {
				return true
			}
			nt, ok := derefType(tv.Type).(*types.Named)
			if !ok || nt.Obj() != typ.Obj() {
				return true
			}
			for _, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						covered[id.Name] = true
					}
				}
			}
		}
		return true
	})
}

// recvNamed unwraps a selection receiver (possibly a pointer or slice
// element) to its named type object.
func recvNamed(t types.Type) *types.TypeName {
	if nt, ok := derefType(t).(*types.Named); ok {
		return nt.Obj()
	}
	return nil
}

func derefType(t types.Type) types.Type {
	for {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		return t
	}
}

func nameIn(name string, set []string) bool {
	for _, s := range set {
		if s == name {
			return true
		}
	}
	return false
}
