package lint

import (
	"go/ast"
	"go/types"
)

// forbiddenFunc names one function whose call sites detsource rejects
// inside the boundary, with the replacement to suggest.
type forbiddenFunc struct{ hint string }

// detsourceForbidden maps "package path"."func" to the suggested fix.
// These are the nondeterminism sources that have actually bitten (or
// nearly bitten) this codebase: wall-clock reads, the globally seeded
// math/rand source, OS entropy, and host topology.
var detsourceForbidden = map[string]map[string]forbiddenFunc{
	"time": {
		"Now":       {hint: "derive timing from simulated quanta (machine.Now)"},
		"Since":     {hint: "derive durations from simulated quanta"},
		"Until":     {hint: "derive durations from simulated quanta"},
		"After":     {hint: "simulated schedules must not wait on the wall clock"},
		"Tick":      {hint: "simulated schedules must not wait on the wall clock"},
		"NewTimer":  {hint: "simulated schedules must not wait on the wall clock"},
		"NewTicker": {hint: "simulated schedules must not wait on the wall clock"},
	},
	"math/rand": {
		// Package-level draws share one process-global, possibly
		// time-seeded source; only explicitly seeded rand.New(
		// rand.NewSource(seed)) instances are deterministic per run.
		"Int": {}, "Intn": {}, "Int31": {}, "Int31n": {}, "Int63": {}, "Int63n": {},
		"Uint32": {}, "Uint64": {}, "Float32": {}, "Float64": {}, "NormFloat64": {},
		"ExpFloat64": {}, "Perm": {}, "Shuffle": {}, "Seed": {}, "Read": {},
	},
	"math/rand/v2": {
		"Int": {}, "IntN": {}, "Int32": {}, "Int32N": {}, "Int64": {}, "Int64N": {},
		"Uint32": {}, "Uint32N": {}, "Uint64": {}, "Uint64N": {}, "Uint": {}, "UintN": {},
		"Float32": {}, "Float64": {}, "NormFloat64": {}, "ExpFloat64": {}, "Perm": {}, "Shuffle": {}, "N": {},
	},
	"os": {
		"Getpid":   {hint: "process identity is host state; thread the seed instead"},
		"Getenv":   {hint: "environment is host state; thread configuration explicitly"},
		"Hostname": {hint: "host identity must not reach simulated state"},
	},
	"runtime": {
		"NumCPU":     {hint: "host topology must not shape simulated work (use Config.Cores)"},
		"GOMAXPROCS": {hint: "host topology must not shape simulated work"},
	},
}

// mathRandDeterministic lists the math/rand package-level functions that
// are fine: constructors for explicitly seeded sources.
var mathRandDeterministic = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

// NewDetSource returns the detsource analyzer restricted to the given
// boundary package paths. Fixtures construct it with fixture paths; the
// exported DetSource uses the real DeterminismBoundary.
func NewDetSource(boundary []string) *Analyzer {
	a := &Analyzer{
		Name: "detsource",
		Doc: "forbid wall-clock, entropy and host-state reads inside determinism-boundary packages " +
			"(time.Now/Since, global math/rand, crypto/rand, os.Getpid/Getenv, runtime.NumCPU, ...)",
	}
	a.Run = func(pass *Pass) error {
		if !inBoundary(boundary, pass.Path) {
			return nil
		}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				pkgPath, name := resolvePkgFunc(pass, sel)
				if pkgPath == "" {
					return true
				}
				// Any use of crypto/rand (rand.Read, rand.Reader, rand.Int)
				// is OS entropy by definition.
				if pkgPath == "crypto/rand" {
					pass.Reportf(sel.Pos(), "crypto/rand.%s reads OS entropy inside the determinism boundary; derive randomness from the run seed", name)
					return true
				}
				funcs, ok := detsourceForbidden[pkgPath]
				if !ok {
					return true
				}
				if pkgPath == "math/rand" || pkgPath == "math/rand/v2" {
					if mathRandDeterministic[name] {
						return true
					}
					// Methods on a seeded *rand.Rand resolve to the rand
					// package too, but through a selection (r.Intn), not a
					// package qualifier — only flag package-qualified uses.
					if !isPkgQualifier(pass, sel.X) {
						return true
					}
					if _, forbidden := funcs[name]; !forbidden {
						return true
					}
					pass.Reportf(sel.Pos(), "global math/rand draw %s.%s inside the determinism boundary; use a per-run rand.New(rand.NewSource(seed))", pkgBase(pkgPath), name)
					return true
				}
				ff, forbidden := funcs[name]
				if !forbidden {
					return true
				}
				msg := pkgPath + "." + name + " inside the determinism boundary"
				if ff.hint != "" {
					msg += "; " + ff.hint
				}
				pass.Reportf(sel.Pos(), "%s", msg)
				return true
			})
		}
		return nil
	}
	return a
}

// DetSource is the production detsource analyzer.
var DetSource = NewDetSource(DeterminismBoundary)

// resolvePkgFunc resolves a selector to (package path, name) when its base
// is a package qualifier or when the selected object belongs to a package
// (covers both time.Now and rand.Reader).
func resolvePkgFunc(pass *Pass, sel *ast.SelectorExpr) (string, string) {
	obj := pass.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return "", ""
	}
	// Only package-level objects: methods (e.g. (*rand.Rand).Intn) have a
	// receiver and are resolved through Selections instead.
	if _, isSelection := pass.TypesInfo.Selections[sel]; isSelection {
		return "", ""
	}
	return obj.Pkg().Path(), obj.Name()
}

// isPkgQualifier reports whether e is a bare package name.
func isPkgQualifier(pass *Pass, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isPkg := pass.TypesInfo.Uses[id].(*types.PkgName)
	return isPkg
}

func pkgBase(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}
