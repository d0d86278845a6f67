package analysis

import (
	"go/ast"
	"go/types"
	"regexp"
)

// Determinism guards the bit-identical-training invariant: resumed or
// re-run training must produce byte-for-byte identical results, so
// production code must not read wall-clock time, must not draw from the
// global (unseeded, unserializable) math/rand source, and must not let
// map iteration order reach encoded bytes.
var Determinism = &Analyzer{
	Name: "determinism",
	Run:  runDeterminism,
}

// encodePathRE matches function names that produce serialized bytes
// (checkpoint framing, state encoding, hashing); inside them, map
// iteration order leaks straight into the output.
var encodePathRE = regexp.MustCompile(`^(?i:encode|marshal|hash|save|serialize|write|dump|frame)`)

// globalRandFuncs are the math/rand (v1 and v2) package-level functions
// that draw from the shared global source. Constructors like New,
// NewSource, and NewPCG are fine: an explicitly seeded *Rand is exactly
// what deterministic code should use.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "IntN": true, "Int31": true, "Int31n": true,
	"Int32": true, "Int32N": true, "Int63": true, "Int63n": true,
	"Int64": true, "Int64N": true, "Uint": true, "UintN": true,
	"Uint32": true, "Uint32N": true, "Uint64": true, "Uint64N": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true, "N": true,
}

func runDeterminism(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := pkgFunc(pass.Info, call)
			if fn == nil {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true
			}
			switch path := funcPath(fn); {
			case path == "time" && fn.Name() == "Now":
				pass.Reportf(call.Pos(), "time.Now breaks deterministic replay; thread an explicit clock or timestamp through the caller")
			case (path == "math/rand" || path == "math/rand/v2") && globalRandFuncs[fn.Name()]:
				pass.Reportf(call.Pos(), "global %s.%s draws from shared unserializable RNG state; use an explicitly seeded *rand.Rand", path, fn.Name())
			}
			return true
		})
		// Map iteration inside encode paths: the whole body of any
		// function whose name says "I produce serialized bytes",
		// including closures it contains.
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !encodePathRE.MatchString(fd.Name.Name) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if t := pass.TypeOf(rng.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						pass.Reportf(rng.Pos(), "map iteration in encode path %s: order is randomized per run and leaks into the bytes; iterate sorted keys", fd.Name.Name)
					}
				}
				return true
			})
		}
	}
	return nil
}
