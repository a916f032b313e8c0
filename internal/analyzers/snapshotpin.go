package analyzers

import (
	"go/ast"
	"go/token"

	"hpcadvisor/internal/analyzers/analysis"
)

// snapshotPinPackages are the serving layers where every response body and
// its ETag must come from one pinned snapshot.
var snapshotPinPackages = map[string]bool{
	"service": true,
	"api":     true,
	"gui":     true,
}

// SnapshotPin enforces the ETag-coherence rule: a request handler fetches
// the live snapshot (or its generation) at most once, pins it in a local,
// and renders everything — rows, tables, SVGs, the stamped generation —
// from that pin by passing the pinned snapshot to every engine read. Two
// live fetches in one request path can straddle a concurrent append and put
// a newer body under an older ETag (or vice versa). Since every engine read
// takes the snapshot as an argument, each fetch a request path makes is a
// visible .Snapshot() or .Generation() call this analyzer counts.
//
// Concretely, inside any one function in service/api/gui, the analyzer
// counts "live fetches": calls to .Snapshot() plus calls to .Generation()
// whose receiver is not a local pinned by a .Snapshot() call in the same
// function. More than one live fetch is reported.
var SnapshotPin = &analysis.Analyzer{
	Name: "snapshotpin",
	Doc: "request handlers in service/api/gui fetch the snapshot/generation " +
		"at most once and render everything from that pin (ETag coherence)",
	Run: runSnapshotPin,
}

func runSnapshotPin(pass *analysis.Pass) error {
	if !snapshotPinPackages[analysis.LastSegment(pass.Pkg.Path)] {
		return nil
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkSnapshotPin(pass, fd)
		}
	}
	return nil
}

type fetchSite struct {
	pos  token.Pos
	what string
}

func checkSnapshotPin(pass *analysis.Pass, fd *ast.FuncDecl) {
	// First pass: names pinned by `sn := x.Snapshot()` style assignments,
	// plus closure parameters of snapshot type (the queryengine Cached
	// render callbacks receive the pinned *dataset.Snapshot as a param).
	pinned := map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 || len(n.Lhs) != 1 {
				return true
			}
			if !isSnapshotCall(n.Rhs[0]) {
				return true
			}
			if id, ok := n.Lhs[0].(*ast.Ident); ok {
				pinned[id.Name] = true
			}
		case *ast.FuncLit:
			for _, field := range n.Type.Params.List {
				if isSnapshotType(field.Type) {
					for _, name := range field.Names {
						pinned[name.Name] = true
					}
				}
			}
		}
		return true
	})

	var fetches []fetchSite
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || len(call.Args) != 0 {
			return true
		}
		switch sel.Sel.Name {
		case "Snapshot":
			fetches = append(fetches, fetchSite{call.Pos(), "Snapshot()"})
		case "Generation":
			if id, ok := sel.X.(*ast.Ident); ok && pinned[id.Name] {
				return true // reading the pinned snapshot's generation is the point
			}
			fetches = append(fetches, fetchSite{call.Pos(), "Generation()"})
		}
		return true
	})

	if len(fetches) <= 1 {
		return
	}
	for _, fetch := range fetches[1:] {
		pass.Reportf(fetch.pos,
			"second live %s in one request path (first at %s); pin one snapshot "+
				"and pass the pinned snapshot so the body and ETag share a generation",
			fetch.what, pass.Fset().Position(fetches[0].pos))
	}
}

// isSnapshotCall matches `<expr>.Snapshot()`.
func isSnapshotCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Snapshot"
}

// isSnapshotType matches the type expression *dataset.Snapshot (or a local
// *Snapshot) in a parameter list.
func isSnapshotType(e ast.Expr) bool {
	star, ok := e.(*ast.StarExpr)
	if !ok {
		return false
	}
	switch t := star.X.(type) {
	case *ast.Ident:
		return t.Name == "Snapshot"
	case *ast.SelectorExpr:
		return t.Sel.Name == "Snapshot"
	}
	return false
}
