// Package zeroalloc pins the allocation-free discipline of the
// simulator's disabled observability paths. The obs bus, the frame taps,
// and the flight-recorder record paths promise "free when nobody
// listens"; until now that promise was held only by alloc tests
// (testing.AllocsPerRun), which catch a regression only on the exact call
// path a test happens to execute. This analyzer checks it structurally.
//
// A function marked with //hydralint:zeroalloc in its doc comment is a
// zero-alloc root. The analyzer checks the root and, transitively, every
// function in the same package it statically calls, for the four
// constructs that put allocations on an otherwise clean path:
//
//   - interface boxing: a concrete value converted to an interface —
//     passed to an interface parameter (fmt-style ...any above all),
//     returned as an interface, or assigned to an interface variable
//   - fmt.* calls (every fmt entry point allocates)
//   - closures that capture enclosing variables (the closure, and often
//     the variable, move to the heap)
//   - string concatenation with + on non-constant operands
//
// Code on a panic path is exempt: a fmt.Sprintf building a panic message
// costs nothing until the program is already dying. Cross-package callees
// are not checked (only export data is visible); mark them in their own
// package.
//
// The analyzer is deliberately a subset of "cannot allocate": make, new,
// append growth, and map writes are escape-analysis-dependent and remain
// the alloc tests' job. The two layers back each other up.
package zeroalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"hydranet/internal/lint"
	"hydranet/internal/lint/ir"
)

// Analyzer is the zero-allocation checker.
var Analyzer = &lint.Analyzer{
	Name: "zeroalloc",
	Doc:  "forbid boxing, fmt, capturing closures, and string concatenation in //hydralint:zeroalloc call paths",
	Run:  run,
}

func run(pass *lint.Pass) error {
	// Roots: functions annotated //hydralint:zeroalloc, in declaration
	// order.
	cg := ir.BuildCallGraph(pass.Files, pass.TypesInfo, pass.Pkg)
	var roots []*types.Func
	for _, file := range pass.Files {
		idx := lint.IndexDirectives(pass.Fset, file)
		for _, d := range file.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !lint.FuncDirective(pass.Fset, idx, fn, lint.DirZeroAlloc) {
				continue
			}
			if obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func); ok && cg.Decls[obj] != nil {
				roots = append(roots, obj)
			}
		}
	}

	// Transitive closure over same-package static calls. via records the
	// root each function was reached from, for the diagnostic: every
	// root names itself, and a callee shared by several roots names the
	// first-declared root that reaches it.
	via := map[*types.Func]*types.Func{}
	var order []*types.Func
	for _, r := range roots {
		via[r] = r
		order = append(order, r)
	}
	var walk func(fn *types.Func)
	walk = func(fn *types.Func) {
		for _, callee := range cg.Callees[fn] {
			if _, seen := via[callee]; !seen {
				via[callee] = via[fn]
				order = append(order, callee)
				walk(callee)
			}
		}
	}
	for _, r := range roots {
		walk(r)
	}

	for _, fn := range order {
		suffix := ""
		if root := via[fn]; root != fn {
			suffix = " (on the zeroalloc path of " + root.Name() + ")"
		}
		checkFunc(pass, cg.Decls[fn], suffix)
	}
	return nil
}

// checkFunc reports every allocation-prone construct in fn's body.
func checkFunc(pass *lint.Pass, fn *ast.FuncDecl, suffix string) {
	cold := coldRegions(fn.Body)
	isCold := func(pos token.Pos) bool {
		for _, r := range cold {
			if r.contains(pos) {
				return true
			}
		}
		return false
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if isCold(n.Pos()) {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, fn, n, suffix)
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringConcat(pass.TypesInfo, n) {
				pass.Reportf(n.Pos(), "string concatenation allocates in zeroalloc function %s%s", fn.Name.Name, suffix)
			}
		case *ast.FuncLit:
			if capt := captures(pass.TypesInfo, n); capt != "" {
				pass.Reportf(n.Pos(), "closure captures %s and forces a heap allocation in zeroalloc function %s%s", capt, fn.Name.Name, suffix)
			}
			return false // the literal runs later; its body is not this path
		case *ast.ReturnStmt:
			checkReturnBoxing(pass, fn, n, suffix)
		case *ast.AssignStmt:
			checkAssignBoxing(pass, fn, n, suffix)
		case *ast.ValueSpec:
			checkSpecBoxing(pass, fn, n, suffix)
		}
		return true
	})
}

// region is a half-open source interval.
type region struct{ from, to token.Pos }

func (r region) contains(p token.Pos) bool { return p >= r.from && p < r.to }

// coldRegions collects the spans of panic arguments and of blocks whose
// last statement panics: allocation there is the cost of dying, not of
// the fast path.
func coldRegions(body *ast.BlockStmt) []region {
	var out []region
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "panic" {
				for _, arg := range n.Args {
					out = append(out, region{arg.Pos(), arg.End()})
				}
			}
		case *ast.BlockStmt:
			if len(n.List) > 0 && isPanicStmt(n.List[len(n.List)-1]) {
				out = append(out, region{n.Pos(), n.End()})
			}
		}
		return true
	})
	return out
}

func isPanicStmt(s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

// checkCall flags fmt entry points and interface boxing at argument
// positions.
func checkCall(pass *lint.Pass, fn *ast.FuncDecl, call *ast.CallExpr, suffix string) {
	info := pass.TypesInfo
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if obj := info.Uses[sel.Sel]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
			id, _ := sel.X.(*ast.Ident)
			if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
				pass.Reportf(call.Pos(), "fmt.%s allocates in zeroalloc function %s%s", obj.Name(), fn.Name.Name, suffix)
				return // don't double-report its boxed arguments
			}
		}
	}

	// A conversion to an interface type boxes its operand.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if boxes(info, call.Args[0], tv.Type) {
			pass.Reportf(call.Pos(), "conversion boxes %s into %s in zeroalloc function %s%s",
				types.TypeString(info.TypeOf(call.Args[0]), types.RelativeTo(pass.Pkg)),
				types.TypeString(tv.Type, types.RelativeTo(pass.Pkg)), fn.Name.Name, suffix)
			return
		}
	}

	sig := callSignature(info, call)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			last := params.At(params.Len() - 1).Type()
			if sl, ok := last.(*types.Slice); ok {
				pt = sl.Elem()
			}
			if call.Ellipsis != token.NoPos && i == params.Len()-1 {
				pt = last // arg... passes the slice itself
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		if boxes(info, arg, pt) {
			pass.Reportf(arg.Pos(), "argument boxes %s into %s in zeroalloc function %s%s",
				types.TypeString(info.TypeOf(arg), types.RelativeTo(pass.Pkg)),
				types.TypeString(pt, types.RelativeTo(pass.Pkg)), fn.Name.Name, suffix)
		}
	}
}

// callSignature returns the signature of the called function, if the call
// is a true call (not a type conversion).
func callSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	tv, ok := info.Types[call.Fun]
	if !ok || tv.IsType() {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// checkReturnBoxing flags concrete values returned as interface results.
func checkReturnBoxing(pass *lint.Pass, fn *ast.FuncDecl, ret *ast.ReturnStmt, suffix string) {
	obj := pass.TypesInfo.Defs[fn.Name]
	f, ok := obj.(*types.Func)
	if !ok {
		return
	}
	results := f.Type().(*types.Signature).Results()
	if results.Len() != len(ret.Results) {
		return // multi-value forwarding; out of scope
	}
	for i, e := range ret.Results {
		if boxes(pass.TypesInfo, e, results.At(i).Type()) {
			pass.Reportf(e.Pos(), "return boxes %s into %s in zeroalloc function %s%s",
				types.TypeString(pass.TypesInfo.TypeOf(e), types.RelativeTo(pass.Pkg)),
				types.TypeString(results.At(i).Type(), types.RelativeTo(pass.Pkg)), fn.Name.Name, suffix)
		}
	}
}

// checkAssignBoxing flags concrete values assigned to interface-typed
// destinations.
func checkAssignBoxing(pass *lint.Pass, fn *ast.FuncDecl, as *ast.AssignStmt, suffix string) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, rhs := range as.Rhs {
		lt := pass.TypesInfo.TypeOf(as.Lhs[i])
		if lt == nil {
			continue
		}
		if boxes(pass.TypesInfo, rhs, lt) {
			pass.Reportf(rhs.Pos(), "assignment boxes %s into %s in zeroalloc function %s%s",
				types.TypeString(pass.TypesInfo.TypeOf(rhs), types.RelativeTo(pass.Pkg)),
				types.TypeString(lt, types.RelativeTo(pass.Pkg)), fn.Name.Name, suffix)
		}
	}
}

// checkSpecBoxing flags `var x I = concrete` declarations.
func checkSpecBoxing(pass *lint.Pass, fn *ast.FuncDecl, spec *ast.ValueSpec, suffix string) {
	for i, v := range spec.Values {
		if i >= len(spec.Names) {
			break
		}
		lt := pass.TypesInfo.TypeOf(spec.Names[i])
		if boxes(pass.TypesInfo, v, lt) {
			pass.Reportf(v.Pos(), "declaration boxes %s into %s in zeroalloc function %s%s",
				types.TypeString(pass.TypesInfo.TypeOf(v), types.RelativeTo(pass.Pkg)),
				types.TypeString(lt, types.RelativeTo(pass.Pkg)), fn.Name.Name, suffix)
		}
	}
}

// boxes reports whether assigning expr to a destination of type dst
// converts a concrete value to an interface, allocating to do so.
func boxes(info *types.Info, expr ast.Expr, dst types.Type) bool {
	if dst == nil {
		return false
	}
	if _, ok := dst.Underlying().(*types.Interface); !ok {
		return false
	}
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	if tv.IsNil() {
		return false
	}
	src := tv.Type
	switch u := src.Underlying().(type) {
	case *types.Interface:
		return false // interface-to-interface: no box
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false // pointer-shaped: stored directly in the iface word
	case *types.Basic:
		if u.Kind() == types.UntypedNil || u.Kind() == types.UnsafePointer {
			return false
		}
	}
	return true
}

// isStringConcat reports whether the + has string type and at least one
// non-constant operand (constant folding is free).
func isStringConcat(info *types.Info, bin *ast.BinaryExpr) bool {
	tv, ok := info.Types[bin]
	if !ok || tv.Type == nil {
		return false
	}
	if b, ok := tv.Type.Underlying().(*types.Basic); !ok || b.Info()&types.IsString == 0 {
		return false
	}
	return tv.Value == nil // whole expression non-constant
}

// captures names one variable a func literal captures from its enclosing
// function, or "" when it captures nothing.
func captures(info *types.Info, lit *ast.FuncLit) string {
	inside := func(pos token.Pos) bool { return pos >= lit.Pos() && pos <= lit.End() }
	name := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := info.Uses[id].(*types.Var)
		if !ok || obj.IsField() {
			return true
		}
		if obj.Pkg() == nil || obj.Parent() == nil {
			return true
		}
		// A variable declared outside the literal but inside some function
		// is a capture. Package-level vars are not captured (direct access).
		if !inside(obj.Pos()) && obj.Parent() != obj.Pkg().Scope() {
			name = obj.Name()
		}
		return true
	})
	return name
}
