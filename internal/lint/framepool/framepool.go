// Package framepool statically checks the frame-pool ownership rules that
// internal/frame documents as "enforced by convention, checked by poison
// mode". Poison mode only turns a violation into a loud failure when a
// test happens to execute it; this analyzer refuses to let the violating
// code compile into the tree at all.
//
// Within each function it tracks local variables of type *frame.Buf and
// flags:
//
//   - use after Release, and double Release
//   - use (or Release) after an ownership-transferring call — passing the
//     Buf to SendFrame hands it to the fabric, which releases it on every
//     outcome
//   - slices derived from the frame's bytes (Bytes, Prepend) that are used
//     after the frame was released or transferred, or stored somewhere
//     longer-lived while the function gives the frame away — the
//     reassembler-style bugs that poison mode exists to catch; copy (or
//     tcp's privatize) first
//   - Buf values obtained from Pool.Get that are never released, handed
//     off, returned, or stored: a pool leak
//
// Use-after-Release is a forward may-analysis over each function body's
// control-flow graph (internal/lint/ir); every function literal is its
// own body. The fact at each point maps every tracked Buf to the
// ownership-ending events (Release or transfer) that reach it along some
// path, and every derived slice to the Bufs whose bytes it may alias.
// Rebinding a Buf clears its events, and rebinding a slice from a
// non-derived source (a privatizing copy) clears its alias. A read of a
// Buf or of a derived slice that some event reaches is a violation, so
// the fabric's `if !alive { fb.Release(); return }` guards, else and case
// isolation stay clean while a Release that leaves a loop by break, falls
// through into the next case, or reaches the next iteration by continue
// or goto is caught. An event that reaches its own call site around a
// loop's back edge is reported as loop-carried: the next iteration
// releases or hands off a frame it no longer owns. Releases under defer
// run at function exit, after every body access; they count as hand-offs
// for the leak check only.
//
// Ownership that crosses a same-package call boundary is handled by
// bottom-up ownership summaries (see summary.go): a helper that releases,
// transfers, or retains its *frame.Buf parameter propagates those facts
// to every caller, so a use after `helper(fb)` is flagged exactly like a
// use after `fb.Release()`, a helper returning `fb.Bytes()` extends the
// derived-slice tracking through the call, and a Get result whose only
// consumer is a provably read-only helper is still a pool leak. Ownership
// crossing a package boundary (a FrameHandler retaining bytes past
// HandleFrame's return) remains governed by the documented convention and
// the runtime poison tests; the two mechanisms back each other up.
package framepool

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"sort"

	"hydranet/internal/lint"
	"hydranet/internal/lint/ir"
)

// Analyzer is the frame-pool ownership checker.
var Analyzer = &lint.Analyzer{
	Name: "framepool",
	Doc:  "check frame.Buf ownership: use-after-Release, double Release, retained derived slices, pool leaks",
	Run:  run,
}

// transferFuncs name the callees that take ownership of a *frame.Buf
// argument.
var transferFuncs = map[string]bool{
	"SendFrame": true,
}

// deriveMethods are *frame.Buf methods whose result aliases the frame's
// backing array.
var deriveMethods = map[string]bool{
	"Bytes":   true,
	"Prepend": true,
}

func run(pass *lint.Pass) error {
	sums := computeSummaries(pass)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			analyzeFunc(pass, fn, sums)
		}
	}
	return nil
}

// isBufPtr reports whether t is *frame.Buf (any package named frame, so
// analyzer testdata can supply its own).
func isBufPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := p.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Buf" && obj.Pkg() != nil && obj.Pkg().Name() == "frame"
}

// eventKind distinguishes ownership-ending operations.
type eventKind int

const (
	evRelease eventKind = iota
	evTransfer
)

// event is one ownership-ending call site.
type event struct {
	kind   eventKind
	pos    token.Pos // of the call
	callee string
	via    bool // the release/transfer happens inside the callee
}

// ending records that ev may have ended buf's ownership.
type ending struct {
	buf *types.Var
	ev  event
}

// aliasing records that slice may alias buf's backing array.
type aliasing struct{ slice, buf *types.Var }

// fact is the may-state at one program point. Both parts are sets of
// pairs, so the join is union.
type fact struct {
	ended map[ending]bool
	alias map[aliasing]bool
}

var lattice = ir.Lattice[fact]{
	Join: func(a, b fact) fact {
		out := fact{maps.Clone(a.ended), maps.Clone(a.alias)}
		maps.Copy(out.ended, b.ended)
		maps.Copy(out.alias, b.alias)
		return out
	},
	Equal: func(a, b fact) bool { return maps.Equal(a.ended, b.ended) && maps.Equal(a.alias, b.alias) },
	Clone: func(f fact) fact { return fact{maps.Clone(f.ended), maps.Clone(f.alias)} },
}

// endings lists the events that may have ended buf's ownership, by
// position.
func (f fact) endings(buf *types.Var) []event {
	var out []event
	for k := range f.ended {
		if k.buf == buf {
			out = append(out, k.ev)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
}

// aliased lists the Bufs slice may alias, by declaration position.
func (f fact) aliased(slice *types.Var) []*types.Var {
	var out []*types.Var
	for k := range f.alias {
		if k.slice == slice {
			out = append(out, k.buf)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

// callEvent is one event a call performs on a tracked Buf, and the Buf's
// own mention in the call.
type callEvent struct {
	buf  *types.Var
	self *ast.Ident
	ev   event
}

// store is a derived slice stored in longer-lived state: checked once the
// whole function is known, because the frame may be given away after the
// store.
type store struct {
	pos  token.Pos
	bufs []*types.Var
}

// checker runs the ownership analysis over one function declaration's
// bodies.
type checker struct {
	pass    *lint.Pass
	info    *types.Info
	sums    *pkgSummaries
	tracked map[*types.Var]bool
	report  bool // replaying solved blocks: report reads and record stores

	gone    map[*types.Var]bool // Bufs released or transferred somewhere
	stores  []store
	flagged map[token.Pos]bool
}

func analyzeFunc(pass *lint.Pass, fn *ast.FuncDecl, sums *pkgSummaries) {
	// Track every local (including params and receiver) of type *frame.Buf.
	tracked := map[*types.Var]bool{}
	bodies := []*ast.BlockStmt{fn.Body}
	ast.Inspect(fn, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if v, ok := pass.TypesInfo.Defs[n].(*types.Var); ok && isBufPtr(v.Type()) {
				tracked[v] = true
			}
		case *ast.FuncLit:
			bodies = append(bodies, n.Body)
		}
		return true
	})
	if len(tracked) == 0 {
		return
	}
	c := &checker{
		pass: pass, info: pass.TypesInfo, sums: sums, tracked: tracked,
		gone: map[*types.Var]bool{}, flagged: map[token.Pos]bool{},
	}
	for _, body := range bodies {
		c.checkBody(body)
	}
	for _, st := range c.stores {
		for _, b := range st.bufs {
			if c.gone[b] {
				pass.Reportf(st.pos, "slice derived from frame %s stored in longer-lived state while this function releases or transfers the frame; copy the bytes instead", b.Name())
				break
			}
		}
	}
	reportLeaks(pass, fn, tracked, sums)
}

// checkBody solves the ownership problem over one body, then replays each
// reachable block from its IN fact to report the reads that an
// ownership-ending event reaches.
func (c *checker) checkBody(body *ast.BlockStmt) {
	cfg := ir.Build(body)
	p := ir.Problem[fact]{
		Lattice:  lattice,
		Boundary: fact{map[ending]bool{}, map[aliasing]bool{}},
		Transfer: c.fold,
	}
	c.report = false
	in, reachable := ir.Forward(cfg, p)
	c.report = true
	for _, b := range cfg.Blocks {
		if reachable[b] {
			ir.FoldBlock(b, p, lattice.Clone(in[b]))
		}
	}
}

// fold applies one element to f in evaluation order: a read is checked
// against the fact as it stands, a call's events take effect once its
// arguments are evaluated, and an assignment's rebinds once its right-hand
// sides are. Function literals are bodies of their own; only their reads
// of captured variables are checked here.
func (c *checker) fold(elem ast.Node, f fact) fact {
	binds := map[*ast.Ident]bool{} // plain assignment targets: not reads
	var rangeVars []*types.Var
	if rs, ok := elem.(*ast.RangeStmt); ok {
		for _, e := range []ast.Expr{rs.Key, rs.Value} {
			if id, ok := ast.Unparen(e).(*ast.Ident); ok {
				binds[id] = true
				if v := identVar(c.info, id); v != nil {
					rangeVars = append(rangeVars, v) // rebound every iteration
				}
			}
		}
	}
	var deferred *ast.CallExpr // runs at exit: a hand-off, not an event
	if d, ok := elem.(*ast.DeferStmt); ok {
		deferred = d.Call
	}
	pending := map[*ast.CallExpr][]callEvent{}
	self := map[*ast.Ident]event{}
	var stack []ast.Node
	ir.Inspect(elem, func(n ast.Node) bool {
		if n == nil {
			switch n := stack[len(stack)-1].(type) {
			case *ast.CallExpr:
				for _, ce := range pending[n] {
					f.ended[ending{ce.buf, ce.ev}] = true
					c.gone[ce.buf] = true
				}
			case *ast.AssignStmt:
				if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
					c.assign(f, n.Lhs, n.Rhs)
				}
			case *ast.ValueSpec:
				names := make([]ast.Expr, len(n.Names))
				for i, id := range n.Names {
					names[i] = id
				}
				c.assign(f, names, n.Values)
			}
			stack = stack[:len(stack)-1]
			return true
		}
		if lit, ok := n.(*ast.FuncLit); ok {
			if c.report {
				c.checkCaptures(f, lit)
			}
			return false
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
				for _, lhs := range n.Lhs {
					if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
						binds[id] = true
					}
				}
			}
		case *ast.CallExpr:
			if n != deferred {
				pending[n] = c.callEvents(n)
				for _, ce := range pending[n] {
					self[ce.self] = ce.ev
				}
			}
		case *ast.Ident:
			if c.report && !binds[n] {
				own, isOwn := self[n]
				c.checkRead(f, n, own, isOwn)
			}
		}
		return true
	})
	for _, v := range rangeVars {
		c.rebind(f, v, nil)
	}
	return f
}

// checkCaptures checks a closure's reads at its creation: it cannot run
// earlier, so every event that reaches the creation reaches those reads.
// Only captured variables can have events in the enclosing body's fact.
func (c *checker) checkCaptures(f fact, lit *ast.FuncLit) {
	binds := map[*ast.Ident]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					binds[id] = true
				}
			}
		case *ast.Ident:
			if !binds[n] {
				c.checkRead(f, n, event{}, false)
			}
		}
		return true
	})
}

// callEvents lists the ownership-ending events of a call: fb.Release(),
// a transfer to a named transfer callee (SendFrame), or a same-package
// helper whose summary releases or transfers the argument.
func (c *checker) callEvents(call *ast.CallExpr) []callEvent {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Release" && len(call.Args) == 0 {
		if v := trackedIdentVar(c.info, c.tracked, sel.X); v != nil {
			return []callEvent{{v, ast.Unparen(sel.X).(*ast.Ident), event{evRelease, call.Pos(), "Release", false}}}
		}
	}
	name := calleeName(call)
	var sum *ownSummary
	if !transferFuncs[name] {
		sum = c.sums.forCall(call)
	}
	var out []callEvent
	for ai, arg := range call.Args {
		v := trackedIdentVar(c.info, c.tracked, arg)
		if v == nil {
			continue
		}
		ev := event{kind: evTransfer, pos: call.Pos(), callee: name}
		if !transferFuncs[name] {
			pf := sum.param(ai)
			if pf == nil || !(pf.releases || pf.transfers) {
				continue
			}
			ev.via = true
			if pf.releases {
				ev.kind = evRelease
			}
		}
		out = append(out, callEvent{v, ast.Unparen(arg).(*ast.Ident), ev})
	}
	return out
}

// assign rebinds plain identifier targets to what their right-hand sides
// derive from, and records derived slices stored anywhere else.
func (c *checker) assign(f fact, lhs, rhs []ast.Expr) {
	srcs := make([][]*types.Var, len(lhs))
	if len(lhs) == len(rhs) {
		for i, r := range rhs {
			srcs[i] = c.derivedSources(f, r)
		}
	}
	for i, l := range lhs {
		id, ok := ast.Unparen(l).(*ast.Ident)
		if !ok {
			if c.report && len(srcs[i]) > 0 {
				c.stores = append(c.stores, store{rhs[i].Pos(), srcs[i]})
			}
			continue
		}
		if v := identVar(c.info, id); v != nil {
			c.rebind(f, v, srcs[i])
		}
	}
}

// rebind gives v a new value: a Buf starts with no ownership-ending
// events, a slice aliases exactly srcs (nothing, for a privatizing copy).
func (c *checker) rebind(f fact, v *types.Var, srcs []*types.Var) {
	for k := range f.ended {
		if k.buf == v {
			delete(f.ended, k)
		}
	}
	for k := range f.alias {
		if k.slice == v {
			delete(f.alias, k)
		}
	}
	if !c.tracked[v] {
		for _, b := range srcs {
			f.alias[aliasing{v, b}] = true
		}
	}
}

// derivedSources resolves expr to the tracked Bufs whose bytes it may
// alias. A call to a summarized helper whose result aliases a parameter's
// bytes (returns-derived-slice) resolves through the call to the argument.
func (c *checker) derivedSources(f fact, expr ast.Expr) []*types.Var {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		if v, ok := c.info.Uses[e].(*types.Var); ok {
			return f.aliased(v)
		}
	case *ast.SliceExpr:
		return c.derivedSources(f, e.X)
	case *ast.CallExpr:
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok && deriveMethods[sel.Sel.Name] {
			if v := trackedIdentVar(c.info, c.tracked, sel.X); v != nil {
				return []*types.Var{v}
			}
		}
		var out []*types.Var
		for _, j := range c.sums.forCall(e).derivedResultParams(0) {
			if j < len(e.Args) {
				if v := trackedIdentVar(c.info, c.tracked, e.Args[j]); v != nil {
					out = append(out, v)
				}
			}
		}
		return out
	}
	return nil
}

// checkRead reports a read of a Buf, or of a slice derived from one, that
// an ownership-ending event reaches. own is the event the read's own call
// performs, if any: a Release after an event is a double Release, and an
// event reaching its own call site is loop-carried.
func (c *checker) checkRead(f fact, id *ast.Ident, own event, isOwn bool) {
	v, ok := c.info.Uses[id].(*types.Var)
	if !ok {
		return
	}
	if !c.tracked[v] {
		for _, b := range f.aliased(v) {
			if evs := f.endings(b); len(evs) > 0 {
				c.reportf(id.Pos(), "slice %s derived from frame %s used after its %s at %s; copy (or privatize) before giving the frame away",
					v.Name(), b.Name(), describe(evs[0]), c.pass.Fset.Position(evs[0].pos))
				return
			}
		}
		return
	}
	evs := f.endings(v)
	if len(evs) == 0 {
		return
	}
	name, cause, at := v.Name(), evs[0], c.pass.Fset.Position(evs[0].pos)
	switch {
	case isOwn && slices.Contains(evs, own):
		switch {
		case own.via && own.kind == evRelease:
			c.reportf(own.pos, "call to %s releases %s inside a loop that never rebinds it: the next iteration touches a dead frame", own.callee, name)
		case own.via:
			c.reportf(own.pos, "call to %s transfers %s inside a loop that never rebinds it: the next iteration hands the fabric a frame it already owns", own.callee, name)
		case own.kind == evRelease:
			c.reportf(own.pos, "Release of %s inside a loop that never rebinds it: the next iteration double-releases", name)
		default:
			c.reportf(own.pos, "transfer of %s to %s inside a loop that never rebinds it: the next iteration hands the fabric a frame it already owns", name, own.callee)
		}
	case isOwn && own.kind == evRelease && cause.kind == evRelease && cause.via:
		c.reportf(id.Pos(), "double Release of %s (released inside call to %s at %s)", name, cause.callee, at)
	case isOwn && own.kind == evRelease && cause.kind == evRelease:
		c.reportf(id.Pos(), "double Release of %s (first at %s)", name, at)
	case isOwn && own.kind == evRelease && cause.via:
		c.reportf(id.Pos(), "Release of %s after call to %s handed it to the fabric at %s: the fabric guarantees the release", name, cause.callee, at)
	case isOwn && own.kind == evRelease:
		c.reportf(id.Pos(), "Release of %s after ownership transfer to %s at %s: the fabric guarantees the release", name, cause.callee, at)
	case cause.via && cause.kind == evRelease:
		c.reportf(id.Pos(), "use of %s after call to %s, which releases it, at %s", name, cause.callee, at)
	case cause.via:
		c.reportf(id.Pos(), "use of %s after call to %s, which hands it to the fabric, at %s", name, cause.callee, at)
	case cause.kind == evRelease:
		c.reportf(id.Pos(), "use of %s after Release at %s", name, at)
	default:
		c.reportf(id.Pos(), "use of %s after ownership transfer to %s at %s", name, cause.callee, at)
	}
}

// describe names an event for the derived-slice message.
func describe(ev event) string {
	switch {
	case ev.via && ev.kind == evRelease:
		return "release inside call to " + ev.callee
	case ev.via:
		return "transfer inside call to " + ev.callee
	case ev.kind == evTransfer:
		return "ownership transfer to " + ev.callee
	}
	return "Release"
}

// reportf reports once per position.
func (c *checker) reportf(pos token.Pos, format string, args ...any) {
	if !c.flagged[pos] {
		c.flagged[pos] = true
		c.pass.Reportf(pos, format, args...)
	}
}

// reportLeaks flags Get results whose ownership never plausibly leaves the
// function: never released (even deferred), passed to a callee that may
// assume ownership, returned, stored anywhere but a plain local (fields,
// slices, maps, globals, channel sends, composite literals), or captured
// by a closure that may release it later.
func reportLeaks(pass *lint.Pass, fn *ast.FuncDecl, tracked map[*types.Var]bool, sums *pkgSummaries) {
	info := pass.TypesInfo
	fromGet := map[*types.Var]*ast.CallExpr{}
	handoff := map[*types.Var]bool{}
	mark := func(e ast.Expr) {
		if v := trackedIdentVar(info, tracked, e); v != nil {
			handoff[v] = true
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || len(n.Lhs) != len(n.Rhs) {
					continue
				}
				if v := identVar(info, id); v != nil && tracked[v] {
					if call, ok := ast.Unparen(n.Rhs[i]).(*ast.CallExpr); ok && isPoolGet(info, call) {
						fromGet[v] = call
					}
				}
			}
			if !isLocalRebind(info, n) {
				for _, rhs := range n.Rhs {
					mark(rhs)
				}
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Release" && len(n.Args) == 0 {
				mark(sel.X)
			}
			var sum *ownSummary
			if !transferFuncs[calleeName(n)] {
				sum = sums.forCall(n)
			}
			for ai, arg := range n.Args {
				if !sum.param(ai).pure() {
					mark(arg) // the callee may assume ownership
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				mark(r)
			}
		case *ast.SendStmt:
			mark(n.Value)
		case *ast.CompositeLit:
			for _, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				mark(e)
			}
		case *ast.FuncLit:
			ast.Inspect(n.Body, func(m ast.Node) bool {
				if e, ok := m.(ast.Expr); ok {
					mark(e)
				}
				return true
			})
		}
		return true
	})
	for v, call := range fromGet {
		if !handoff[v] {
			pass.Reportf(call.Pos(), "%s obtained from Get is never released or handed off: pool leak", v.Name())
		}
	}
}

// isLocalRebind reports whether every LHS of the assignment is a plain
// local identifier: copying a tracked var into another local aliases it
// (the alias is itself tracked) rather than letting it escape.
func isLocalRebind(info *types.Info, as *ast.AssignStmt) bool {
	for _, lhs := range as.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return false
		}
		v := identVar(info, id)
		if v == nil || v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return false // blank, or a store into a package-level var
		}
	}
	return true
}

// identVar resolves an identifier, defining or using, to its variable.
func identVar(info *types.Info, id *ast.Ident) *types.Var {
	if v, ok := info.Defs[id].(*types.Var); ok {
		return v
	}
	v, _ := info.Uses[id].(*types.Var)
	return v
}

// trackedIdentVar resolves expr to a tracked variable, or nil.
func trackedIdentVar(info *types.Info, tracked map[*types.Var]bool, expr ast.Expr) *types.Var {
	id, ok := ast.Unparen(expr).(*ast.Ident)
	if !ok {
		return nil
	}
	if v, ok := info.Uses[id].(*types.Var); ok && tracked[v] {
		return v
	}
	return nil
}

// isPoolGet reports whether the call is a Get returning *frame.Buf.
func isPoolGet(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Get" {
		return false
	}
	tv, ok := info.Types[call]
	return ok && tv.Type != nil && isBufPtr(tv.Type)
}

// calleeName extracts the called function or method's bare name.
func calleeName(call *ast.CallExpr) string {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}
