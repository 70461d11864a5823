// Package lockorder proves deadlock-freedom properties of the tree's
// locking discipline. The conservative parallel engine (DESIGN.md §10)
// holds no mutex: it synchronizes through coordinator barriers
// (sync.WaitGroup) alone, at which the coordinator exchanges cross-domain
// hand-offs and runs global events with every worker parked. Its liveness
// argument is a lock-order argument — no code ever holds a lock while
// waiting on another domain — and it must keep holding for any mutex that
// code reachable from a window takes (today the trace package's
// trace.Tracer.mu). That argument is invisible to the compiler and to the
// race detector (which only sees schedules that actually happened). This
// analyzer checks it statically.
//
// For every function it runs a may-analysis over the control-flow graph
// (internal/lint/ir) tracking the set of mutexes that can be held at each
// program point, and reports:
//
//   - Lock-order cycles. Each acquisition made while another lock is held
//     contributes an edge held-class → acquired-class to a package-wide
//     acquisition graph; edges are also added through same-package calls
//     using bottom-up callee summaries. Any strongly connected component
//     with a cycle — two classes acquired in both orders, or one class
//     acquired while an instance of the same class is already held — is
//     reported at every participating acquisition site.
//
//   - Locks held across a hand-off or barrier: a sync.WaitGroup.Wait or a
//     SendFrame call reached while any lock may be held, directly or
//     through a same-package callee that blocks.
//     These are the points where the coordinator waits for every domain
//     (or publishes a frame to another domain); holding a mutex there
//     stalls the whole window.
//
//   - Double-lock: acquiring a mutex on a receiver path that may already
//     hold the very same receiver's lock (sync.Mutex does not support
//     recursive locking; this self-deadlocks at run time).
//
// Lock identity is two-level. The *class* — package.Type.fieldPath, e.g.
// trace.Tracer.mu — names a lock in the acquisition-order graph; the
// *instance* — the rendered receiver text, e.g. t.mu — detects
// double-locking of one object. Function literals are analyzed as
// independent functions with an empty initial lock set, and their
// acquisitions do not count toward the enclosing function's summary: a
// closure generally runs on another goroutine or at another time.
//
// The analysis is intentionally may-directional: a lock taken on one
// branch is treated as possibly held afterward until a provable release.
// Deferred unlocks release at function exit, so a lock held through
// `defer mu.Unlock()` is (correctly) still held at any barrier the
// function reaches.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"hydranet/internal/lint"
	"hydranet/internal/lint/ir"
)

// Analyzer is the lock-order checker.
var Analyzer = &lint.Analyzer{
	Name: "lockorder",
	Doc:  "report lock-order cycles, locks held across coordinator barriers or hand-offs, and double-locking in the parallel core",
	Run:  run,
}

// handoffCallee is the hand-off point of the parallel engine: the call
// that publishes a frame toward another synchronization domain. A mutex
// held across it stalls every domain behind it.
const handoffCallee = "SendFrame"

// held maps each lock instance (rendered receiver text) to its class and
// the position where it was acquired. It is the may-analysis fact: an
// entry means the lock can be held at this point on some path.
type held map[string]acquisition

type acquisition struct {
	class string
	pos   token.Pos
}

// summary is one function's interprocedural abstract: the lock classes it
// may acquire and, if it can block on a barrier or hand-off (directly or
// transitively), a human-readable description of how.
type summary struct {
	acquires map[string]bool
	blocker  string // "" if the function cannot block
}

// edge is one acquisition-order observation: while a lock of class from
// was held, a lock of class to was acquired at pos.
type edge struct {
	from, to string
	pos      token.Pos
}

func run(pass *lint.Pass) error {
	a := &analysis{
		pass:      pass,
		cg:        ir.BuildCallGraph(pass.Files, pass.TypesInfo, pass.Pkg),
		summaries: map[*types.Func]*summary{},
	}
	a.computeSummaries()

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				a.checkBody(fn.Body)
			}
		}
	}
	a.reportCycles()
	return nil
}

type analysis struct {
	pass      *lint.Pass
	cg        *ir.CallGraph
	summaries map[*types.Func]*summary
	edges     []edge
}

// computeSummaries runs the bottom-up pass: callees are summarized before
// their callers, and mutual-recursion components iterate to fixpoint.
func (a *analysis) computeSummaries() {
	a.cg.BottomUp(func(fn *types.Func, decl *ast.FuncDecl) bool {
		old := a.summaries[fn]
		s := &summary{acquires: map[string]bool{}}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			if _, isLit := n.(*ast.FuncLit); isLit {
				return false // closures run elsewhere; not the caller's locks
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if cls, _, acquires, isMu := a.mutexOp(call); isMu && acquires {
				s.acquires[cls] = true
				return true
			}
			if desc := a.directBlocker(call); desc != "" {
				s.blocker = desc
				return true
			}
			if callee := ir.StaticCallee(a.pass.TypesInfo, call); callee != nil {
				if cs := a.summaries[callee]; cs != nil {
					for c := range cs.acquires {
						s.acquires[c] = true
					}
					if s.blocker == "" && cs.blocker != "" {
						s.blocker = callee.Name() + " (which reaches " + cs.blocker + ")"
					}
				}
			}
			return true
		})
		a.summaries[fn] = s
		if old == nil || old.blocker != s.blocker || len(old.acquires) != len(s.acquires) {
			return true
		}
		for c := range s.acquires {
			if !old.acquires[c] {
				return true
			}
		}
		return false
	})
}

// checkBody analyzes one function body (or function literal body) with an
// empty initial lock set, then recurses into its literals.
func (a *analysis) checkBody(body *ast.BlockStmt) {
	cfg := ir.Build(body)

	transfer := func(elem ast.Node, f held) held {
		if _, isDefer := elem.(*ast.DeferStmt); isDefer {
			return f // deferred unlocks release at Exit
		}
		ir.Inspect(elem, func(n ast.Node) bool {
			if _, isLit := n.(*ast.FuncLit); isLit {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if cls, key, acquires, isMu := a.mutexOp(call); isMu {
				if acquires {
					f[key] = acquisition{class: cls, pos: call.Pos()}
				} else {
					delete(f, key)
				}
			}
			return true
		})
		return f
	}

	p := ir.Problem[held]{
		Lattice: ir.Lattice[held]{
			Join: func(x, y held) held { // union: may-held
				out := make(held, len(x)+len(y))
				for k, v := range x {
					out[k] = v
				}
				for k, v := range y {
					if _, dup := out[k]; !dup {
						out[k] = v
					}
				}
				return out
			},
			Equal: func(x, y held) bool {
				if len(x) != len(y) {
					return false
				}
				for k := range x {
					if _, ok := y[k]; !ok {
						return false
					}
				}
				return true
			},
			Clone: func(f held) held {
				out := make(held, len(f))
				for k, v := range f {
					out[k] = v
				}
				return out
			},
		},
		Boundary: held{},
		Transfer: transfer,
	}
	in, reachable := ir.Forward(cfg, p)

	for _, b := range cfg.Blocks {
		if !reachable[b] {
			continue
		}
		f := p.Lattice.Clone(in[b])
		for _, e := range b.Elems {
			if _, isDefer := e.(*ast.DeferStmt); isDefer {
				continue
			}
			ir.Inspect(e, func(n ast.Node) bool {
				if _, isLit := n.(*ast.FuncLit); isLit {
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if cls, key, acquires, isMu := a.mutexOp(call); isMu {
					if acquires {
						a.acquire(call, cls, key, f)
						f[key] = acquisition{class: cls, pos: call.Pos()}
					} else {
						delete(f, key)
					}
					return true
				}
				a.checkCallHazards(call, f)
				return true
			})
		}
	}

	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			a.checkBody(lit.Body)
			return false
		}
		return true
	})
}

// acquire handles one Lock/RLock while f may already hold locks: it
// reports double-locking of the same instance and records acquisition-
// order edges from every held class.
func (a *analysis) acquire(call *ast.CallExpr, cls, key string, f held) {
	if prev, dup := f[key]; dup {
		a.pass.Reportf(call.Pos(), "%s locked again while already held on this path (acquired at line %d): sync mutexes are not recursive, this self-deadlocks", key, a.pass.Fset.Position(prev.pos).Line)
		return
	}
	for _, h := range f {
		a.edges = append(a.edges, edge{from: h.class, to: cls, pos: call.Pos()})
	}
}

// checkCallHazards handles a non-mutex call with locks possibly held: a
// barrier/hand-off (direct or via a same-package callee that blocks) is
// reported, and a callee's acquisitions become acquisition-order edges.
func (a *analysis) checkCallHazards(call *ast.CallExpr, f held) {
	if len(f) == 0 {
		return
	}
	blocker := a.directBlocker(call)
	var acquires map[string]bool
	if blocker == "" {
		if callee := ir.StaticCallee(a.pass.TypesInfo, call); callee != nil {
			if cs := a.summaries[callee]; cs != nil {
				acquires = cs.acquires
				if cs.blocker != "" {
					blocker = callee.Name() + " (which reaches " + cs.blocker + ")"
				}
			}
		}
	}
	if blocker != "" {
		for _, key := range sortedKeys(f) {
			a.pass.Reportf(call.Pos(), "%s held across %s: a lock held at a coordinator barrier or cross-domain hand-off stalls every domain behind it; release before handing off", key, blocker)
		}
	}
	for cls := range acquires {
		for _, h := range f {
			a.edges = append(a.edges, edge{from: h.class, to: cls, pos: call.Pos()})
		}
	}
}

// directBlocker recognizes the barrier and hand-off calls themselves:
// sync.WaitGroup.Wait and SendFrame.
func (a *analysis) directBlocker(call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if ok && sel.Sel.Name == "Wait" && isWaitGroup(a.pass.TypesInfo.TypeOf(sel.X)) {
		return "sync.WaitGroup.Wait (coordinator barrier)"
	}
	var name string
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	}
	if name == handoffCallee {
		return name + " (cross-domain hand-off)"
	}
	return ""
}

// mutexOp recognizes Lock/RLock/Unlock/RUnlock on a sync.Mutex or
// sync.RWMutex and returns the lock's class and instance key.
func (a *analysis) mutexOp(call *ast.CallExpr) (class, key string, acquires, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquires = true
	case "Unlock", "RUnlock":
	default:
		return "", "", false, false
	}
	if !isSyncMutex(a.pass.TypesInfo.TypeOf(sel.X)) {
		return "", "", false, false
	}
	key = renderExpr(sel.X)
	class = a.lockClass(sel.X)
	if key == "" || class == "" {
		return "", "", false, false
	}
	return class, key, acquires, true
}

// lockClass names the lock for the acquisition-order graph: the owning
// named type plus the field path to the mutex (trace.Tracer.mu),
// or package.name for a bare mutex variable.
func (a *analysis) lockClass(mutexExpr ast.Expr) string {
	var fields []string
	e := ast.Unparen(mutexExpr)
	for {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			break
		}
		fields = append([]string{sel.Sel.Name}, fields...)
		if n := namedOf(a.pass.TypesInfo.TypeOf(sel.X)); n != nil {
			obj := n.Obj()
			pkg := "?"
			if obj.Pkg() != nil {
				pkg = obj.Pkg().Name()
			}
			return pkg + "." + obj.Name() + "." + strings.Join(fields, ".")
		}
		e = ast.Unparen(sel.X)
	}
	if id, ok := e.(*ast.Ident); ok {
		prefix := a.pass.Pkg.Name()
		if len(fields) > 0 {
			return prefix + "." + id.Name + "." + strings.Join(fields, ".")
		}
		return prefix + "." + id.Name
	}
	return ""
}

// reportCycles condenses the acquisition graph and reports every edge
// that participates in a cycle: a component with two mutually ordered
// classes, or a self-edge (one class acquired while an instance of the
// same class is held).
func (a *analysis) reportCycles() {
	adj := map[string][]string{}
	for _, e := range a.edges {
		adj[e.from] = append(adj[e.from], e.to)
		if _, ok := adj[e.to]; !ok {
			adj[e.to] = nil
		}
	}
	// comp numbers the classes of each component with two or more
	// members; classes in singleton components map to 0.
	comp := map[string]int{}
	succs := func(c string) []string { return adj[c] }
	for i, scc := range ir.SCCs(sortedKeys(adj), succs) {
		if len(scc) > 1 {
			for _, c := range scc {
				comp[c] = i + 1
			}
		}
	}
	reported := map[token.Pos]bool{}
	for _, e := range a.edges {
		cyclic := e.from == e.to || (comp[e.from] != 0 && comp[e.from] == comp[e.to])
		if !cyclic || reported[e.pos] {
			continue
		}
		reported[e.pos] = true
		if e.from == e.to {
			a.pass.Reportf(e.pos, "acquiring %s while an instance of the same lock class is already held: without a global instance order this deadlocks against a worker locking in the opposite order", e.to)
		} else {
			a.pass.Reportf(e.pos, "lock-order cycle: %s acquired while holding %s, but the opposite order also occurs in this package; pick one global acquisition order", e.to, e.from)
		}
	}
}

// sortedKeys lists a map's keys (held-lock instances, lock classes)
// deterministically.
func sortedKeys[V any](f map[string]V) []string {
	keys := make([]string, 0, len(f))
	for k := range f {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// isSyncMutex reports whether t is (a pointer to) sync.Mutex or
// sync.RWMutex.
func isSyncMutex(t types.Type) bool {
	n := namedOf(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// isWaitGroup reports whether t is (a pointer to) sync.WaitGroup.
func isWaitGroup(t types.Type) bool {
	n := namedOf(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}

// namedOf unwraps pointers and returns the named type, if any.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// renderExpr renders the receiver forms a mutex selector can take;
// anything fancier returns "" and is not tracked.
func renderExpr(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if x := renderExpr(e.X); x != "" {
			return x + "." + e.Sel.Name
		}
	case *ast.StarExpr:
		if x := renderExpr(e.X); x != "" {
			return "*" + x
		}
	case *ast.IndexExpr:
		if x := renderExpr(e.X); x != "" {
			if i := renderExpr(e.Index); i != "" {
				return x + "[" + i + "]"
			}
		}
	case *ast.BasicLit:
		return e.Value
	}
	return ""
}
