// Package determinism enforces the simulator's bit-identical-replay
// contract. Flight-recorder dumps, BENCH_core baselines, and
// failure-injection reproductions are only trustworthy because a run with
// a given seed and topology is exactly reproducible; one stray wall-clock
// read or map-iteration-ordered emission silently breaks every one of
// them. The analyzer forbids, inside the simulation core packages:
//
//   - wall-clock and timer reads (time.Now, time.Since, time.Sleep, ...)
//   - the global math/rand and math/rand/v2 sources (unseeded; the
//     scheduler's seeded *rand.Rand is the only sanctioned randomness)
//   - any use of crypto/rand
//   - ranging over a map (iteration order is randomized per run)
//   - spawning goroutines and select statements (scheduling order is not
//     part of the virtual clock)
//
// A site that is genuinely order-insensitive — a commutative sum, a
// collect-then-sort loop — can be allowed with an annotation that names
// its justification:
//
//	//hydralint:nondeterministic <reason>
//
// The reason is mandatory; an annotation without one, or an unknown
// directive name anywhere in the repository, is reported by this analyzer
// so stale or typo'd exemptions cannot accumulate.
//
// # Domain-partition fence
//
// Inside internal/netsim the analyzer additionally enforces the parallel
// core's synchronization-domain contract (documented on netsim.domainRT):
// worker-context code runs concurrently with other domains, and the only
// sanctioned channel between domains is the hand-off outbox the coordinator
// exchanges at each barrier. Concretely, the Network's shared singletons —
// its fields sched, pool, and bus — may be touched only by Network's own
// methods (the serial path and coordinator-context orchestration).
// Everything else must reach the scheduler, pool, and bus through its
// domain (nd.dom.sched, ...): a node event that schedules on the Network's
// scheduler or allocates from the shared pool races with other domains'
// workers.
//
// A site that is genuinely safe — coordinator-context code running while
// every worker is quiescent — can be exempted with
//
//	//hydralint:domainsafe <reason>
//
// and the reason is again mandatory.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"

	"hydranet/internal/lint"
)

// Analyzer is the determinism checker.
var Analyzer = &lint.Analyzer{
	Name: "determinism",
	Doc:  "forbid wall clocks, global rand, map ranges, and goroutines in the deterministic simulation core; fence cross-domain state access in netsim",
	Run:  run,
}

// coveredPkgs are the package-path suffixes (segment-aligned) whose code
// must be deterministic. The lint framework and CLIs are exempt; test
// files are never loaded.
var coveredPkgs = []string{
	"internal/sim",
	"internal/netsim",
	"internal/tcp",
	"internal/ipv4",
	"internal/redirector",
	// The telemetry sampler runs on the virtual clock inside the
	// simulation loop: a wall-clock read or map-ordered emission there
	// would make series exports (and hydrascope diffs of them) flap.
	"internal/series",
	// The invariant monitor's verdicts must be byte-identical across
	// worker counts: a map-ordered violation emission or wall-clock stamp
	// would break audit-report parity.
	"internal/invariant",
}

// bannedTimeFuncs read the wall clock or the runtime timer heap.
var bannedTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// bannedGlobalRand are math/rand (and v2) package-level functions that
// draw from the shared, unseeded source. Constructors (New, NewSource,
// NewPCG, NewChaCha8) are fine: they feed explicitly seeded generators.
var bannedGlobalRand = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Int64": true, "Int64N": true,
	"Uint32": true, "Uint64": true, "Uint64N": true, "UintN": true, "Uint": true,
	"IntN": true, "Int32": true, "Int32N": true, "N": true,
	"Float32": true, "Float64": true, "NormFloat64": true, "ExpFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
}

func run(pass *lint.Pass) error {
	covered := false
	for _, suffix := range coveredPkgs {
		if lint.PathHasSuffixSegments(pass.Pkg.Path(), suffix) {
			covered = true
			break
		}
	}
	fenced := lint.PathHasSuffixSegments(pass.Pkg.Path(), "internal/netsim")

	for _, file := range pass.Files {
		idx := lint.IndexDirectives(pass.Fset, file)
		// Directive hygiene applies to every package hydralint sees, not
		// just the deterministic core.
		for _, d := range idx.Malformed() {
			pass.Reportf(d.Pos, "%s", d.Malformed)
		}
		// used tracks the annotations that suppressed (or stood ready to
		// suppress) a diagnostic; whatever remains unused is stale — the
		// construct it excused was removed or rewritten — and reported
		// below so annotations cannot outlive their reasons.
		used := map[*lint.Directive]bool{}
		if fenced {
			domainSafe := func(pos token.Pos) bool {
				if d := idx.Covering(pass.Fset, pos, lint.DirDomainSafe); d != nil {
					used[d] = true
					return true
				}
				return false
			}
			checkDomainFence(pass, file, domainSafe)
		}
		if !covered {
			continue
		}
		allowed := func(pos token.Pos) bool {
			if d := idx.Covering(pass.Fset, pos, lint.DirNondeterministic); d != nil {
				used[d] = true
				return true
			}
			return false
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n, allowed)
			case *ast.RangeStmt:
				if tv, ok := pass.TypesInfo.Types[n.X]; ok {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap && !allowed(n.Pos()) {
						pass.Reportf(n.Pos(), "map iteration order is nondeterministic; sort keys or annotate with //hydralint:nondeterministic <reason>")
					}
				}
			case *ast.GoStmt:
				if !allowed(n.Pos()) {
					pass.Reportf(n.Pos(), "goroutine spawned in the deterministic simulation core; schedule work on the virtual clock instead")
				}
			case *ast.SelectStmt:
				if !allowed(n.Pos()) {
					pass.Reportf(n.Pos(), "select statement in the deterministic simulation core; case choice is scheduler-dependent")
				}
			}
			return true
		})
		for _, d := range idx.WellFormed() {
			if used[d] {
				continue
			}
			switch d.Name {
			case lint.DirNondeterministic:
				pass.Reportf(d.Pos, "stale //hydralint:nondeterministic annotation: the line it governs has no nondeterministic construct to excuse; delete it")
			case lint.DirDomainSafe:
				if fenced {
					pass.Reportf(d.Pos, "stale //hydralint:domainsafe annotation: the line it governs has no cross-domain access to excuse; delete it")
				}
			}
		}
	}
	return nil
}

func checkCall(pass *lint.Pass, call *ast.CallExpr, allowed func(token.Pos) bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return
	}
	// Only package-level selector calls matter: methods on a seeded
	// *rand.Rand have a receiver and are the sanctioned path.
	id, _ := sel.X.(*ast.Ident)
	if _, isPkgName := pass.TypesInfo.Uses[id].(*types.PkgName); !isPkgName {
		return
	}
	switch obj.Pkg().Path() {
	case "time":
		if bannedTimeFuncs[obj.Name()] && !allowed(call.Pos()) {
			pass.Reportf(call.Pos(), "time.%s reads the wall clock; use the scheduler's virtual clock (sim.Scheduler.Now)", obj.Name())
		}
	case "math/rand", "math/rand/v2":
		if bannedGlobalRand[obj.Name()] && !allowed(call.Pos()) {
			pass.Reportf(call.Pos(), "global rand.%s is unseeded and nondeterministic; use the scheduler's seeded source (sim.Scheduler.Rand)", obj.Name())
		}
	case "crypto/rand":
		if !allowed(call.Pos()) {
			pass.Reportf(call.Pos(), "crypto/rand.%s is nondeterministic by design; the simulation core must use the scheduler's seeded source", obj.Name())
		}
	}
}

// --- domain-partition fence (internal/netsim only) ---

// fencedNetworkFields are Network's shared singletons: worker-context code
// must use its domain's copies instead.
var fencedNetworkFields = map[string]bool{
	"sched": true, "pool": true, "bus": true,
}

// checkDomainFence enforces the synchronization-domain contract on one
// file: Network's shared sched/pool/bus stay inside Network methods.
func checkDomainFence(pass *lint.Pass, file *ast.File, allowed func(token.Pos) bool) {
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		recvNetwork := false
		if fn.Recv != nil && len(fn.Recv.List) == 1 {
			recvNetwork = isNetwork(pass.TypesInfo.TypeOf(fn.Recv.List[0].Type))
		}

		ast.Inspect(fn.Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if fencedNetworkFields[sel.Sel.Name] && isNetwork(pass.TypesInfo.TypeOf(sel.X)) {
				if !recvNetwork && !allowed(sel.Pos()) {
					pass.Reportf(sel.Pos(), "access to the Network's shared %s outside a Network method: worker-context code must use its domain's copy (nd.dom.%s), and cross-domain effects must go through the hand-off outbox; annotate //hydralint:domainsafe <reason> if this runs with every worker quiescent", sel.Sel.Name, sel.Sel.Name)
				}
			}
			return true
		})
	}
}

// isNetwork reports whether t is netsim's Network (or a pointer to it) —
// any package named netsim, so analyzer testdata can supply its own.
func isNetwork(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Network" && obj.Pkg() != nil && obj.Pkg().Name() == "netsim"
}
