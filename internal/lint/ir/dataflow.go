package ir

import "go/ast"

// A Lattice describes the fact domain of one dataflow problem. Facts are
// opaque to the solver; the client supplies the algebra.
type Lattice[F any] struct {
	// Join combines facts at control-flow merges (union for a may
	// analysis, intersection for a must analysis). It must not mutate its
	// arguments.
	Join func(a, b F) F
	// Equal detects the fixpoint.
	Equal func(a, b F) bool
	// Clone copies a fact so per-block transfer can mutate freely.
	Clone func(F) F
}

// A Problem is one forward dataflow analysis over a CFG: a boundary fact
// and a per-element transfer function.
type Problem[F any] struct {
	Lattice  Lattice[F]
	Boundary F // fact at Entry
	// Transfer folds one element into the fact. The solver applies it to
	// every element of a block in order.
	Transfer func(elem ast.Node, f F) F
}

// Forward solves the problem with a worklist and returns each block's
// IN fact — the fact that holds just before the block's first element.
// Facts propagate only along reachable paths: a block never reached from
// Entry keeps the zero fact and reachable[b] is false.
func Forward[F any](cfg *CFG, p Problem[F]) (in map[*Block]F, reachable map[*Block]bool) {
	in = make(map[*Block]F, len(cfg.Blocks))
	reachable = make(map[*Block]bool, len(cfg.Blocks))
	in[cfg.Entry] = p.Lattice.Clone(p.Boundary)
	reachable[cfg.Entry] = true

	work := []*Block{cfg.Entry}
	queued := map[*Block]bool{cfg.Entry: true}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b] = false

		out := FoldBlock(b, p, p.Lattice.Clone(in[b]))
		for _, s := range b.Succs {
			var merged F
			if !reachable[s] {
				merged = p.Lattice.Clone(out)
			} else {
				merged = p.Lattice.Join(in[s], out)
				if p.Lattice.Equal(merged, in[s]) {
					continue
				}
			}
			in[s] = merged
			reachable[s] = true
			if !queued[s] {
				queued[s] = true
				work = append(work, s)
			}
		}
	}
	return in, reachable
}

// FoldBlock applies the problem's transfer to every element of b starting
// from fact, in block order, and returns the resulting fact. Analyzers use
// it to replay a solved block and interrogate the fact at a specific
// element.
func FoldBlock[F any](b *Block, p Problem[F], fact F) F {
	for _, e := range b.Elems {
		fact = p.Transfer(e, fact)
	}
	return fact
}
