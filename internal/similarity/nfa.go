package similarity

import (
	"sync"

	"dtdevolve/internal/dtd"
	"dtdevolve/internal/intern"
	"dtdevolve/internal/validate"
	"dtdevolve/internal/xmltree"
)

// The alignment of a child-element sequence against an element-content
// model runs on validate's automaton of the model, the one the validator
// runs. Three move kinds carry the triple deltas:
//
//   - a symbol edge consumes one document child whose tag matches a Name in
//     the model (common, plus the decayed subtree triple when global);
//   - a Name's delete move takes its symbol edge without consuming a child,
//     at the minus cost of the required element it skips (the paper's minus
//     components); epsilon edges move at no cost;
//   - a "skip child" move consumes one document child at plus cost (the
//     paper's plus components).
//
// The best triple per automaton state is propagated across child positions,
// maximizing the linear score surrogate (see Config.score). Symbol edges
// carry the interned ID of their label, so the inner matching loop is an
// integer comparison; the name serves thesaurus lookups and alignment
// traces.

// automaton is a content model compiled for alignment: validate's
// automaton of the model, and per state the minus cost of its delete move.
type automaton struct {
	*validate.Automaton
	del []float64
}

// match returns state s's symbol edge; ok is false where s has none.
func (a automaton) match(s int) (e validate.Edge, ok bool) {
	e = a.Sym(s)
	return e, e.To >= 0
}

// compiled returns the automaton for model, building and caching it on
// first use. Evaluators drawn from a Pool consult the pool's precompiled
// read-only table first, so concurrent evaluators never race on the cache.
func (e *Evaluator) compiled(model *dtd.Content) automaton {
	if e.shared != nil {
		if a, ok := e.shared.autos[model]; ok {
			return a
		}
	}
	if a, ok := e.autoMemo[model]; ok {
		return a
	}
	a := automaton{Automaton: validate.Compile(model, e.tab)}
	// States number the Name leaves in model order, so required weights are
	// computed in the order a walk of the model meets them.
	a.del = make([]float64, a.Len())
	for s := range a.del {
		if edge, ok := a.match(s); ok {
			a.del[s] = e.requiredWeight(edge.Name)
		}
	}
	e.autoMemo[model] = a
	return a
}

// cell is the best-known triple at an automaton state.
type cell struct {
	t  Triple
	ok bool
}

// alignScratch is one reusable set of alignment buffers. Alignment draws
// them from a pool (not a single instance per evaluator): global alignment
// recurses — matching a child recursively aligns the child's own children —
// so nested align calls each need live buffers. The slices are grow-only;
// inWork self-cleans (every pushed state is popped), so only cur needs
// zeroing on reuse (next is wiped at the top of every child step).
type alignScratch struct {
	cur, next []cell
	work      []int
	inWork    []bool
}

// scratchPool shares alignment buffers across every evaluator in the
// process. A package-level sync.Pool rather than a per-evaluator free list:
// classification builds short-lived evaluators (one per DTD per pool miss),
// and with a private free list each of them re-grows its buffers from
// scratch — the dominant allocation cost of a cold evaluation. GC may
// reclaim pooled buffers under pressure; the steady-state hot path (one
// warm evaluator, no allocation, hence no GC) keeps its buffers.
var scratchPool = sync.Pool{New: func() any { return new(alignScratch) }}

// getScratch takes a pooled scratch sized for n automaton states, with cur
// zeroed. At steady state this allocates nothing.
func getScratch(n int) *alignScratch {
	sc := scratchPool.Get().(*alignScratch)
	if cap(sc.cur) < n {
		sc.cur = make([]cell, n)
		sc.next = make([]cell, n)
		sc.inWork = make([]bool, n)
	}
	sc.cur = sc.cur[:n]
	sc.next = sc.next[:n]
	sc.inWork = sc.inWork[:n]
	for i := range sc.cur {
		sc.cur[i] = cell{}
	}
	return sc
}

func putScratch(sc *alignScratch) {
	scratchPool.Put(sc)
}

// align runs the automaton over the element children of n, returning the
// best triple that ends in the accept state after all children are
// consumed.
func (e *Evaluator) align(a automaton, n *xmltree.Node, depth int, global bool) Triple {
	e.aligns++
	sc := getScratch(a.Len())
	defer putScratch(sc)
	cur, next := sc.cur, sc.next
	cur[a.Start()] = cell{ok: true}
	e.relaxEps(a, cur, sc)
	for _, child := range n.Children {
		if child.Kind != xmltree.Element {
			continue
		}
		cid := e.docID(child)
		for i := range next {
			next[i] = cell{}
		}
		for s := range cur {
			if !cur[s].ok {
				continue
			}
			// Skip the child: it is a plus component.
			e.improve(next, s, cur[s].t.Add(Triple{Plus: e.weightedSize(child)}))
			// Match the child on the symbol edge (exactly, by ID, or by tag
			// similarity when a thesaurus is configured).
			edge, ok := a.match(s)
			if !ok {
				continue
			}
			var ts float64
			if cid != intern.None && cid == edge.ID {
				ts = 1
			} else {
				ts = e.tagSimID(cid, child.Name, edge.ID, edge.Name)
			}
			if ts <= 0 {
				continue
			}
			delta := e.matchDelta(child, edge.Name, depth, global, ts)
			e.improve(next, int(edge.To), cur[s].t.Add(delta))
		}
		cur, next = next, cur
		e.relaxEps(a, cur, sc)
	}
	if !cur[a.Accept()].ok {
		// Unreachable by construction (every fragment has a path of delete
		// and epsilon moves), but stay defensive.
		return Triple{Minus: 1}
	}
	return cur[a.Accept()].t
}

// improve installs t at state s when it beats the current occupant.
func (e *Evaluator) improve(cells []cell, s int, t Triple) bool {
	if !cells[s].ok || e.cfg.score(t) > e.cfg.score(cells[s].t) {
		cells[s] = cell{t: t, ok: true}
		return true
	}
	return false
}

// relaxEps propagates triples along delete moves and epsilon edges to a
// fixpoint. Neither raises the score (minus costs are non-negative), so
// the relaxation terminates; a worklist keeps it near-linear in practice.
// A state's delete move is relaxed before its epsilon edges; no state has
// both.
func (e *Evaluator) relaxEps(a automaton, cells []cell, sc *alignScratch) {
	work, inWork := sc.work[:0], sc.inWork
	for s := range cells {
		if cells[s].ok {
			work = append(work, s)
			inWork[s] = true
		}
	}
	for len(work) > 0 {
		s := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[s] = false
		if edge, ok := a.match(s); ok {
			if t := int(edge.To); e.improve(cells, t, cells[s].t.Add(Triple{Minus: a.del[s]})) && !inWork[t] {
				work = append(work, t)
				inWork[t] = true
			}
		}
		for _, t := range a.Eps(s) {
			if e.improve(cells, int(t), cells[s].t.Add(Triple{})) && !inWork[t] {
				work = append(work, int(t))
				inWork[t] = true
			}
		}
	}
	sc.work = work[:0]
}

// allMatchAccepts reports whether the element children of n spell a word
// of a's all-match language: the child sequences some start-to-accept
// path consumes entirely on symbol edges, moving otherwise only on
// epsilon edges. That is the language the validator's run decides.
// dtdvet:noalloc
func (e *Evaluator) allMatchAccepts(a automaton, n *xmltree.Node) bool {
	r := &e.run
	r.Reset(a.Automaton)
	for _, c := range n.Children {
		if c.Kind == xmltree.Element && !r.Step(e.docID(c)) {
			return false
		}
	}
	return r.Accepts()
}
