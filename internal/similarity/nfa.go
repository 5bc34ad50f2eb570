package similarity

import (
	"math/bits"
	"slices"
	"sync"

	"dtdevolve/internal/dtd"
	"dtdevolve/internal/intern"
	"dtdevolve/internal/xmltree"
)

// The alignment of a child-element sequence against an element-content
// model is computed on a Thompson-style automaton compiled from the model.
// Three move kinds carry the triple deltas:
//
//   - a symbol edge consumes one document child whose tag matches a Name in
//     the model (common, plus the decayed subtree triple when global);
//   - an epsilon edge with a minus cost skips a mandatory part of the model
//     (the paper's minus components);
//   - a "skip child" move consumes one document child at plus cost (the
//     paper's plus components).
//
// The best triple per automaton state is propagated across child positions,
// maximizing the linear score surrogate (see Config.score). The automaton
// alphabet is interned: symbol edges carry the dense ID of their label, so
// the inner matching loop is an integer comparison; the name is kept only
// for thesaurus lookups and alignment traces.

type epsEdge struct {
	to    int
	minus float64 // 0 for a structural epsilon, > 0 for skipping a required part
	// skipName is the element name this edge skips, set only on the delete
	// edge of a Name leaf; it lets alignment traces report which required
	// element went missing.
	skipName string
}

type symEdge struct {
	to   int
	id   int32 // interned label ID; never None (labels are interned at build)
	name string
}

type nfa struct {
	eps    [][]epsEdge
	syms   [][]symEdge
	start  int
	accept int
	// nestedAny records an ANY inside the model. The alignment reads it as
	// the empty sequence, the validator's automaton as a wildcard loop, so
	// for such a model a validity run does not decide the all-match
	// language (see StreamEval's deferred frames).
	nestedAny bool
	// startSet is the bitset every all-match run starts from: the start
	// state's closure over zero-minus epsilon edges.
	startSet []uint64
}

// compiled returns the automaton for model, building and caching it on
// first use. Evaluators drawn from a Pool consult the pool's precompiled
// read-only table first, so concurrent evaluators never race on the cache.
func (e *Evaluator) compiled(model *dtd.Content) *nfa {
	if e.shared != nil {
		if a, ok := e.shared.nfas[model]; ok {
			return a
		}
	}
	if a, ok := e.nfaMemo[model]; ok {
		return a
	}
	// Every model node compiles to two states; sizing the state tables up
	// front spares their growth allocations.
	n := 2 * model.NodeCount()
	b := &nfaBuilder{e: e, eps: make([][]epsEdge, 0, n), syms: make([][]symEdge, 0, n)}
	start, accept := b.build(model)
	a := &nfa{eps: b.eps, syms: b.syms, start: start, accept: accept, nestedAny: b.nestedAny}
	a.startSet = e.run.startClosure(a)
	e.nfaMemo[model] = a
	return a
}

type nfaBuilder struct {
	e         *Evaluator
	eps       [][]epsEdge
	syms      [][]symEdge
	nestedAny bool
}

func (b *nfaBuilder) newState() int {
	b.eps = append(b.eps, nil)
	b.syms = append(b.syms, nil)
	return len(b.eps) - 1
}

func (b *nfaBuilder) addEps(from, to int, minus float64) {
	b.eps[from] = append(b.eps[from], epsEdge{to: to, minus: minus})
}

func (b *nfaBuilder) addSkip(from, to int, minus float64, name string) {
	b.eps[from] = append(b.eps[from], epsEdge{to: to, minus: minus, skipName: name})
}

func (b *nfaBuilder) addSym(from, to int, id int32, name string) {
	b.syms[from] = append(b.syms[from], symEdge{to: to, id: id, name: name})
}

// build compiles c into a fragment and returns its (start, accept) states.
// Every fragment is traversable start→accept using only epsilon edges, with
// a minimal total minus cost equal to the model's required weight; this is
// what lets the aligner skip any mandatory part at the paper's minus cost.
func (b *nfaBuilder) build(c *dtd.Content) (int, int) {
	start, accept := b.newState(), b.newState()
	switch c.Kind {
	case dtd.Name:
		id := b.e.tab.Intern(c.Name)
		b.addSym(start, accept, id, c.Name)
		b.addSkip(start, accept, b.e.requiredWeight(c.Name), c.Name)
	case dtd.PCDATA, dtd.Empty, dtd.Any:
		// No child elements to consume; character data is costed by the
		// caller.
		b.addEps(start, accept, 0)
		b.nestedAny = b.nestedAny || c.Kind == dtd.Any
	case dtd.Seq:
		prev := start
		for _, ch := range c.Children {
			fs, fa := b.build(ch)
			b.addEps(prev, fs, 0)
			prev = fa
		}
		b.addEps(prev, accept, 0)
	case dtd.Choice:
		for _, ch := range c.Children {
			fs, fa := b.build(ch)
			b.addEps(start, fs, 0)
			b.addEps(fa, accept, 0)
		}
	case dtd.Opt:
		fs, fa := b.build(c.Children[0])
		b.addEps(start, fs, 0)
		b.addEps(fa, accept, 0)
		b.addEps(start, accept, 0)
	case dtd.Star:
		fs, fa := b.build(c.Children[0])
		b.addEps(start, fs, 0)
		b.addEps(fa, accept, 0)
		b.addEps(start, accept, 0)
		b.addEps(fa, fs, 0)
	case dtd.Plus:
		fs, fa := b.build(c.Children[0])
		b.addEps(start, fs, 0)
		b.addEps(fa, accept, 0)
		b.addEps(fa, fs, 0)
	default:
		b.addEps(start, accept, 0)
	}
	return start, accept
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
func (e *Evaluator) align(a *nfa, n *xmltree.Node, depth int, global bool) Triple {
	e.aligns++
	sc := getScratch(len(a.eps))
	defer putScratch(sc)
	cur, next := sc.cur, sc.next
	cur[a.start] = cell{ok: true}
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
			// Match the child on a symbol edge (exactly, by ID, or by tag
			// similarity when a thesaurus is configured).
			for _, edge := range a.syms[s] {
				var ts float64
				if cid != intern.None && cid == edge.id {
					ts = 1
				} else {
					ts = e.tagSimID(cid, child.Name, edge.id, edge.name)
				}
				if ts <= 0 {
					continue
				}
				delta := e.matchDelta(child, edge.name, depth, global, ts)
				e.improve(next, edge.to, cur[s].t.Add(delta))
			}
		}
		cur, next = next, cur
		e.relaxEps(a, cur, sc)
	}
	if !cur[a.accept].ok {
		// Unreachable by construction (every fragment has an epsilon path),
		// but stay defensive.
		return Triple{Minus: 1}
	}
	return cur[a.accept].t
}

// improve installs t at state s when it beats the current occupant.
func (e *Evaluator) improve(cells []cell, s int, t Triple) bool {
	if !cells[s].ok || e.cfg.score(t) > e.cfg.score(cells[s].t) {
		cells[s] = cell{t: t, ok: true}
		return true
	}
	return false
}

// relaxEps propagates triples along epsilon edges to a fixpoint. Epsilon
// moves never increase the score (minus costs are non-negative), so the
// relaxation terminates; a worklist keeps it near-linear in practice.
func (e *Evaluator) relaxEps(a *nfa, cells []cell, sc *alignScratch) {
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
		for _, edge := range a.eps[s] {
			cand := cells[s].t.Add(Triple{Minus: edge.minus})
			if e.improve(cells, edge.to, cand) && !inWork[edge.to] {
				work = append(work, edge.to)
				inWork[edge.to] = true
			}
		}
	}
	sc.work = work[:0]
}

// allMatchRun decides an automaton's all-match language: the child
// sequences that some start-to-accept path consumes entirely on symbol
// edges, moving otherwise only on zero-minus epsilon edges. It runs the
// alignment's own automaton as a reachable-state bitset, like
// validate.Run, so a nested ANY reads as the empty sequence here exactly
// as it does in the DP. Each evaluator owns one run (a run completes
// before the evaluator recurses), and its buffers are grow-only, so
// deciding a sequence allocates nothing at steady state.
type allMatchRun struct {
	a         *nfa
	cur, next []uint64
	// work holds states queued for the epsilon closure; a state is queued
	// only when newly added to a set, so it never outgrows the automaton.
	work []int32
}

// allMatchAccepts reports whether the element children of n spell a word
// of a's all-match language.
// dtdvet:noalloc
func (e *Evaluator) allMatchAccepts(a *nfa, n *xmltree.Node) bool {
	r := &e.run
	r.reset(a)
	for _, c := range n.Children {
		if c.Kind == xmltree.Element && !r.step(e.docID(c)) {
			return false
		}
	}
	return r.cur[a.accept/64]&(1<<(uint(a.accept)%64)) != 0
}

// reset starts a run of a over the empty sequence.
func (r *allMatchRun) reset(a *nfa) {
	r.size(a)
	copy(r.cur, a.startSet)
}

// startClosure computes a's start set with r's buffers.
func (r *allMatchRun) startClosure(a *nfa) []uint64 {
	r.size(a)
	clear(r.cur)
	r.mark(r.cur, int32(a.start))
	r.close()
	return slices.Clone(r.cur)
}

// size points r at a, growing its buffers to a's states.
func (r *allMatchRun) size(a *nfa) {
	r.a = a
	words := (len(a.eps) + 63) / 64
	if cap(r.cur) < words {
		buf := make([]uint64, 2*words)
		r.cur, r.next = buf[:words:words], buf[words:]
	}
	if cap(r.work) < len(a.eps) {
		r.work = make([]int32, 0, len(a.eps))
	}
	r.cur, r.next = r.cur[:words], r.next[:words]
	r.work = r.work[:0]
}

// step consumes one child with interned label id and reports whether any
// state is still reachable.
// dtdvet:noalloc
func (r *allMatchRun) step(id int32) bool {
	clear(r.next)
	for w, word := range r.cur {
		for word != 0 {
			s := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			for _, edge := range r.a.syms[s] {
				if edge.id == id {
					r.mark(r.next, int32(edge.to))
				}
			}
		}
	}
	r.cur, r.next = r.next, r.cur
	live := len(r.work) > 0
	r.close()
	return live
}

// mark adds s to set, queueing it for the epsilon closure when new.
// dtdvet:noalloc
func (r *allMatchRun) mark(set []uint64, s int32) {
	if bit := uint64(1) << (uint(s) % 64); set[s/64]&bit == 0 {
		set[s/64] |= bit
		r.work = append(r.work, s)
	}
}

// close extends the current set over the zero-minus epsilon edges of the
// queued states; a delete edge (minus > 0) is not an all-match move.
// dtdvet:noalloc
func (r *allMatchRun) close() {
	for len(r.work) > 0 {
		s := r.work[len(r.work)-1]
		r.work = r.work[:len(r.work)-1]
		for _, edge := range r.a.eps[s] {
			if edge.minus == 0 {
				r.mark(r.cur, int32(edge.to))
			}
		}
	}
}
