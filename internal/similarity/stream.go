// Streaming evaluation: the global similarity of a document against one
// DTD computed from a Start/Text/End event stream, never holding the
// tree (DESIGN.md §15).
//
// The tree evaluator's recursion is replaced by an explicit frame stack:
// each open element carries the per-model state its triple needs — the
// accumulator of ANY/EMPTY/(#PCDATA)/mixed models, or one DP layer of the
// alignment automaton for element content. The [BGM01] alignment is
// sequential in the children, so one automaton-states-sized layer per open
// frame is enough: when a child element closes, its own triple (computed
// the same way, one level deeper) feeds exactly one DP transition of its
// parent. Memory is O(open depth × automaton states), independent of
// document size, and the arithmetic performs the identical floating-point
// operations in the identical order as Evaluator.Evaluate, so results are
// bit-identical (pinned by TestStreamEvalMatchesEvaluate).
//
// Each frame also tracks the boolean one-level validity of its element
// (validate.LocalValid semantics) so the recording path can reuse it: for
// element content it runs validate.Run over the frame's automaton, the
// one its DP reads, one step per child element.
//
// A content frame defers its DP while its children are all-match and
// perfect (the shortcut of Evaluator.allMatchTriple): it sums their match
// deltas and buffers each child's DP input, at most deferBuf of them. The
// first imperfect child, a dead validity run, a full buffer, or a close
// without an accepted sequence replays the buffer into a fresh DP layer,
// which then continues as if it had run from the start; an accepted close
// returns the sum. Memory stays O(open depth × (automaton states +
// deferBuf)).
package similarity

import (
	"dtdevolve/internal/dtd"
	"dtdevolve/internal/intern"
	"dtdevolve/internal/validate"
)

type streamMode int8

const (
	// modeOff: the element has no declaration in the DTD — no triple of its
	// own (its cost is carried by the parent as a plus component) and never
	// locally valid.
	modeOff streamMode = iota
	modeAny
	modeEmpty
	modePCDATA
	modeMixed
	modeContent
)

// deferBuf is how many children a content frame buffers before it starts
// its DP: more than a log event's 3–4, few enough that a frame stays small.
const deferBuf = 8

// pending is one buffered child of a deferred content frame: the inputs
// of the DP step it would have taken.
type pending struct {
	id    int32
	w     float64
	delta Triple
}

// sframe is the per-open-element state of one streaming evaluation.
type sframe struct {
	mode       streamMode
	declared   bool // the element name has a declaration in the DTD
	triples    bool // triple accumulation active (declared && depth < MaxDepth)
	degraded   bool // child budget exceeded: triple escalated to the ANY-style summary
	hasText    bool // some non-whitespace text child (xmltree.Node.HasText semantics)
	mixedOK    bool // mixed validity: every element child so far is in the alphabet
	id         int32
	decl       *dtd.Content
	set        *labelSet
	a          automaton
	t          Triple       // ANY/EMPTY/PCDATA/mixed accumulator
	anyT       Triple       // ANY-style summary of a content frame, used when degraded
	textPlus   float64      // content models: one plus per text child
	childCount int          // all kept children (text nodes included)
	elemCount  int          // element children only
	cells      []cell       // content: current DP layer
	spare      []cell       // content: next DP layer (swapped each step)
	run        validate.Run // content: validity over the child tags so far
	// deferred: a content frame has not started its DP. Its children so
	// far are all-match and perfect, sum holds their deltas' sum and
	// buf[:nbuf] their DP inputs.
	deferred bool
	sum      Triple
	nbuf     int
	buf      [deferBuf]pending
}

// StreamEval scores one document against one DTD from a stream of events.
// Obtain one from Pool.GetStream, feed Start/Text/End in document order,
// read Result after the root closes, and return it with Pool.PutStream.
// Not safe for concurrent use.
type StreamEval struct {
	e      *Evaluator
	frames []sframe
	n      int // open frames
	// sc provides the worklist scratch of relaxEps; owned (not drawn from
	// scratchPool) so a pooled StreamEval keeps warm buffers.
	sc           alignScratch
	rootT        Triple
	rootDeclared bool
	closed       bool
	// dpSteps counts the DP steps taken, replays included, for tests.
	dpSteps int
}

// GetStream borrows a streaming evaluator for the pool's DTD. Return it
// with PutStream.
func (p *Pool) GetStream() *StreamEval {
	p.shared.declOnce.Do(func() { p.shared.indexDecls(p.d) })
	if v := p.streams.Get(); v != nil {
		se := v.(*StreamEval)
		se.Reset()
		return se
	}
	return &StreamEval{e: p.Get()}
}

// PutStream returns a streaming evaluator to the pool.
func (p *Pool) PutStream(se *StreamEval) {
	if se != nil && se.e != nil && se.e.d == p.d {
		p.streams.Put(se)
	}
}

// Reset prepares the evaluator for a new document.
func (se *StreamEval) Reset() {
	se.n = 0
	se.rootT = Triple{}
	se.rootDeclared = false
	se.closed = false
}

// Start opens an element with interned label id.
func (se *StreamEval) Start(id int32) {
	if se.n == len(se.frames) {
		se.frames = append(se.frames, sframe{})
	}
	f := &se.frames[se.n]
	depth := se.n
	se.n++
	decl, declared := se.e.shared.decl(id)
	f.id, f.decl, f.declared = id, decl, declared
	f.triples = declared && depth < se.e.cfg.MaxDepth
	f.degraded, f.hasText, f.deferred = false, false, false
	f.mixedOK = true
	f.t, f.anyT, f.textPlus = Triple{}, Triple{}, 0
	f.childCount, f.elemCount = 0, 0
	switch {
	case !declared:
		f.mode = modeOff
	case decl == nil || decl.Kind == dtd.Any:
		f.mode = modeAny
	case decl.Kind == dtd.Empty:
		f.mode = modeEmpty
	case decl.Kind == dtd.PCDATA:
		f.mode = modePCDATA
	case decl.IsMixed():
		f.mode = modeMixed
		f.set = se.e.mixedSet(decl)
	default:
		f.mode = modeContent
		f.a = se.e.compiled(decl)
		f.run.Reset(f.a.Automaton)
		f.deferred = f.triples && se.e.allMatch
		f.sum, f.nbuf = Triple{}, 0
		if f.triples && !f.deferred {
			se.startDP(f)
		}
	}
}

// startDP prepares a content frame's DP layer over the empty child
// sequence.
func (se *StreamEval) startDP(f *sframe) {
	n := f.a.Len()
	if cap(f.cells) < n {
		f.cells = make([]cell, n)
		f.spare = make([]cell, n)
	}
	f.cells, f.spare = f.cells[:n], f.spare[:n]
	se.growScratch(n)
	for i := range f.cells {
		f.cells[i] = cell{}
	}
	f.cells[f.a.Start()] = cell{ok: true}
	se.e.relaxEps(f.a, f.cells, &se.sc)
}

// replay ends a frame's deferral: it starts the DP and feeds it the
// buffered children, leaving the layer the frame would hold had it never
// deferred.
func (se *StreamEval) replay(f *sframe) {
	f.deferred = false
	se.startDP(f)
	for i := range f.buf[:f.nbuf] {
		c := &f.buf[i]
		se.dpStep(f, c.id, c.w, c.delta)
	}
}

// growScratch sizes the shared worklist scratch for n automaton states.
func (se *StreamEval) growScratch(n int) {
	if len(se.sc.inWork) < n {
		se.sc.inWork = make([]bool, n)
	}
}

// Text records one kept text child of the open element; nonWS reports
// whether it contains non-whitespace data.
// dtdvet:noalloc
func (se *StreamEval) Text(nonWS bool) {
	f := &se.frames[se.n-1]
	f.childCount++
	if nonWS {
		f.hasText = true
	}
	if !f.triples {
		return
	}
	switch f.mode {
	case modeEmpty:
		// weightedSize of a text node is exactly 1.
		f.t.Plus++
	case modeContent:
		f.textPlus++
	}
}

// DegradeTop marks the open element as over the child budget: its triple
// degrades to the ANY-style set summary and it is never locally valid.
func (se *StreamEval) DegradeTop() {
	se.frames[se.n-1].degraded = true
}

// End closes the open element. childW is its weighted size (1 +
// Decay·Σ weighted sizes of its children, text nodes weighing 1). It
// returns whether the element's direct content is valid for its own
// declaration — false when undeclared — matching the recorder's
// decl != nil && LocalValid test.
// dtdvet:noalloc
func (se *StreamEval) End(childW float64) (valid bool) {
	f := &se.frames[se.n-1]
	se.n--
	valid = se.conforms(f)
	var tr Triple
	if f.triples {
		tr = se.ownTriple(f)
	}
	if se.n == 0 {
		se.rootT = tr
		se.rootDeclared = f.declared
		se.closed = true
		return valid
	}
	p := &se.frames[se.n-1]
	p.childCount++
	p.elemCount++
	se.consume(p, f.id, f.declared, childW, tr)
	return valid
}

// conforms is LocalValid over the frame's accumulated state.
func (se *StreamEval) conforms(f *sframe) bool {
	if !f.declared || f.decl == nil || f.degraded {
		// Undeclared elements are never counted valid by the recorder; a
		// declared-but-nil model cannot arise from the DTD parser but would
		// be invalid there too. Degraded frames dropped their exact state.
		return false
	}
	switch f.mode {
	case modeAny:
		return true
	case modeEmpty:
		return f.childCount == 0
	case modePCDATA:
		return f.elemCount == 0
	case modeMixed:
		return f.mixedOK
	default:
		return !f.hasText && f.run.Accepts()
	}
}

// ownTriple finalizes the closing frame's triple — the value
// elementTriple(n, decl, depth, true) computes on the tree.
func (se *StreamEval) ownTriple(f *sframe) Triple {
	switch f.mode {
	case modePCDATA:
		if f.hasText {
			f.t.Common++
		}
		return f.t
	case modeContent:
		if f.degraded {
			return f.anyT
		}
		if f.deferred {
			if f.run.Accepts() && se.e.allMatchWins(f.sum) {
				t := f.sum
				t.Plus += f.textPlus
				return t
			}
			se.replay(f)
		}
		t := Triple{Minus: 1}
		if f.cells[f.a.Accept()].ok {
			t = f.cells[f.a.Accept()].t
		}
		t.Plus += f.textPlus
		return t
	default: // modeAny, modeEmpty, modeMixed
		return f.t
	}
}

// consume applies one closed child element to its parent frame: the
// parent's triple advances exactly as the corresponding branch of
// elementTriple would, and its validity state consumes the child's tag.
// dtdvet:noalloc
func (se *StreamEval) consume(p *sframe, cid int32, childDeclared bool, childW float64, childT Triple) {
	// Validity consumes the child tag at every depth (recording is not
	// depth-capped), independent of the triple accumulation below.
	live := true
	switch p.mode {
	case modeMixed:
		if p.mixedOK && !p.inMixedSet(cid) {
			p.mixedOK = false
		}
	case modeContent:
		if !p.degraded {
			live = p.run.Step(cid)
		}
	}
	decay := se.e.cfg.Decay
	if p.triples {
		switch p.mode {
		case modeAny:
			if childDeclared {
				p.t = p.t.Add(partialMatch(1))
				p.t = p.t.Add(childT.Scale(decay))
			} else {
				p.t.Plus += childW
			}
		case modeEmpty, modePCDATA:
			p.t.Plus += childW
		case modeMixed:
			if p.inMixedSet(cid) {
				p.t = p.t.Add(partialMatch(1))
				if childDeclared {
					p.t = p.t.Add(childT.Scale(decay))
				}
			} else {
				p.t.Plus += childW
			}
		case modeContent:
			// The ANY-style summary runs alongside the DP so a later budget
			// overflow can degrade the frame without replaying its children.
			if childDeclared {
				p.anyT = p.anyT.Add(partialMatch(1))
				p.anyT = p.anyT.Add(childT.Scale(decay))
			} else {
				p.anyT.Plus += childW
			}
			if !p.degraded {
				delta := partialMatch(1)
				if childDeclared {
					delta = delta.Add(childT.Scale(decay))
				}
				se.contentStep(p, cid, live, childW, delta)
			}
		}
	}
}

// contentStep advances a content frame by one child element: a deferred
// frame buffers an all-match, perfect child while its validity run lives
// and its buffer has room, and otherwise replays into the DP, which takes
// the step.
// dtdvet:noalloc
func (se *StreamEval) contentStep(p *sframe, cid int32, live bool, childW float64, delta Triple) {
	if p.deferred {
		if live && delta.Plus == 0 && delta.Minus == 0 && p.nbuf < deferBuf {
			p.sum = p.sum.Add(delta)
			p.buf[p.nbuf] = pending{id: cid, w: childW, delta: delta}
			p.nbuf++
			return
		}
		se.replay(p)
	}
	se.dpStep(p, cid, childW, delta)
}

// inMixedSet reports whether cid is in the mixed model's label alphabet.
// dtdvet:noalloc
func (p *sframe) inMixedSet(cid int32) bool {
	if cid == intern.None {
		return false
	}
	for _, lid := range p.set.ids {
		if lid == cid {
			return true
		}
	}
	return false
}

// dpStep advances the parent's DP layer by one child element, mirroring
// the per-child body of Evaluator.align: the skip move at plus cost
// childW, the symbol moves at delta, then the epsilon relaxation.
// dtdvet:noalloc
func (se *StreamEval) dpStep(p *sframe, cid int32, childW float64, delta Triple) {
	se.dpSteps++
	a := p.a
	cur, next := p.cells, p.spare
	for i := range next {
		next[i] = cell{}
	}
	for s := range cur {
		if !cur[s].ok {
			continue
		}
		se.e.improve(next, s, cur[s].t.Add(Triple{Plus: childW}))
		if edge, ok := a.match(s); ok && cid != intern.None && cid == edge.ID {
			se.e.improve(next, int(edge.To), cur[s].t.Add(delta))
		}
	}
	p.cells, p.spare = next, cur
	se.e.relaxEps(a, p.cells, &se.sc)
}

// Result returns the evaluation after the root element has closed: the
// same Global (and root Triple) Evaluator.Evaluate computes on the tree.
// The Local degree is not computed on the streaming path.
func (se *StreamEval) Result() Result {
	if !se.closed || !se.rootDeclared {
		return Result{}
	}
	t := partialMatch(1).Add(se.rootT.Scale(se.e.cfg.Decay))
	return Result{Global: se.e.cfg.Eval(t), Triple: t}
}
