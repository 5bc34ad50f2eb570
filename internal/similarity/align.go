package similarity

import (
	"dtdevolve/internal/dtd"
	"dtdevolve/internal/xmltree"
)

// AlignOpKind discriminates the steps of an alignment edit script.
type AlignOpKind int

const (
	// OpMatch pairs a document child with a Name occurrence of the model.
	OpMatch AlignOpKind = iota
	// OpExtra marks a document child with no place in the model (a plus
	// component).
	OpExtra
	// OpMissing marks a mandatory model element with no matching child (a
	// minus component).
	OpMissing
)

// String returns the op kind name.
func (k AlignOpKind) String() string {
	switch k {
	case OpMatch:
		return "match"
	case OpExtra:
		return "extra"
	case OpMissing:
		return "missing"
	default:
		return "AlignOpKind(?)"
	}
}

// AlignOp is one step of the best alignment of an element's children
// against its content model, in model order.
type AlignOp struct {
	Kind AlignOpKind
	// Child is the document child involved (OpMatch, OpExtra).
	Child *xmltree.Node
	// Name is the model-side element name (OpMatch, OpMissing). For a
	// thesaurus-backed match it may differ from Child.Name.
	Name string
}

// AlignChildren computes the best alignment of the element children against
// an element-content model and returns its edit script: the sequence of
// matches, extras (children to drop) and missing mandatory elements (to
// insert), in model order. It is the machinery behind document adaptation
// to an evolved DTD.
//
// Non-element-content models are handled degenerately: EMPTY marks every
// child extra, (#PCDATA) marks element children extra, mixed content and
// ANY match allowed children in place.
func (e *Evaluator) AlignChildren(model *dtd.Content, children []*xmltree.Node) []AlignOp {
	defer clear(e.triMemo) // global triples are scoped per call, as in Evaluate
	switch {
	case model == nil || model.Kind == dtd.Any:
		out := make([]AlignOp, len(children))
		for i, c := range children {
			out[i] = AlignOp{Kind: OpMatch, Child: c, Name: c.Name}
		}
		return out
	case model.Kind == dtd.Empty:
		out := make([]AlignOp, len(children))
		for i, c := range children {
			out[i] = AlignOp{Kind: OpExtra, Child: c}
		}
		return out
	case model.Kind == dtd.PCDATA:
		out := make([]AlignOp, len(children))
		for i, c := range children {
			out[i] = AlignOp{Kind: OpExtra, Child: c}
		}
		return out
	case model.IsMixed():
		labels := model.Labels()
		var out []AlignOp
		for _, c := range children {
			bestLabel, bestSim := "", 0.0
			for _, l := range labels {
				if s := e.tagSim(c.Name, l); s > bestSim {
					bestLabel, bestSim = l, s
				}
			}
			if bestSim > 0 {
				out = append(out, AlignOp{Kind: OpMatch, Child: c, Name: bestLabel})
			} else {
				out = append(out, AlignOp{Kind: OpExtra, Child: c})
			}
		}
		return out
	}
	return e.alignTrace(e.compiled(model), children)
}

// traceOp records how a cell was reached.
type traceOp struct {
	kind  byte // 'm' match, 'x' extra child, 'd' delete required, 0 epsilon/init
	child *xmltree.Node
	name  string
}

type traceCell struct {
	t         Triple
	ok        bool
	fromLayer int
	fromState int
	op        traceOp
}

// alignTrace mirrors align but records provenance, so the optimal edit
// script can be reconstructed.
func (e *Evaluator) alignTrace(a automaton, children []*xmltree.Node) []AlignOp {
	layers := make([][]traceCell, len(children)+1)
	for i := range layers {
		layers[i] = make([]traceCell, a.Len())
	}
	layers[0][a.Start()] = traceCell{ok: true, fromLayer: -1}
	e.relaxEpsTrace(a, layers, 0)
	for i, child := range children {
		cur, next := layers[i], layers[i+1]
		for s := range cur {
			if !cur[s].ok {
				continue
			}
			// Skip the child (extra).
			e.improveTrace(next, s, traceCell{
				t: cur[s].t.Add(Triple{Plus: e.weightedSize(child)}), ok: true,
				fromLayer: i, fromState: s,
				op: traceOp{kind: 'x', child: child},
			})
			// Match the child on the symbol edge.
			edge, ok := a.match(s)
			if !ok {
				continue
			}
			ts := e.tagSim(child.Name, edge.Name)
			if ts <= 0 {
				continue
			}
			delta := e.matchDelta(child, edge.Name, 0, true, ts)
			e.improveTrace(next, int(edge.To), traceCell{
				t: cur[s].t.Add(delta), ok: true,
				fromLayer: i, fromState: s,
				op: traceOp{kind: 'm', child: child, name: edge.Name},
			})
		}
		e.relaxEpsTrace(a, layers, i+1)
	}
	// Reconstruct from the accept state of the last layer.
	var ops []AlignOp
	layer, state := len(children), a.Accept()
	for {
		cell := layers[layer][state]
		if !cell.ok || cell.fromLayer < 0 {
			break
		}
		switch cell.op.kind {
		case 'm':
			ops = append(ops, AlignOp{Kind: OpMatch, Child: cell.op.child, Name: cell.op.name})
		case 'x':
			ops = append(ops, AlignOp{Kind: OpExtra, Child: cell.op.child})
		case 'd':
			ops = append(ops, AlignOp{Kind: OpMissing, Name: cell.op.name})
		}
		layer, state = cell.fromLayer, cell.fromState
	}
	// Reverse into model order.
	for i, j := 0, len(ops)-1; i < j; i, j = i+1, j-1 {
		ops[i], ops[j] = ops[j], ops[i]
	}
	return ops
}

func (e *Evaluator) improveTrace(cells []traceCell, s int, cand traceCell) bool {
	if !cells[s].ok || e.cfg.score(cand.t) > e.cfg.score(cells[s].t) {
		cells[s] = cand
		return true
	}
	return false
}

func (e *Evaluator) relaxEpsTrace(a automaton, layers [][]traceCell, layer int) {
	cells := layers[layer]
	work := make([]int, 0, len(cells))
	inWork := make([]bool, len(cells))
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
		relax := func(t int, minus float64, op traceOp) {
			cand := traceCell{
				t: cells[s].t.Add(Triple{Minus: minus}), ok: true,
				fromLayer: layer, fromState: s, op: op,
			}
			if e.improveTrace(cells, t, cand) && !inWork[t] {
				work = append(work, t)
				inWork[t] = true
			}
		}
		if edge, ok := a.match(s); ok {
			relax(int(edge.To), a.del[s], traceOp{kind: 'd', name: edge.Name})
		}
		for _, t := range a.Eps(s) {
			relax(int(t), 0, traceOp{})
		}
	}
}
