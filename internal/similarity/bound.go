// Upper bounds on attainable similarity, exported for candidate pruning.
//
// The classification index (package classify, DESIGN.md §12) skips a DTD
// without aligning it when no document could score high enough against it
// to matter. That decision needs a per-DTD bound derived from the same
// required-weight tables the aligner runs on, so it lives here: a Bound is
// computed once at pool-compile time and is a pure function afterwards.
//
// Soundness rests on two facts about the measure (exact tag matching, no
// thesaurus):
//
//   - E(p, m, c) = wc·c / (wc·c + wp·p + wm·m) is monotone increasing in c
//     and decreasing in p and m, so an upper bound follows from any upper
//     bound cmax on the common components together with lower bounds on
//     the plus and minus components.
//   - Every root-to-accept path of the alignment automata satisfies
//     c + m ≥ 1 + RootRequired, where RootRequired is the decayed,
//     depth-capped required weight of the declared root's content model:
//     each mandatory reference is either matched (contributing 1 to c
//     plus what its own content costs) or skipped on an epsilon edge
//     costing its required weight in m, and RootRequired charges each
//     reference the cheaper of the two. Hence m ≥ max(0, 1 +
//     RootRequired − c).
//
// The depth cap matters: the aligner stops recursing at MaxDepth, so the
// required weight feeding the bound must be computed with the same cap —
// an uncapped weight could exceed what the aligner can ever charge, which
// would overstate m and understate the bound (unsound). Capping only
// shrinks RootRequired, which only loosens the bound.
package similarity

import "dtdevolve/internal/dtd"

// DepthCap returns the effective recursion cap of the measure: MaxDepth,
// defaulted exactly as evaluators default it when the configuration
// leaves it unset. Signature extraction and the aligner must agree on
// this value, so both read it from here.
func (c Config) DepthCap() int {
	if c.MaxDepth > 0 {
		return c.MaxDepth
	}
	return 64
}

// Bound carries the per-DTD constants from which a conservative upper
// bound on attainable global similarity is computed. Obtain one from
// Pool.Bound; the zero value is unusable.
type Bound struct {
	wc, wp, wm   float64
	decay        float64
	depthCap     int
	rootRequired float64
	exactable    bool
}

// Bound returns the upper-bound constants of the pool's DTD.
func (p *Pool) Bound() Bound { return p.bound }

// Exactable reports whether Max is a sound bound for this configuration.
// A thesaurus breaks it (a sub-unit tag match contributes less than a full
// label weight to c, and bestDecl can redirect the root), as do degenerate
// weights; Max then returns 1, pruning nothing.
func (b Bound) Exactable() bool { return b.exactable }

// DepthCap returns the recursion cap the bound was computed under.
func (b Bound) DepthCap() int { return b.depthCap }

// Decay returns the per-level decay factor of the measure.
func (b Bound) Decay() float64 { return b.decay }

// RootRequired returns the decayed, depth-capped required weight of the
// declared root's content model (0 when the DTD declares no root).
func (b Bound) RootRequired() float64 { return b.rootRequired }

// Max returns an upper bound on Evaluate().Global over every document
// whose common components total at most cmax and whose plus components
// total at least pmin. Monotone in both arguments: raising cmax or
// lowering pmin never lowers the result, so callers may feed any sound
// cmax/pmin estimates.
func (b Bound) Max(cmax, pmin float64) float64 {
	if !b.exactable {
		return 1
	}
	if cmax <= 0 {
		// A scored document always has c ≥ 1 (the root match itself); no
		// attainable common weight means the similarity is 0.
		return 0
	}
	m := 1 + b.rootRequired - cmax
	if m < 0 {
		m = 0
	}
	num := b.wc * cmax
	den := num + b.wp*pmin + b.wm*m
	if den <= num {
		return 1
	}
	ub := num / den
	if ub > 1 {
		return 1
	}
	return ub
}

// computeBound derives the Bound of d under cfg, using seed (the pool's
// precompilation evaluator) for label interning and declaration lookup.
func computeBound(d *dtd.DTD, cfg Config, seed *Evaluator) Bound {
	b := Bound{
		wc:    cfg.CommonWeight,
		wp:    cfg.PlusWeight,
		wm:    cfg.MinusWeight,
		decay: cfg.Decay,
		// seed's config has MaxDepth normalized by newEvaluator.
		depthCap: seed.cfg.MaxDepth,
		exactable: cfg.TagSimilarity == nil && cfg.CommonWeight > 0 &&
			cfg.PlusWeight >= 0 && cfg.MinusWeight >= 0 &&
			cfg.Decay > 0 && cfg.Decay <= 1,
	}
	if d.Name != "" {
		if model, ok := d.Elements[d.Name]; ok {
			b.rootRequired = cfg.Decay * seed.cappedRequiredModelWeight(model, 0, map[reqCapKey]float64{})
		}
	}
	return b
}

// reqCapKey memoizes capped required weights per (element, frame depth):
// unlike the uncapped weight, the capped one genuinely depends on how deep
// the reference sits.
type reqCapKey struct {
	id    int32
	depth int
}

// cappedRequiredModelWeight is requiredModelWeight under the aligner's
// depth cap: the minimal mandatory weight of a content model aligned in a
// frame at the given depth, counting nothing below MaxDepth (frames there
// never run, so the aligner never charges for them). A reference costs the
// cheaper of matching it, 1 plus its declaration's weight a level down,
// and skipping it, requiredWeight: on a cycle of required elements the
// skip charges the cycle once, which can be far less than matching it to
// the cap (at decay 0.5, `e (e, e)` matched down 64 levels would cost
// 64). Without a cycle the two are equal. Recursion needs no cycle
// detection — depth strictly increases through every Name — and the memo
// keeps the cost at O(elements × MaxDepth).
func (e *Evaluator) cappedRequiredModelWeight(c *dtd.Content, depth int, memo map[reqCapKey]float64) float64 {
	if c == nil || depth >= e.cfg.MaxDepth {
		return 0
	}
	switch c.Kind {
	case dtd.Name:
		key := reqCapKey{id: e.tab.Intern(c.Name), depth: depth}
		if w, ok := memo[key]; ok {
			return w
		}
		w := 1.0
		if decl, ok := e.d.Elements[c.Name]; ok {
			w += e.cfg.Decay * e.cappedRequiredModelWeight(decl, depth+1, memo)
		}
		if skip := e.requiredWeight(c.Name); skip < w {
			w = skip
		}
		memo[key] = w
		return w
	case dtd.Plus:
		return e.cappedRequiredModelWeight(c.Children[0], depth, memo)
	case dtd.Seq:
		var sum float64
		for _, ch := range c.Children {
			sum += e.cappedRequiredModelWeight(ch, depth, memo)
		}
		return sum
	case dtd.Choice:
		best := -1.0
		for _, ch := range c.Children {
			w := e.cappedRequiredModelWeight(ch, depth, memo)
			if best < 0 || w < best {
				best = w
			}
		}
		if best < 0 {
			return 0
		}
		return best
	default:
		// Opt, Star, Empty, Any, PCDATA: nothing mandatory.
		return 0
	}
}
