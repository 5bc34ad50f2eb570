// Package similarity measures the structural similarity between XML
// documents and DTDs: the numeric classification mechanism of Bertino,
// Guerrini & Mesiti that the evolution paper builds on.
//
// The measure visits the document tree and the DTD simultaneously,
// associating with each level a triple (p, m, c): the evaluation of plus
// components (document structure absent from the DTD), minus components
// (DTD structure absent from the document) and common components. The
// similarity degree is
//
//	E(p, m, c) = wc·c / (wc·c + wp·p + wm·m)   with E(0, 0, 0) = 1,
//
// so a valid element has similarity exactly 1, and deviations reduce the
// degree toward 0. Contributions from deeper levels are scaled by a decay
// factor per level, mirroring the level-based weighting of the original
// measure (the exact evaluation function of the companion paper is not
// reproduced in the evolution paper; DESIGN.md §3.1 documents this
// reconstruction).
//
// Two degrees are exposed, as in the paper:
//
//   - global similarity of an element recurses into subelement
//     declarations; global similarity 1 coincides with validity;
//   - local similarity only evaluates the direct subelements of an element
//     against the operators in its declaration, and is the signal that
//     drives the recording and evolution phases.
//
// The implementation runs on interned labels: every element name is mapped
// to a dense int32 ID by an intern.Table shared across the evaluators of a
// Pool (and, higher up, across one source's classifiers and recorders), so
// the per-document inner loop compares integers and indexes slices instead
// of hashing strings. DESIGN.md §9 describes the interning lifecycle and
// the allocation budget; at steady state Evaluate performs no heap
// allocations.
package similarity

import (
	"math"

	"dtdevolve/internal/dtd"
	"dtdevolve/internal/intern"
	"dtdevolve/internal/validate"
	"dtdevolve/internal/xmltree"
)

// Config holds the parameters of the measure. The zero value is not valid;
// use DefaultConfig (or fill every field).
type Config struct {
	// CommonWeight (wc), PlusWeight (wp) and MinusWeight (wm) weigh the
	// triple components in the evaluation function E.
	CommonWeight float64
	PlusWeight   float64
	MinusWeight  float64
	// Decay scales contributions one level deeper; it must be in (0, 1]
	// for global similarity 1 to coincide with validity.
	Decay float64
	// MaxDepth caps recursion on pathological or cyclic inputs.
	MaxDepth int
	// TagSimilarity optionally generalizes tag equality to tag similarity,
	// the thesaurus extension of the paper's §6: it returns a degree in
	// [0, 1] for a document tag against a DTD tag (1 for synonyms). Nil
	// means exact tag equality. A match with degree s contributes s to the
	// common component instead of 1, so synonym matches rank between a
	// miss and an exact match.
	TagSimilarity func(docTag, dtdTag string) float64
	// MinTagSimilarity is the smallest TagSimilarity degree treated as a
	// match; lower degrees count as plus/minus as usual.
	MinTagSimilarity float64
}

// DefaultConfig returns the parameters used throughout the paper
// reproduction: unit weights and a decay of 1/2.
func DefaultConfig() Config {
	return Config{
		CommonWeight: 1, PlusWeight: 1, MinusWeight: 1,
		Decay: 0.5, MaxDepth: 64, MinTagSimilarity: 0.5,
	}
}

// Triple is the paper's (p, m, c) evaluation of plus, minus and common
// components.
type Triple struct {
	Plus   float64
	Minus  float64
	Common float64
}

// Add returns the componentwise sum of two triples.
func (t Triple) Add(o Triple) Triple {
	return Triple{Plus: t.Plus + o.Plus, Minus: t.Minus + o.Minus, Common: t.Common + o.Common}
}

// Scale returns the triple scaled by f in every component.
func (t Triple) Scale(f float64) Triple {
	return Triple{Plus: t.Plus * f, Minus: t.Minus * f, Common: t.Common * f}
}

// Eval applies the evaluation function E to the triple.
func (c Config) Eval(t Triple) float64 {
	num := c.CommonWeight * t.Common
	den := num + c.PlusWeight*t.Plus + c.MinusWeight*t.Minus
	if den == 0 {
		return 1 // nothing required, nothing extra: a perfect (vacuous) match
	}
	return num / den
}

// allMatchExact reports whether the all-match shortcut can reproduce the
// alignment under c (DESIGN.md §3.1): exact tag equality, positive triple
// weights, so that skipping a child or a required model part lowers the
// score, and a non-negative decay, so that every match adds a
// non-negative common mass and every skip costs at least 1.
func (c Config) allMatchExact() bool {
	return c.TagSimilarity == nil && c.CommonWeight > 0 && c.PlusWeight > 0 &&
		c.MinusWeight > 0 && c.Decay >= 0
}

// score is the linear surrogate maximized by the alignment: the evaluation
// function E is monotone (increasing in c, decreasing in p and m), and the
// triple combination is additive, so maximizing wc·c − wp·p − wm·m yields a
// deterministic, total-ordered optimum. DESIGN.md §3.1.
func (c Config) score(t Triple) float64 {
	return c.CommonWeight*t.Common - c.PlusWeight*t.Plus - c.MinusWeight*t.Minus
}

// Result reports the similarity of a document against a DTD.
type Result struct {
	// Global is the global similarity degree in [0, 1].
	Global float64
	// Local is the local similarity degree of the root element.
	Local float64
	// Triple is the global (p, m, c) evaluation at the root.
	Triple Triple
}

// Evaluator computes similarities against a fixed DTD. It memoizes
// per-declaration data (required weights, compiled alignment automata) and
// is safe for sequential reuse across many documents; create one per
// goroutine for concurrent use, or draw evaluators from a Pool, which
// shares the per-DTD tables across goroutines.
type Evaluator struct {
	cfg Config
	d   *dtd.DTD
	// tab interns element labels to the dense IDs the hot path runs on.
	// Every structure below that is ID-indexed is relative to this table.
	tab *intern.Table
	// shared holds precompiled read-only tables when the evaluator comes
	// from a Pool; nil for a standalone evaluator.
	shared *sharedTables
	// reqMemo caches the required weights of declared elements by name,
	// at most one entry per declaration; it is made on first use.
	reqMemo  map[string]float64
	autoMemo map[*dtd.Content]automaton
	// mixedMemo caches the sorted, interned label set of mixed models.
	mixedMemo map[*dtd.Content]*labelSet
	// triMemo caches global triples per (element node, model): a model may
	// reference the same name several times, and without the cache the same
	// subtree would be re-evaluated once per reference. It is scoped to a
	// single Evaluate/AlignChildren call — entries key live document nodes,
	// and a long-lived evaluator must not pin every tree it ever scored.
	triMemo map[triKey]Triple
	// simMemo caches thesaurus degrees per (document tag, DTD tag) ID pair;
	// nil until the first thesaurus lookup. Degrees are config-stable, so
	// the cache is never cleared.
	simMemo map[simKey]float64
	// allMatch enables the all-match shortcut of contentTriple and of
	// StreamEval's deferred frames (cfg.allMatchExact); run is the
	// acceptance run of allMatchAccepts. Each evaluator owns one run (a run
	// completes before the evaluator recurses).
	allMatch bool
	run      validate.Run
	// aligns counts the DP alignments run, for tests.
	aligns int
}

type triKey struct {
	n *xmltree.Node
	m *dtd.Content
}

type simKey struct {
	doc, dtd int32
}

// labelSet is the label alphabet of a mixed content model: names sorted as
// model.Labels() returns them, with ids[i] the interned ID of names[i].
type labelSet struct {
	names []string
	ids   []int32
}

// NewEvaluator returns an Evaluator for d with the given configuration,
// interning d's labels into a private symbol table. It precompiles what a
// Pool does, in the same order, so it scores exactly like a pool of d. To
// share one table across evaluators (and with recorders), use a Pool.
func NewEvaluator(d *dtd.DTD, cfg Config) *Evaluator {
	tab := intern.NewTable()
	intern.InternDTD(tab, d)
	e := newEvaluator(d, cfg, tab)
	e.precompile()
	return e
}

// newEvaluator builds a bare evaluator on an existing table; the caller is
// responsible for having interned d into tab.
func newEvaluator(d *dtd.DTD, cfg Config, tab *intern.Table) *Evaluator {
	cfg.MaxDepth = cfg.DepthCap()
	return &Evaluator{
		cfg:       cfg,
		d:         d,
		tab:       tab,
		autoMemo:  make(map[*dtd.Content]automaton),
		mixedMemo: make(map[*dtd.Content]*labelSet),
		triMemo:   make(map[triKey]Triple),
		allMatch:  cfg.allMatchExact(),
	}
}

// Table returns the symbol table the evaluator interns labels into.
func (e *Evaluator) Table() *intern.Table { return e.tab }

// docID resolves the interned ID of a document element's tag: the node's
// cached LabelID when it verifiably belongs to this evaluator's table
// (documents are stamped by the source engine at recording time), else a
// lock-free lookup. Scoring never interns: a tag the table has not seen
// resolves to intern.None, which matches no DTD label, and the source
// assigns new IDs only when it commits the document.
// dtdvet:noalloc
func (e *Evaluator) docID(n *xmltree.Node) int32 {
	if id := n.LabelID(); id > 0 && e.tab.NameIs(id, n.Name) {
		return id
	}
	return e.tab.ID(n.Name)
}

// Evaluate computes the global and local similarity of the document rooted
// at root against the DTD. A root whose tag has no declaration has
// similarity 0. This is the classification hot path: evaluator state is
// pooled and memoized precisely so that scoring allocates nothing in the
// steady state.
// dtdvet:noalloc
func (e *Evaluator) Evaluate(root *xmltree.Node) Result {
	defer clear(e.triMemo)
	if root == nil || !root.IsElement() {
		return Result{}
	}
	declName, ts := e.bestDecl(root.Name)
	if ts <= 0 {
		return Result{}
	}
	model := e.d.Elements[declName]
	// The evaluated element matches its declaration by name (or by tag
	// similarity): it is itself a common component, and its content
	// contributes one level deeper.
	t := partialMatch(ts).Add(e.globalTriple(root, model, 0).Scale(e.cfg.Decay))
	local := partialMatch(ts).Add(e.localTriple(root, model).Scale(e.cfg.Decay))
	return Result{
		Global: e.cfg.Eval(t),
		Local:  e.cfg.Eval(local),
		Triple: t,
	}
}

// GlobalSim is a convenience wrapper returning only the global degree.
// dtdvet:noalloc
func (e *Evaluator) GlobalSim(root *xmltree.Node) float64 {
	return e.Evaluate(root).Global
}

// LocalSim computes the local similarity of element n against model: how
// well the direct subelements of n meet the constraints imposed by the
// operators of the declaration, without considering declarations of the
// subelements themselves. As in Evaluate, the element itself counts as a
// common component.
// dtdvet:noalloc
func (e *Evaluator) LocalSim(n *xmltree.Node, model *dtd.Content) float64 {
	t := Triple{Common: 1}.Add(e.localTriple(n, model).Scale(e.cfg.Decay))
	return e.cfg.Eval(t)
}

// Global computes the global similarity of root against d with the default
// configuration.
func Global(root *xmltree.Node, d *dtd.DTD) float64 {
	return NewEvaluator(d, DefaultConfig()).GlobalSim(root)
}

// Local computes the local similarity of n against model with the default
// configuration.
func Local(n *xmltree.Node, model *dtd.Content) float64 {
	// The DTD is only needed for subelement declarations, which local
	// similarity does not consult.
	e := NewEvaluator(dtd.NewDTD(""), DefaultConfig())
	return e.LocalSim(n, model)
}

// globalTriple evaluates element n against its content model, recursing
// into matched subelements' declarations.
func (e *Evaluator) globalTriple(n *xmltree.Node, model *dtd.Content, depth int) Triple {
	key := triKey{n: n, m: model}
	if t, ok := e.triMemo[key]; ok {
		return t
	}
	t := e.elementTriple(n, model, depth, true)
	e.triMemo[key] = t
	return t
}

// localTriple evaluates only the direct subelements of n against model.
// dtdvet:noalloc
func (e *Evaluator) localTriple(n *xmltree.Node, model *dtd.Content) Triple {
	return e.elementTriple(n, model, 0, false)
}

func (e *Evaluator) elementTriple(n *xmltree.Node, model *dtd.Content, depth int, global bool) Triple {
	if depth >= e.cfg.MaxDepth {
		return Triple{}
	}
	switch {
	case model == nil || model.Kind == dtd.Any:
		return e.anyTriple(n, depth, global)
	case model.Kind == dtd.Empty:
		var t Triple
		for _, c := range n.Children {
			t.Plus += e.weightedSize(c)
		}
		return t
	case model.Kind == dtd.PCDATA:
		var t Triple
		if n.HasText() {
			t.Common++
		}
		for _, c := range n.Children {
			if c.Kind == xmltree.Element {
				t.Plus += e.weightedSize(c)
			}
		}
		return t
	case model.IsMixed():
		return e.mixedTriple(model, n, depth, global)
	default:
		return e.contentTriple(model, n, depth, global)
	}
}

// anyTriple handles ANY declarations: any declared element is acceptable
// content; undeclared elements count as plus.
func (e *Evaluator) anyTriple(n *xmltree.Node, depth int, global bool) Triple {
	var t Triple
	for _, c := range n.Children {
		if c.Kind != xmltree.Element {
			continue
		}
		declName, ts := e.bestDecl(c.Name)
		if ts <= 0 {
			t.Plus += e.weightedSize(c)
			continue
		}
		t = t.Add(partialMatch(ts))
		if global {
			t = t.Add(e.globalTriple(c, e.d.Elements[declName], depth+1).Scale(e.cfg.Decay))
		}
	}
	return t
}

// mixedSet returns the interned label alphabet of a mixed model, building
// and caching it on first use.
func (e *Evaluator) mixedSet(model *dtd.Content) *labelSet {
	if e.shared != nil {
		if s, ok := e.shared.mixed[model]; ok {
			return s
		}
	}
	if s, ok := e.mixedMemo[model]; ok {
		return s
	}
	names := model.Labels()
	s := &labelSet{names: names, ids: make([]int32, len(names))}
	for i, l := range names {
		s.ids[i] = e.tab.Intern(l)
	}
	e.mixedMemo[model] = s
	return s
}

func (e *Evaluator) mixedTriple(model *dtd.Content, n *xmltree.Node, depth int, global bool) Triple {
	set := e.mixedSet(model)
	var t Triple
	for _, c := range n.Children {
		if c.Kind != xmltree.Element {
			continue
		}
		cid := e.docID(c)
		bestIdx, bestSim := -1, 0.0
		for i, lid := range set.ids {
			var s float64
			if cid != intern.None && cid == lid {
				s = 1
			} else {
				s = e.tagSimID(cid, c.Name, lid, set.names[i])
			}
			if s > bestSim {
				bestIdx, bestSim = i, s
			}
		}
		if bestSim <= 0 {
			t.Plus += e.weightedSize(c)
			continue
		}
		t = t.Add(partialMatch(bestSim))
		if global {
			if decl, ok := e.d.Elements[set.names[bestIdx]]; ok {
				t = t.Add(e.globalTriple(c, decl, depth+1).Scale(e.cfg.Decay))
			}
		}
	}
	return t
}

// contentTriple aligns the children of n against an element-content model
// using the compiled automaton, taking the all-match shortcut where it
// applies.
func (e *Evaluator) contentTriple(model *dtd.Content, n *xmltree.Node, depth int, global bool) Triple {
	a := e.compiled(model)
	var textPlus float64
	for _, c := range n.Children {
		if c.Kind == xmltree.Text {
			textPlus++ // character data is not allowed in element content
		}
	}
	t, ok := e.allMatchTriple(a, n, depth, global)
	if !ok {
		t = e.align(a, n, depth, global)
	}
	t.Plus += textPlus
	return t
}

// allMatchTriple is the alignment's result when the element children of n
// spell a word of a's all-match language and every child's match delta
// is perfect (zero plus, zero minus): the sum of those deltas in document
// order. That all-match path strictly outscores every other path, and the
// sum repeats the additions the DP makes along it, so the triple is
// bit-identical to align's (DESIGN.md §3.1). ok is false when the
// shortcut does not apply; deltas computed before an imperfect child stay
// memoized for the DP.
func (e *Evaluator) allMatchTriple(a automaton, n *xmltree.Node, depth int, global bool) (t Triple, ok bool) {
	if !e.allMatch || !e.allMatchAccepts(a, n) {
		return Triple{}, false
	}
	for _, c := range n.Children {
		if c.Kind != xmltree.Element {
			continue
		}
		delta := e.matchDelta(c, c.Name, depth, global, 1)
		if delta.Plus != 0 || delta.Minus != 0 {
			return Triple{}, false
		}
		t = t.Add(delta)
	}
	return t, e.allMatchWins(t)
}

// allMatchWins reports whether the all-match sum t outscores every other
// alignment path in floating point, not only in exact arithmetic. Any
// other path skips a child (plus ≥ 1) or a required part (minus ≥ 1) and
// matches no more common mass, so it scores at most wc·c minus wp or wm.
// That subtraction must survive rounding at every prefix of the sum: it
// does when half the gap below wc·c is less than min(wp, wm), and the
// gap only widens as the sum grows. Otherwise the DP could keep another
// path at an equal score (at wc = 1e17, wp = wm = 1 it does).
func (e *Evaluator) allMatchWins(t Triple) bool {
	s := e.cfg.CommonWeight * t.Common
	return s-math.Nextafter(s, 0) < 2*math.Min(e.cfg.PlusWeight, e.cfg.MinusWeight)
}

// partialMatch is the triple of a tag match with degree ts: the matched
// fraction is common, and the unmatched remainder (1 - ts) splits evenly
// between plus (document side) and minus (DTD side), so weighted thesaurus
// matches rank strictly between a miss and an exact match.
func partialMatch(ts float64) Triple {
	return Triple{Common: ts, Plus: (1 - ts) / 2, Minus: (1 - ts) / 2}
}

// tagSim returns the match degree of a document tag against a DTD tag: 1
// for equal tags, the configured TagSimilarity for different ones (0 when
// below the floor or when no TagSimilarity is configured). It is the
// string-keyed entry point of the cold paths; the hot path compares
// interned IDs and falls through to tagSimID.
func (e *Evaluator) tagSim(docTag, dtdTag string) float64 {
	if docTag == dtdTag {
		return 1
	}
	return e.thesaurusSim(docTag, dtdTag)
}

// tagSimID is tagSim for tags whose ID comparison already ruled out
// equality: it consults the thesaurus through a per-ID-pair cache. Degrees
// for tags that escaped interning (None) are computed uncached.
func (e *Evaluator) tagSimID(docID int32, docTag string, dtdID int32, dtdTag string) float64 {
	if e.cfg.TagSimilarity == nil {
		return 0
	}
	if docID == intern.None || dtdID == intern.None {
		return e.thesaurusSim(docTag, dtdTag)
	}
	key := simKey{doc: docID, dtd: dtdID}
	if s, ok := e.simMemo[key]; ok {
		return s
	}
	s := e.thesaurusSim(docTag, dtdTag)
	if e.simMemo == nil {
		e.simMemo = make(map[simKey]float64)
	}
	e.simMemo[key] = s
	return s
}

// thesaurusSim applies the configured TagSimilarity with the floor and
// clamp of the measure; the tags are known to differ.
func (e *Evaluator) thesaurusSim(docTag, dtdTag string) float64 {
	if e.cfg.TagSimilarity == nil {
		return 0
	}
	s := e.cfg.TagSimilarity(docTag, dtdTag)
	if s < e.cfg.MinTagSimilarity || s <= 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// bestDecl finds the declaration best matching a document tag: the tag's
// own declaration when present, otherwise the declared element with the
// highest tag similarity (ties broken toward the lexicographically
// smallest name, so the result is independent of map iteration order).
func (e *Evaluator) bestDecl(tag string) (string, float64) {
	if _, ok := e.d.Elements[tag]; ok {
		return tag, 1
	}
	if e.cfg.TagSimilarity == nil {
		return "", 0
	}
	bestName, bestSim := "", 0.0
	for name := range e.d.Elements {
		if s := e.tagSim(tag, name); s > bestSim || (s == bestSim && s > 0 && name < bestName) {
			bestName, bestSim = name, s
		}
	}
	return bestName, bestSim
}

// matchDelta is the triple contributed by matching document element c
// against the declaration of the element named name with tag-match degree
// ts.
func (e *Evaluator) matchDelta(c *xmltree.Node, name string, depth int, global bool, ts float64) Triple {
	t := partialMatch(ts)
	if !global {
		return t
	}
	decl, ok := e.d.Elements[name]
	if !ok {
		// The model references an element the DTD never declares; there is
		// no constraint to compare the subtree against.
		return t
	}
	return t.Add(e.globalTriple(c, decl, depth+1).Scale(e.cfg.Decay))
}

// weightedSize is the plus cost of an entirely unmatched subtree: 1 for the
// node itself plus decayed contributions of its children.
func (e *Evaluator) weightedSize(n *xmltree.Node) float64 {
	size := 1.0
	var sub float64
	for _, c := range n.Children {
		sub += e.weightedSize(c)
	}
	return size + e.cfg.Decay*sub
}

// precompile memoizes the required weight, alignment automaton or mixed
// label set of every declaration, in declaration order rather than map
// order: on a cycle of required elements the weights depend on where the
// computation enters the cycle, so every evaluator of the same DTD must
// enter it alike.
func (e *Evaluator) precompile() {
	for _, name := range e.d.Declared() {
		model := e.d.Elements[name]
		e.requiredWeight(name)
		if isElementContent(model) {
			e.compiled(model)
		} else if model != nil && model.IsMixed() {
			e.mixedSet(model)
		}
	}
}

// requiredWeight is the minus cost of skipping a mandatory reference to the
// element called name: 1 for the element itself plus the decayed required
// weight of its own declaration. Cycles in the DTD contribute once: while
// an element's weight is computed its memo entry holds 1, the cost a
// reference back to it charges. The weight memoized for an element on a
// cycle therefore depends on where the computation entered the cycle,
// which is why evaluators precompile in declaration order.
func (e *Evaluator) requiredWeight(name string) float64 {
	if e.shared != nil {
		if w, ok := e.shared.req[name]; ok {
			return w
		}
	}
	if w, ok := e.reqMemo[name]; ok {
		return w
	}
	decl, ok := e.d.Elements[name]
	if !ok {
		return 1
	}
	if e.reqMemo == nil {
		e.reqMemo = make(map[string]float64, len(e.d.Elements))
	}
	e.reqMemo[name] = 1
	w := 1 + e.cfg.Decay*e.requiredModelWeight(decl)
	e.reqMemo[name] = w
	return w
}

// requiredModelWeight is the minimal mandatory weight of a content model:
// the minus cost of providing none of its content. A nil model requires
// nothing, whether read as ANY or as EMPTY.
func (e *Evaluator) requiredModelWeight(c *dtd.Content) float64 {
	if c == nil {
		return 0
	}
	switch c.Kind {
	case dtd.Name:
		return e.requiredWeight(c.Name)
	case dtd.Opt, dtd.Star, dtd.Empty, dtd.Any, dtd.PCDATA:
		return 0
	case dtd.Plus:
		return e.requiredModelWeight(c.Children[0])
	case dtd.Seq:
		var sum float64
		for _, ch := range c.Children {
			sum += e.requiredModelWeight(ch)
		}
		return sum
	case dtd.Choice:
		best := -1.0
		for _, ch := range c.Children {
			w := e.requiredModelWeight(ch)
			if best < 0 || w < best {
				best = w
			}
		}
		if best < 0 {
			return 0
		}
		return best
	default:
		return 0
	}
}
