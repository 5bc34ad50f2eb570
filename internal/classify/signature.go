// Structural signatures for candidate pruning (DESIGN.md §12).
//
// Classification at registry scale cannot afford one DP alignment per
// registered DTD per document. Both sides get a cheap structural summary
// over interned label IDs:
//
//   - a dtdSig is computed once per DTD at Set time: the root gate, the
//     label alphabet, the declared elements, the (parent, child) pairs the
//     content models admit, and a reachability depth — plus the
//     similarity.Bound constants. Every set is a sorted ID slice sized by
//     the DTD, never by the symbol table;
//   - a docSig is extracted in one pass over the document tree: per-label
//     and per-(parent,child)-pair decayed weights, a per-level weight
//     profile, and the text bonus.
//
// Together they yield a conservative upper bound on the global similarity
// the document can score against the DTD: the common components c are
// capped by the document weight carried on labels the DTD knows (refined
// by pair and depth eligibility), and — when every referenced label is
// declared — the plus components p are at least the weight the DTD cannot
// match. Feeding both into Bound.Max gives the skip test of the exact
// mode; see DESIGN.md §12 for the soundness argument.
package classify

import (
	"slices"
	"strings"

	"dtdevolve/internal/dtd"
	"dtdevolve/internal/intern"
	"dtdevolve/internal/similarity"
	"dtdevolve/internal/xmltree"
)

// slotHead is what candidate discovery reads for every DTD a document's
// labels touch: the name for tie-breaks, the root gate and the inputs of
// the flat bound. The classifier keeps one per slot in a dense array, so a
// DTD the gate or the flat bound rejects is never dereferenced.
type slotHead struct {
	name string
	// gate is the declared root's label ID: a document must be rooted
	// there. 0 marks a DTD without a declared root, whose declared set
	// decides instead; -1 a root the DTD does not declare, which no
	// document can match.
	gate  int32
	bound similarity.Bound
	// refsUndeclared is set when some content model references a label the
	// DTD never declares. The aligner matches such an element without
	// recursing, so its subtree contributes neither common nor plus weight
	// and the plus lower bound must collapse to 0.
	refsUndeclared bool
}

// dtdSig is the structural signature of one registered DTD, built outside
// the classifier lock at Set time. All fields are immutable afterwards.
type dtdSig struct {
	slotHead
	d    *dtd.DTD
	pool *similarity.Pool

	// labels is the sorted distinct alphabet (declared element names plus
	// every label referenced by a content model) — the posting keys.
	labels []int32
	// declared holds the declared element IDs, sorted; a document can only
	// score non-zero when its root tag is in here (exact matching).
	declared []int32
	// pairs holds parent<<32|child for every child label a declared
	// element's content model admits, sorted — the docSig.pairs encoding.
	// anyParents holds the sorted IDs of the declared elements whose model
	// is ANY (or missing): they admit every declared child, which pairs
	// does not spell out.
	pairs      []uint64
	anyParents []int32
	// reach is the deepest document level at which a common component can
	// occur: matched nodes form child-alphabet chains from the declared
	// root.
	reach int
}

// pairKey encodes a (parent, child) label pair; keys sort by parent, then
// child.
func pairKey(parent, child int32) uint64 {
	return uint64(uint32(parent))<<32 | uint64(uint32(child))
}

// buildSig computes the signature of d under the pool's configuration.
// The pool has already interned every label of d, so the snapshot resolves
// them all.
func buildSig(name string, d *dtd.DTD, pool *similarity.Pool) *dtdSig {
	g := &dtdSig{slotHead: slotHead{name: name, bound: pool.Bound()}, d: d, pool: pool}
	v := pool.Table().View()
	g.declared = make([]int32, 0, len(d.Elements))
	g.labels = make([]int32, 0, 2*len(d.Elements))
	for el, model := range d.Elements {
		id := v.ID(el)
		if id > 0 {
			g.declared = append(g.declared, id)
			g.labels = append(g.labels, id)
		}
		if model == nil || model.Kind == dtd.Any {
			if id > 0 {
				g.anyParents = append(g.anyParents, id)
			}
			continue
		}
		for _, k := range model.Labels() {
			if kid := v.ID(k); kid > 0 {
				g.labels = append(g.labels, kid)
				if id > 0 {
					g.pairs = append(g.pairs, pairKey(id, kid))
				}
			}
			if _, ok := d.Elements[k]; !ok {
				g.refsUndeclared = true
			}
		}
	}
	slices.Sort(g.declared)
	slices.Sort(g.labels)
	g.labels = slices.Clip(slices.Compact(g.labels))
	slices.Sort(g.pairs)
	slices.Sort(g.anyParents)
	if d.Name != "" {
		g.gate = -1
		if id := v.ID(d.Name); g.declares(id) {
			g.gate = id
		}
	}
	g.reach = computeReach(d, g.bound.DepthCap())
	return g
}

// declares reports whether id is a declared element of the DTD.
func (g *dtdSig) declares(id int32) bool {
	_, ok := slices.BinarySearch(g.declared, id)
	return ok
}

// computeReach bounds the deepest document level at which a common
// component can occur against d: matched document nodes form a connected
// tree whose labels follow child-alphabet edges from the declared root, so
// no level beyond the longest such chain (capped at the recursion cap) can
// hold a match. A DTD without a declared root matches any declared element
// at level 0, so only the cap applies.
func computeReach(d *dtd.DTD, depthCap int) int {
	if d.Name == "" {
		return depthCap
	}
	if _, ok := d.Elements[d.Name]; !ok {
		return 0 // undeclared root: only the root itself could ever match
	}
	frontier := map[string]bool{d.Name: true}
	reach := 0
	for level := 0; level < depthCap; level++ {
		next := make(map[string]bool)
		for el := range frontier {
			model, ok := d.Elements[el]
			if !ok {
				continue // undeclared reference: a leaf of the chain graph
			}
			if model == nil || model.Kind == dtd.Any {
				for name := range d.Elements {
					next[name] = true
				}
			} else {
				for _, k := range model.Labels() {
					next[k] = true
				}
			}
		}
		if len(next) == 0 {
			break
		}
		reach = level + 1
		if sameNameSet(frontier, next) {
			return depthCap // a cycle sustains itself to the cap
		}
		frontier = next
	}
	return reach
}

func sameNameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// docSig is the structural signature of one document, extracted in a
// single tree pass over cached label IDs. Weights mirror the measure's
// level accounting: a node at level ℓ carries decay^ℓ, and levels beyond
// the recursion cap (which the aligner never charges as common) are not
// walked.
type docSig struct {
	rootID int32
	// labels / labelW: distinct interned element labels and the total
	// weight carried on each (sorted by ID, so accumulation over postings
	// is deterministic).
	labels []int32
	labelW []float64
	// pairs / pairW: distinct (parentID<<32 | ownID) label pairs of
	// non-root elements whose tags are both interned, with total weight.
	pairs []uint64
	pairW []float64
	// levels[ℓ] is the total element weight at level ℓ; total is their sum
	// — the weight the aligner charges as plus for a fully unmatched
	// document (restricted to walked levels, which only understates it).
	levels []float64
	total  float64
	// textBonus caps the common weight attainable from character data:
	// decay^(ℓ+1) for every element at level ℓ < cap with non-blank text.
	textBonus float64
}

// sigBuf is extractSig's storage, reused across documents: the signature
// it fills, the decay powers and the per-label and per-pair weight maps.
// A reused extraction allocates nothing once the buffers have grown to the
// documents' sizes.
type sigBuf struct {
	sig docSig
	pow []float64
	lw  map[int32]float64
	pw  map[uint64]float64
	// v and depthCap hold the running extraction's parameters for walk.
	v        intern.View
	depthCap int
}

// sigID resolves a node's interned tag ID from the snapshot, trusting the
// stamped LabelID only when it verifiably belongs to this table. Unknown
// tags stay None — signature extraction never extends the table.
func sigID(n *xmltree.Node, v intern.View) int32 {
	if id := n.LabelID(); id > 0 && v.NameIs(id, n.Name) {
		return id
	}
	return v.ID(n.Name)
}

// extractSig computes the signature of the subtree rooted at root against
// the label alphabet in v, with the given decay and recursion cap. The
// result lives in b and is valid until b's next extraction.
func (b *sigBuf) extractSig(root *xmltree.Node, v intern.View, decay float64, depthCap int) *docSig {
	s := &b.sig
	s.rootID, s.total, s.textBonus = intern.None, 0, 0
	s.levels = resize(s.levels, depthCap+1)
	clear(s.levels)
	s.labels, s.labelW = s.labels[:0], s.labelW[:0]
	s.pairs, s.pairW = s.pairs[:0], s.pairW[:0]
	if root == nil || !root.IsElement() {
		return s
	}
	s.rootID = sigID(root, v)
	b.pow = resize(b.pow, depthCap+2)
	p := 1.0
	for i := range b.pow {
		b.pow[i] = p
		p *= decay
	}
	if b.lw == nil {
		b.lw = make(map[int32]float64)
		b.pw = make(map[uint64]float64)
	}
	clear(b.lw)
	clear(b.pw)
	b.v, b.depthCap = v, depthCap
	b.walk(root, intern.None, 0)
	b.v = intern.View{}
	for id := range b.lw {
		s.labels = append(s.labels, id)
	}
	slices.Sort(s.labels)
	for _, id := range s.labels {
		s.labelW = append(s.labelW, b.lw[id])
	}
	for k := range b.pw {
		s.pairs = append(s.pairs, k)
	}
	slices.Sort(s.pairs)
	for _, k := range s.pairs {
		s.pairW = append(s.pairW, b.pw[k])
	}
	return s
}

// walk accumulates the element n at level under the given parent label.
func (b *sigBuf) walk(n *xmltree.Node, parent int32, level int) {
	s := &b.sig
	id := sigID(n, b.v)
	w := b.pow[level]
	s.levels[level] += w
	s.total += w
	if id != intern.None {
		b.lw[id] += w
		if level > 0 && parent != intern.None {
			b.pw[pairKey(parent, id)] += w
		}
	}
	if level >= b.depthCap {
		return // deeper levels can never be common components
	}
	hasText := false
	for _, c := range n.Children {
		switch c.Kind {
		case xmltree.Element:
			b.walk(c, id, level+1)
		case xmltree.Text:
			if !hasText && strings.TrimSpace(c.Data) != "" {
				hasText = true
			}
		}
	}
	if hasText {
		s.textBonus += b.pow[level+1]
	}
}

// resize returns s with length n, reusing its array when it is large
// enough; the contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// pminFor is the plus lower bound given an upper bound cnodes on the
// element-common weight: everything the DTD cannot match is charged as
// plus — unless some model references an undeclared label, in which case
// matched-but-unrecursed subtrees can evade both sides and nothing can be
// promised.
func (h *slotHead) pminFor(s *docSig, cnodes float64) float64 {
	if h.refsUndeclared {
		return 0
	}
	p := s.total - cnodes
	if p < 0 {
		p = 0
	}
	return p
}

// ubFlat is the discovery-stage upper bound: acc is the total document
// weight on labels in the DTD's alphabet, accumulated from the inverted
// index. Every matched element's label is in the alphabet, so the
// element-common weight is at most acc; character data adds at most the
// text bonus.
func (h *slotHead) ubFlat(s *docSig, acc float64) float64 {
	return h.bound.Max(acc+s.textBonus, h.pminFor(s, acc))
}

// ubRefined tightens the element-common cap with two more signature
// facts before paying for an alignment:
//
//   - every matched non-root element sits under a matched parent, so its
//     (parent, child) label pair must be admitted by the parent's content
//     model — the root contributes its own weight 1;
//   - every matched element sits at a level reachable from the declared
//     root, so weight beyond the reach prefix cannot be common.
//
// Both are upper bounds on the same quantity; the minimum (with acc)
// applies. The pair cap merge-joins the document's sorted pairs with the
// DTD's, adding the admitted weights in the document's pair order.
func (g *dtdSig) ubRefined(s *docSig, acc float64) float64 {
	pairSum := 1.0
	j, k := 0, 0
	for i, key := range s.pairs {
		for j < len(g.pairs) && g.pairs[j] < key {
			j++
		}
		if j < len(g.pairs) && g.pairs[j] == key {
			pairSum += s.pairW[i]
			continue
		}
		parent := int32(key >> 32)
		for k < len(g.anyParents) && g.anyParents[k] < parent {
			k++
		}
		if k < len(g.anyParents) && g.anyParents[k] == parent && g.declares(int32(uint32(key))) {
			pairSum += s.pairW[i]
		}
	}
	prefix := 0.0
	for l := 0; l <= g.reach && l < len(s.levels); l++ {
		prefix += s.levels[l]
	}
	cnodes := acc
	if pairSum < cnodes {
		cnodes = pairSum
	}
	if prefix < cnodes {
		cnodes = prefix
	}
	return g.bound.Max(cnodes+s.textBonus, g.pminFor(s, cnodes))
}
