package evolve

import (
	"sort"

	"dtdevolve/internal/dtd"
	"dtdevolve/internal/mine"
	"dtdevolve/internal/record"
)

// ExtractStructure determines a new content model for an element from its
// recorded statistics: the paper's §4.2 algorithm. The steps are:
//
//  1. augment the recorded sequences with absent elements;
//  2. keep the most frequent sequences (support > µ; the others are not
//     representative and are discarded);
//  3. extract maximal-confidence association rules from them;
//  4. apply the 13 heuristic policies (plus the 3 basic-case policies) to
//     the working set C of trees until C is a singleton.
//
// Elements whose instances carry character data yield (#PCDATA) or a mixed
// declaration — DTDs cannot constrain order inside mixed content, so any
// element structure collapses to (#PCDATA | l1 | ... | ln)* in that case.
//
// The appendix defining the policies is truncated in the available paper
// text; DESIGN.md §3.2 documents the reconstruction implemented here.
func ExtractStructure(stats *record.ElementStats, cfg Config) *dtd.Content {
	labels := stats.LabelSet()
	switch {
	case stats.TextInstances > 0:
		return mixed(labels)
	case len(labels) == 0:
		return dtd.NewEmpty()
	}
	eng := newEngine(stats, cfg)
	return dtd.Rewrite(eng.run())
}

// mixed returns the mixed-content declaration over labels: (#PCDATA), or
// (#PCDATA | l1 | ... | ln)* in the order given.
func mixed(labels []string) *dtd.Content {
	if len(labels) == 0 {
		return dtd.NewPCDATA()
	}
	kids := []*dtd.Content{dtd.NewPCDATA()}
	for _, l := range labels {
		kids = append(kids, dtd.NewName(l))
	}
	return dtd.NewStar(dtd.NewChoice(kids...))
}

// workTree is one member of the paper's working set C: a content-model tree
// plus the element labels it covers and its ordering position.
type workTree struct {
	c      *dtd.Content
	labels []string
	pos    float64
}

func (w *workTree) isElement() bool { return w.c.Kind == dtd.Name }
func (w *workTree) kind() dtd.Kind  { return w.c.Kind }

type engine struct {
	stats *record.ElementStats
	cfg   Config
	rules *mine.RuleSet
	// txs are the kept (most frequent), absent-augmented transactions used
	// for rule queries; allTxs is the unfiltered set used for presence and
	// optionality evidence (an element spread across many rare shapes is
	// still present).
	txs    []mine.Transaction
	allTxs []mine.Transaction
	total  int
	C      []*workTree
}

func newEngine(stats *record.ElementStats, cfg Config) *engine {
	universe := stats.LabelSet()
	aug := stats.Transactions()
	if !cfg.DisableAbsentAugmentation {
		aug = mine.AugmentAll(aug, universe)
	}

	// Step 2: most frequent sequences. With absent-element augmentation
	// every transaction carries the full item universe, so containment
	// support equals exact-match frequency.
	total := 0
	for _, tx := range aug {
		total += tx.Count
	}
	var kept []mine.Transaction
	for _, tx := range aug {
		if total > 0 && float64(tx.Count)/float64(total)+1e-12 >= cfg.MinSupport {
			kept = append(kept, tx)
		}
	}
	if len(kept) == 0 {
		// Nothing is frequent at this µ: fall back to the full set rather
		// than producing an empty declaration.
		kept = aug
	}
	e := &engine{
		stats:  stats,
		cfg:    cfg,
		rules:  mine.NewRuleSet(kept, cfg.MinSupport, cfg.MinConfidence),
		txs:    kept,
		allTxs: aug,
	}
	for _, tx := range aug {
		e.total += tx.Count
	}
	// The working set starts with one element tree per label whose
	// *presence* is frequent, ordered by mean first position. Presence is
	// measured over the full sequence set: an element spread across many
	// individually-rare shapes (optional-combination diversity) must not
	// vanish just because no single sequence passes µ — only labels that
	// are rare overall are noise.
	presence := make(map[string]int)
	for _, tx := range aug {
		for _, it := range tx.Items {
			if !mine.IsAbsent(it) {
				presence[it] += tx.Count
			}
		}
	}
	for _, l := range universe {
		if total > 0 && float64(presence[l])/float64(total)+1e-12 >= cfg.MinSupport {
			e.C = append(e.C, &workTree{
				c:      dtd.NewName(l),
				labels: []string{l},
				pos:    stats.MeanFirstPosition(l),
			})
		}
	}
	if len(e.C) == 0 {
		// Everything is rare: fall back to the full label set.
		for _, l := range universe {
			e.C = append(e.C, &workTree{
				c:      dtd.NewName(l),
				labels: []string{l},
				pos:    stats.MeanFirstPosition(l),
			})
		}
	}
	e.sortByPos()
	return e
}

func (e *engine) sortByPos() {
	sort.SliceStable(e.C, func(i, j int) bool { return e.C[i].pos < e.C[j].pos })
}

// run applies the policies in order, each exhaustively, until the working
// set is a singleton (Policy 13 guarantees termination).
func (e *engine) run() *dtd.Content {
	if len(e.C) == 0 {
		return dtd.NewEmpty()
	}
	if len(e.C) == 1 {
		// Basic-case policies: C is already a singleton.
		return e.basicWrap(e.C[0]).c
	}
	policies := []func() bool{
		e.p1, e.p2, e.p3, e.p4, e.p5, e.p6, e.p7, e.p8, e.p9, e.p10, e.p11, e.p12,
	}
	for _, p := range policies {
		for p() {
		}
		if len(e.C) == 1 {
			return e.C[0].c
		}
	}
	e.p13()
	return e.C[0].c
}

// --- predicates over the kept transactions and recorded statistics ---

// presentInAll reports whether the label is effectively mandatory: its
// absences stay below the noise threshold µ. Judging over the full sequence
// set (not just the µ-kept shapes) matters when absence is spread across
// many individually-rare shapes; requiring the absent mass itself to reach
// µ keeps a single outlier from loosening the declaration.
func (e *engine) presentInAll(label string) bool {
	return !e.setOptional([]string{label})
}

// setOptional reports whether a significant fraction (≥ µ) of the recorded
// sequences contains none of the labels: the subtree covering them may
// legitimately be absent.
func (e *engine) setOptional(labels []string) bool {
	if e.total == 0 {
		return false
	}
	absent := 0
	for _, tx := range e.allTxs {
		found := false
		for _, l := range labels {
			if containsItem(tx.Items, l) {
				found = true
				break
			}
		}
		if !found {
			absent += tx.Count
		}
	}
	return float64(absent)/float64(e.total)+1e-12 >= e.cfg.MinSupport
}

func containsItem(sorted []string, item string) bool {
	i := sort.SearchStrings(sorted, item)
	return i < len(sorted) && sorted[i] == item
}

func (e *engine) everRepeated(label string) bool { return e.stats.EverRepeated(label) }

// exclusive reports pairwise exclusion of two label sets: every cross pair
// never co-occurs (the clique-composable form of the paper's principle P2;
// the exhaustiveness direction is recovered by the optionality wrap).
func (e *engine) exclusive(a, b []string) bool {
	for _, x := range a {
		for _, y := range b {
			if !e.rules.NeverCoOccur(x, y) {
				return false
			}
		}
	}
	return len(a) > 0 && len(b) > 0
}

// presenceCount returns the weighted number of recorded sequences
// containing the label, used to order OR alternatives by dominance.
func (e *engine) presenceCount(label string) int {
	n := 0
	for _, tx := range e.allTxs {
		if containsItem(tx.Items, label) {
			n += tx.Count
		}
	}
	return n
}

// byDominance orders trees by descending presence of their labels (the
// dominant alternative first), breaking ties by document position.
func (e *engine) byDominance(parts []*workTree) []*workTree {
	count := func(t *workTree) int {
		n := 0
		for _, l := range t.labels {
			n += e.presenceCount(l)
		}
		return n
	}
	out := append([]*workTree(nil), parts...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			ci, cj := count(out[j]), count(out[j-1])
			if ci > cj || (ci == cj && out[j].pos < out[j-1].pos) {
				out[j], out[j-1] = out[j-1], out[j]
			} else {
				break
			}
		}
	}
	return out
}

// mutualPresence reports pairwise mutual implication between two label
// sets: every element of one implies every element of the other and vice
// versa (the paper's principle P1 across trees).
func (e *engine) mutualPresence(a, b []string) bool {
	return e.rules.Holds(a, b) && e.rules.Holds(b, a)
}

// --- working-set editing helpers ---

// replace removes the trees at the given indices and inserts nw, keeping C
// ordered by position.
func (e *engine) replace(indices []int, nw *workTree) {
	remove := make(map[int]bool, len(indices))
	for _, i := range indices {
		remove[i] = true
	}
	var next []*workTree
	for i, t := range e.C {
		if !remove[i] {
			next = append(next, t)
		}
	}
	e.C = append(next, nw)
	e.sortByPos()
}

// merged builds the workTree covering the union of the given trees.
func (e *engine) merged(c *dtd.Content, parts ...*workTree) *workTree {
	labelSet := make(map[string]bool)
	pos := 1e18
	for _, p := range parts {
		for _, l := range p.labels {
			labelSet[l] = true
		}
		if p.pos < pos {
			pos = p.pos
		}
	}
	labels := make([]string, 0, len(labelSet))
	for l := range labelSet { // dtdvet:allow replaydet -- keys sorted on the next line
		labels = append(labels, l)
	}
	sort.Strings(labels)
	return &workTree{c: c, labels: labels, pos: pos}
}

// byPos returns copies of the trees sorted by position.
func byPos(parts []*workTree) []*workTree {
	out := append([]*workTree(nil), parts...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
}

func contents(parts []*workTree) []*dtd.Content {
	out := make([]*dtd.Content, len(parts))
	for i, p := range parts {
		out[i] = p.c
	}
	return out
}

// wrapRepetition wraps an element tree entering an OR or AND group with +
// when it was observed repeated.
func (e *engine) wrapRepetition(t *workTree) *dtd.Content {
	if t.isElement() && e.everRepeated(t.labels[0]) {
		return dtd.NewPlus(t.c)
	}
	return t.c
}

// basicWrap implements the three basic-case policies: a singleton tree is
// wrapped in ?, + or * according to its optionality and repeatability.
func (e *engine) basicWrap(t *workTree) *workTree {
	optional := e.setOptional(t.labels) && !t.c.Nullable()
	repeatable := t.isElement() && e.everRepeated(t.labels[0])
	var c *dtd.Content
	switch {
	case optional && repeatable:
		c = dtd.NewStar(t.c)
	case repeatable:
		c = dtd.NewPlus(t.c)
	case optional:
		c = dtd.NewOpt(t.c)
	default:
		return t
	}
	return &workTree{c: c, labels: t.labels, pos: t.pos}
}

// --- the thirteen policies (DESIGN.md §3.2) ---

// p1 — Extraction of an AND-binding (paper Appendix, Policy 1). A maximal
// set of element trees whose members mutually imply each other is bound by
// AND; repetition counts and recorded groups select among the three
// sub-cases (plain AND, * around the AND, or a mix of +-wrapped groups).
func (e *engine) p1() bool {
	elems := e.elementTrees()
	if len(elems) < 2 {
		return false
	}
	// Mutual implication at confidence 1 is transitive: compute classes
	// with a union-find over the pairwise relation.
	parent := make(map[string]string)
	var find func(string) string
	find = func(x string) string {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, i := range elems {
		parent[e.C[i].labels[0]] = e.C[i].labels[0]
	}
	for a := 0; a < len(elems); a++ {
		for b := a + 1; b < len(elems); b++ {
			x, y := e.C[elems[a]].labels[0], e.C[elems[b]].labels[0]
			if e.rules.MutualPresence([]string{x, y}) {
				parent[find(x)] = find(y)
			}
		}
	}
	classes := make(map[string][]int)
	for _, i := range elems {
		l := e.C[i].labels[0]
		classes[find(l)] = append(classes[find(l)], i)
	}
	// Visit the classes in elems order, the e.C order every other policy
	// scans: which class merges first decides the evolved declaration.
	for _, i := range elems {
		indices := classes[find(e.C[i].labels[0])]
		if indices[0] != i || len(indices) < 2 {
			continue
		}
		var class []string
		var parts []*workTree
		for _, i := range indices {
			class = append(class, e.C[i].labels[0])
			parts = append(parts, e.C[i])
		}
		sort.Strings(class)
		if !e.rules.MutualPresence(class) {
			continue
		}
		nw := e.merged(e.andBinding(class, byPos(parts)), parts...)
		e.replace(indices, nw)
		return true
	}
	return false
}

// andBinding builds the Policy-1 result tree for a mutually-implied class.
func (e *engine) andBinding(class []string, parts []*workTree) *dtd.Content {
	anyRepeated := false
	for _, l := range class {
		if e.everRepeated(l) {
			anyRepeated = true
			break
		}
	}
	if !anyRepeated {
		// Sub-case 1: every member occurs exactly once.
		return dtd.NewSeq(contents(parts)...)
	}
	if g, ok := e.stats.Groups[mine.Key(class)]; ok && e.groupReliable(g) && e.allRepeated(class) {
		// Sub-case 2: the whole class repeats together as a group.
		return dtd.NewStar(dtd.NewSeq(contents(parts)...))
	}
	// Sub-case 3: disjoint recorded groups inside the class become
	// +-wrapped AND groups; leftovers are +-wrapped when repeated.
	groups := e.disjointGroups(class)
	inGroup := make(map[string]bool)
	for _, g := range groups {
		for _, l := range g {
			inGroup[l] = true
		}
	}
	type piece struct {
		c   *dtd.Content
		pos float64
	}
	var pieces []piece
	for _, g := range groups {
		var members []*dtd.Content
		pos := 1e18
		for _, p := range byPos(parts) {
			if containsItem(g, p.labels[0]) {
				members = append(members, p.c)
				if p.pos < pos {
					pos = p.pos
				}
			}
		}
		pieces = append(pieces, piece{c: dtd.NewPlus(dtd.NewSeq(members...)), pos: pos})
	}
	for _, p := range parts {
		l := p.labels[0]
		if inGroup[l] {
			continue
		}
		c := p.c
		if e.everRepeated(l) {
			c = dtd.NewPlus(c)
		}
		pieces = append(pieces, piece{c: c, pos: p.pos})
	}
	sort.SliceStable(pieces, func(i, j int) bool { return pieces[i].pos < pieces[j].pos })
	kids := make([]*dtd.Content, len(pieces))
	for i, p := range pieces {
		kids[i] = p.c
	}
	return dtd.NewSeq(kids...)
}

func (e *engine) allRepeated(class []string) bool {
	for _, l := range class {
		if !e.everRepeated(l) {
			return false
		}
	}
	return true
}

// groupReliable reports whether a recorded repetition group reflects the
// dominant behaviour of its members: the group must cover at least half of
// the instances in which its most-repeated member repeats. Without the
// floor, a group seen in a couple of instances would force the (x, y)*
// sub-case on a population whose dominant pattern is x+ y+.
func (e *engine) groupReliable(g *record.GroupStats) bool {
	maxRep := 0
	for _, l := range g.Tags {
		if rc := e.stats.RepeatCount[l]; rc > maxRep {
			maxRep = rc
		}
	}
	return maxRep > 0 && g.Count*2 >= maxRep
}

// disjointGroups selects recorded groups fully inside the class, greedily
// by descending counter, skipping overlaps.
func (e *engine) disjointGroups(class []string) [][]string {
	var candidates []*record.GroupStats
	for _, g := range e.stats.Groups {
		if !e.groupReliable(g) {
			continue
		}
		inside := true
		for _, l := range g.Tags {
			if !containsItem(class, l) {
				inside = false
				break
			}
		}
		if inside {
			candidates = append(candidates, g)
		}
	}
	sort.Slice(candidates, func(i, j int) bool {
		if candidates[i].Count != candidates[j].Count {
			return candidates[i].Count > candidates[j].Count
		}
		return mine.Key(candidates[i].Tags) < mine.Key(candidates[j].Tags)
	})
	used := make(map[string]bool)
	var out [][]string
	for _, g := range candidates {
		overlap := false
		for _, l := range g.Tags {
			if used[l] {
				overlap = true
				break
			}
		}
		if overlap {
			continue
		}
		for _, l := range g.Tags {
			used[l] = true
		}
		out = append(out, g.Tags)
	}
	return out
}

func (e *engine) elementTrees() []int {
	var out []int
	for i, t := range e.C {
		if t.isElement() {
			out = append(out, i)
		}
	}
	return out
}

func (e *engine) treesOfKind(k dtd.Kind) []int {
	var out []int
	for i, t := range e.C {
		if t.kind() == k {
			out = append(out, i)
		}
	}
	return out
}

// p2 — AND-binding between an element tree and a *-labeled tree (paper
// Appendix, Policy 2): when the labels of the *-tree imply the element, the
// two are bound in a sequence.
func (e *engine) p2() bool {
	for _, si := range e.treesOfKind(dtd.Star) {
		for _, xi := range e.elementTrees() {
			star, x := e.C[si], e.C[xi]
			if !e.rules.ImpliesPresence(star.labels, x.labels[0]) {
				continue
			}
			parts := byPos([]*workTree{star, x})
			nw := e.merged(dtd.NewSeq(contents(parts)...), star, x)
			e.replace([]int{si, xi}, nw)
			return true
		}
	}
	return false
}

// p3 — AND-binding between an element tree and an AND-labeled tree (paper
// Appendix, Policy 3; reconstructed): when the element and the AND tree's
// labels mutually imply each other, the element joins the sequence at its
// document-order position.
func (e *engine) p3() bool {
	for _, ai := range e.treesOfKind(dtd.Seq) {
		for _, xi := range e.elementTrees() {
			and, x := e.C[ai], e.C[xi]
			if !e.mutualPresence(x.labels, and.labels) {
				continue
			}
			kids := e.insertByPos(and.c.Children, e.wrapRepetition(x), x.pos)
			nw := e.merged(dtd.NewSeq(kids...), and, x)
			e.replace([]int{ai, xi}, nw)
			return true
		}
	}
	return false
}

// insertByPos inserts c among kids according to its position, comparing
// against the mean first position of each sibling's first label.
func (e *engine) insertByPos(kids []*dtd.Content, c *dtd.Content, pos float64) []*dtd.Content {
	out := make([]*dtd.Content, 0, len(kids)+1)
	inserted := false
	for _, k := range kids {
		if !inserted && pos < e.contentPos(k) {
			out = append(out, c)
			inserted = true
		}
		out = append(out, k)
	}
	if !inserted {
		out = append(out, c)
	}
	return out
}

func (e *engine) contentPos(c *dtd.Content) float64 {
	pos := 1e18
	for _, l := range c.Labels() {
		if p := e.stats.MeanFirstPosition(l); p < pos {
			pos = p
		}
	}
	return pos
}

// p4 — OR-binding between two element trees (exercised as "policy 4" in
// paper Example 5): mutually exclusive elements become alternatives.
func (e *engine) p4() bool {
	elems := e.elementTrees()
	for a := 0; a < len(elems); a++ {
		for b := a + 1; b < len(elems); b++ {
			x, y := e.C[elems[a]], e.C[elems[b]]
			if !e.rules.NeverCoOccur(x.labels[0], y.labels[0]) {
				continue
			}
			parts := e.byDominance([]*workTree{x, y})
			kids := []*dtd.Content{e.wrapRepetition(parts[0]), e.wrapRepetition(parts[1])}
			nw := e.merged(dtd.NewChoice(kids...), x, y)
			e.replace([]int{elems[a], elems[b]}, nw)
			return true
		}
	}
	return false
}

// p5 — OR-binding among a maximal set of three or more pairwise exclusive
// element trees.
func (e *engine) p5() bool {
	elems := e.elementTrees()
	for a := 0; a < len(elems); a++ {
		clique := []int{elems[a]}
		for b := a + 1; b < len(elems); b++ {
			ok := true
			for _, ci := range clique {
				if !e.rules.NeverCoOccur(e.C[ci].labels[0], e.C[elems[b]].labels[0]) {
					ok = false
					break
				}
			}
			if ok {
				clique = append(clique, elems[b])
			}
		}
		if len(clique) < 3 {
			continue
		}
		var parts []*workTree
		for _, i := range clique {
			parts = append(parts, e.C[i])
		}
		ordered := e.byDominance(parts)
		kids := make([]*dtd.Content, len(ordered))
		for i, p := range ordered {
			kids[i] = e.wrapRepetition(p)
		}
		nw := e.merged(dtd.NewChoice(kids...), parts...)
		e.replace(clique, nw)
		return true
	}
	return false
}

// p6 — OR-binding between an element tree and an OR-labeled tree: an
// element exclusive with every member extends the alternative.
func (e *engine) p6() bool {
	for _, oi := range e.treesOfKind(dtd.Choice) {
		for _, xi := range e.elementTrees() {
			or, x := e.C[oi], e.C[xi]
			if !e.exclusive(x.labels, or.labels) {
				continue
			}
			kids := append(append([]*dtd.Content(nil), or.c.Children...), e.wrapRepetition(x))
			nw := e.merged(dtd.NewChoice(kids...), or, x)
			e.replace([]int{oi, xi}, nw)
			return true
		}
	}
	return false
}

// p7 — OR-binding between an element tree and an AND-labeled tree: an
// element exclusive with the whole group is an alternative to it.
func (e *engine) p7() bool {
	for _, ai := range e.treesOfKind(dtd.Seq) {
		for _, xi := range e.elementTrees() {
			and, x := e.C[ai], e.C[xi]
			if !e.exclusive(x.labels, and.labels) {
				continue
			}
			nw := e.merged(dtd.NewChoice(and.c, e.wrapRepetition(x)), and, x)
			e.replace([]int{ai, xi}, nw)
			return true
		}
	}
	return false
}

// p8 — AND-binding between two AND-labeled trees whose label sets mutually
// imply each other: the sequences merge, ordered by document position.
func (e *engine) p8() bool {
	ands := e.treesOfKind(dtd.Seq)
	for a := 0; a < len(ands); a++ {
		for b := a + 1; b < len(ands); b++ {
			ta, tb := e.C[ands[a]], e.C[ands[b]]
			if !e.mutualPresence(ta.labels, tb.labels) {
				continue
			}
			kids := append(append([]*dtd.Content(nil), ta.c.Children...), tb.c.Children...)
			sort.SliceStable(kids, func(i, j int) bool {
				return e.contentPos(kids[i]) < e.contentPos(kids[j])
			})
			nw := e.merged(dtd.NewSeq(kids...), ta, tb)
			e.replace([]int{ands[a], ands[b]}, nw)
			return true
		}
	}
	return false
}

// p9 — repetition of an element tree: an element observed repeated becomes
// +, or * when it is also optional (element-only input, per Figure 4).
//
// Refinement (DESIGN.md §3.2): repeatable elements whose occurrences
// *interleave* in the documents (recorded pairwise evidence) are bound
// together as (x | y)* first — separate x*, y* wraps would force all x's
// before all y's, rejecting the very documents that were recorded.
func (e *engine) p9() bool {
	if e.p9Interleaved() {
		return true
	}
	for _, xi := range e.elementTrees() {
		x := e.C[xi]
		if !e.everRepeated(x.labels[0]) {
			continue
		}
		var c *dtd.Content
		if e.setOptional(x.labels) {
			c = dtd.NewStar(x.c)
		} else {
			c = dtd.NewPlus(x.c)
		}
		e.replace([]int{xi}, &workTree{c: c, labels: x.labels, pos: x.pos})
		return true
	}
	return false
}

// p9Interleaved clusters repeatable element trees that mostly interleave
// and binds each cluster as a starred choice.
func (e *engine) p9Interleaved() bool {
	elems := e.elementTrees()
	var repeatable []int
	for _, i := range elems {
		if e.everRepeated(e.C[i].labels[0]) {
			repeatable = append(repeatable, i)
		}
	}
	if len(repeatable) < 2 {
		return false
	}
	for a := 0; a < len(repeatable); a++ {
		cluster := []int{repeatable[a]}
		for b := a + 1; b < len(repeatable); b++ {
			ok := true
			for _, ci := range cluster {
				if !e.stats.Interleaved(e.C[ci].labels[0], e.C[repeatable[b]].labels[0]) {
					ok = false
					break
				}
			}
			if ok {
				cluster = append(cluster, repeatable[b])
			}
		}
		if len(cluster) < 2 {
			continue
		}
		var parts []*workTree
		for _, i := range cluster {
			parts = append(parts, e.C[i])
		}
		ordered := e.byDominance(parts)
		nw := e.merged(dtd.NewStar(dtd.NewChoice(contents(ordered)...)), parts...)
		e.replace(cluster, nw)
		return true
	}
	return false
}

// p10 — optionality of an element tree: an element absent from some
// frequent sequence (and not consumed by an OR policy) becomes optional.
func (e *engine) p10() bool {
	for _, xi := range e.elementTrees() {
		x := e.C[xi]
		if e.presentInAll(x.labels[0]) {
			continue
		}
		e.replace([]int{xi}, &workTree{c: dtd.NewOpt(x.c), labels: x.labels, pos: x.pos})
		return true
	}
	return false
}

// p11 — OR-binding between two operator trees with mutually exclusive
// label sets (operator-only input, per Figure 4).
func (e *engine) p11() bool {
	ops := e.operatorTrees()
	for a := 0; a < len(ops); a++ {
		for b := a + 1; b < len(ops); b++ {
			ta, tb := e.C[ops[a]], e.C[ops[b]]
			if !e.exclusive(ta.labels, tb.labels) {
				continue
			}
			parts := byPos([]*workTree{ta, tb})
			nw := e.merged(dtd.NewChoice(contents(parts)...), ta, tb)
			e.replace([]int{ops[a], ops[b]}, nw)
			return true
		}
	}
	return false
}

// p12 — merge of two OR-labeled trees when every cross pair of labels is
// exclusive: the alternatives pool into one OR.
func (e *engine) p12() bool {
	ors := e.treesOfKind(dtd.Choice)
	for a := 0; a < len(ors); a++ {
		for b := a + 1; b < len(ors); b++ {
			ta, tb := e.C[ors[a]], e.C[ors[b]]
			if !e.exclusive(ta.labels, tb.labels) {
				continue
			}
			kids := append(append([]*dtd.Content(nil), ta.c.Children...), tb.c.Children...)
			nw := e.merged(dtd.NewChoice(kids...), ta, tb)
			e.replace([]int{ors[a], ors[b]}, nw)
			return true
		}
	}
	return false
}

func (e *engine) operatorTrees() []int {
	var out []int
	for i, t := range e.C {
		if !t.isElement() {
			out = append(out, i)
		}
	}
	return out
}

// p13 — the terminal fallback (operator trees per Figure 4; exercised in
// paper Example 5 to bind the *-tree and the OR-tree): every remaining tree
// is wrapped for optionality/repeatability and the whole set is bound by
// AND in document order. Bare AND trees are spliced so each of their
// children is placed by its own observed position — otherwise an element
// whose dominant position falls inside another group would be forced after
// it. Always succeeds, guaranteeing termination.
func (e *engine) p13() {
	wrapped := make([]*workTree, len(e.C))
	for i, t := range e.C {
		wrapped[i] = e.basicWrap(t)
	}
	if len(wrapped) == 1 {
		e.C = wrapped
		return
	}
	type piece struct {
		c   *dtd.Content
		pos float64
	}
	var pieces []piece
	for _, t := range wrapped {
		if t.c.Kind == dtd.Seq {
			// Splicing preserves the group's internal order (its children
			// are already position-ordered) while letting other trees
			// interleave at their own positions.
			for _, ch := range t.c.Children {
				pieces = append(pieces, piece{c: ch, pos: e.contentPos(ch)})
			}
			continue
		}
		pieces = append(pieces, piece{c: t.c, pos: t.pos})
	}
	sort.SliceStable(pieces, func(i, j int) bool { return pieces[i].pos < pieces[j].pos })
	kids := make([]*dtd.Content, len(pieces))
	for i, p := range pieces {
		kids[i] = p.c
	}
	nw := e.merged(dtd.NewSeq(kids...), wrapped...)
	e.C = []*workTree{nw}
}
