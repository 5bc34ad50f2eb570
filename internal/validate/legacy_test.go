package validate

// This file freezes the memoized segment matcher that decided content
// models before the automaton. It exists only as the reference
// implementation for the equivalence tests and FuzzLocalValid: the
// automaton must decide every (model, child sequence) pair the same way.
// Keep it as it stood; do not "improve" it.

import (
	"fmt"
	"slices"
	"sort"

	"dtdevolve/internal/dtd"
	"dtdevolve/internal/xmltree"
)

// legacyLocalValid is LocalValid as the matcher decided it.
func legacyLocalValid(n *xmltree.Node, model *dtd.Content) bool {
	switch {
	case model == nil || model.Kind == dtd.Any:
		return true
	case model.Kind == dtd.Empty:
		return len(n.Children) == 0
	case model.Kind == dtd.PCDATA:
		for _, c := range n.Children {
			if c.Kind == xmltree.Element {
				return false
			}
		}
		return true
	case model.IsMixed():
		allowed := make(map[string]bool)
		for _, l := range model.Labels() {
			allowed[l] = true
		}
		for _, c := range n.Children {
			if c.Kind == xmltree.Element && !allowed[c.Name] {
				return false
			}
		}
		return true
	default:
		if n.HasText() {
			return false
		}
		var tags []string
		for _, c := range n.Children {
			if c.Kind == xmltree.Element {
				tags = append(tags, c.Name)
			}
		}
		return legacyMatchModel(model, tags)
	}
}

// legacyMatchModel is MatchModel as the matcher decided it.
func legacyMatchModel(model *dtd.Content, tags []string) bool {
	m := &matcher{memo: make(map[memoKey]bool), seqMemo: make(map[seqKey]bool)}
	return m.seg(model, tags, 0, len(tags))
}

// matcher memoizes content-model matching per (model node, segment) of one
// tag sequence.
type matcher struct {
	memo    map[memoKey]bool
	seqMemo map[seqKey]bool
}

type memoKey struct {
	node *dtd.Content
	star bool // key for the implicit Star used to expand Plus
	i, j int
}

type seqKey struct {
	node    *dtd.Content
	k, i, j int
}

// seg reports whether model matches tags[i:j].
func (m *matcher) seg(c *dtd.Content, tags []string, i, j int) bool {
	key := memoKey{node: c, i: i, j: j}
	if v, ok := m.memo[key]; ok {
		return v
	}
	v := m.segUncached(c, tags, i, j)
	m.memo[key] = v
	return v
}

func (m *matcher) segUncached(c *dtd.Content, tags []string, i, j int) bool {
	switch c.Kind {
	case dtd.Empty, dtd.PCDATA:
		return i == j
	case dtd.Any:
		return true
	case dtd.Name:
		return j == i+1 && tags[i] == c.Name
	case dtd.Opt:
		return i == j || m.seg(c.Children[0], tags, i, j)
	case dtd.Star:
		return m.star(c.Children[0], tags, i, j)
	case dtd.Plus:
		inner := c.Children[0]
		for k := i + 1; k <= j; k++ {
			if m.seg(inner, tags, i, k) && m.star(inner, tags, k, j) {
				return true
			}
		}
		// A nullable inner may match tags[i:i] once, satisfying the +.
		return inner.Nullable() && m.star(inner, tags, i, j)
	case dtd.Choice:
		for _, ch := range c.Children {
			if m.seg(ch, tags, i, j) {
				return true
			}
		}
		return false
	case dtd.Seq:
		return m.seq(c, tags, 0, i, j)
	default:
		return false
	}
}

// star reports whether zero or more repetitions of inner match tags[i:j].
func (m *matcher) star(inner *dtd.Content, tags []string, i, j int) bool {
	key := memoKey{node: inner, star: true, i: i, j: j}
	if v, ok := m.memo[key]; ok {
		return v
	}
	v := false
	if i == j {
		v = true
	} else {
		// Each repetition must consume at least one tag, or the recursion
		// would not terminate; an empty repetition adds nothing anyway.
		for k := i + 1; k <= j; k++ {
			if m.seg(inner, tags, i, k) && m.star(inner, tags, k, j) {
				v = true
				break
			}
		}
	}
	m.memo[key] = v
	return v
}

// seq reports whether c.Children[k:] match tags[i:j].
func (m *matcher) seq(c *dtd.Content, tags []string, k, i, j int) bool {
	if k == len(c.Children) {
		return i == j
	}
	first := c.Children[k]
	if k == len(c.Children)-1 {
		return m.seg(first, tags, i, j)
	}
	key := seqKey{node: c, k: k, i: i, j: j}
	if v, ok := m.seqMemo[key]; ok {
		return v
	}
	v := false
	for mid := i; mid <= j; mid++ {
		if m.seg(first, tags, i, mid) && m.seq(c, tags, k+1, mid, j) {
			v = true
			break
		}
	}
	m.seqMemo[key] = v
	return v
}

// The Glushkov-position analyses below decided determinism and language
// equivalence before both moved onto the automaton (analysis.go). They
// exist only as the reference implementation for the analysis property
// tests and FuzzAnalyses: CheckDeterminism must produce the same messages,
// and Equivalent the same verdicts. The one change from the code as it
// shipped is the fix to report, which counted a position listed twice in a
// follow set as two competing occurrences. Keep it as it stood; do not
// "improve" it.

// legacyCheckDeterminism is CheckDeterminism as the Glushkov positions
// decided it: one message per name matched by competing occurrences.
func legacyCheckDeterminism(c *dtd.Content) []string {
	if c == nil {
		return nil
	}
	g := buildGlushkov(c)
	var out []string
	seen := make(map[string]bool)
	report := func(context string, set []int) {
		byName := make(map[string][]int)
		// Count distinct positions: a follow list can hold one position
		// twice, ((a*)* adds first(a) to follow(a) once per star).
		for _, p := range dedupInts(slices.Clone(set)) {
			name := g.names[p]
			byName[name] = append(byName[name], p)
		}
		names := make([]string, 0, len(byName))
		for name, ps := range byName {
			if len(ps) > 1 {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			msg := fmt.Sprintf("%s: element %q matches %d competing occurrences", context, name, len(byName[name]))
			if !seen[msg] {
				seen[msg] = true
				out = append(out, msg)
			}
		}
	}
	report("at start", g.first)
	positions := make([]int, 0, len(g.follow))
	for p := range g.follow {
		positions = append(positions, p)
	}
	sort.Ints(positions)
	for _, p := range positions {
		report(fmt.Sprintf("after %q", g.names[p]), g.follow[p])
	}
	return out
}

// glushkov holds position-based first/follow sets of a content model.
type glushkov struct {
	names  []string      // position -> element name
	first  []int         // positions matching the first child
	follow map[int][]int // position -> positions matching the next child
}

type gsets struct {
	nullable bool
	first    []int
	last     []int
}

func buildGlushkov(c *dtd.Content) *glushkov {
	g := &glushkov{follow: make(map[int][]int)}
	root := g.build(c)
	g.first = root.first
	return g
}

func (g *glushkov) newPos(name string) int {
	g.names = append(g.names, name)
	return len(g.names) - 1
}

func (g *glushkov) addFollow(from int, to []int) {
	g.follow[from] = append(g.follow[from], to...)
}

func (g *glushkov) build(c *dtd.Content) gsets {
	switch c.Kind {
	case dtd.Name:
		p := g.newPos(c.Name)
		return gsets{first: []int{p}, last: []int{p}}
	case dtd.PCDATA, dtd.Empty, dtd.Any:
		return gsets{nullable: true}
	case dtd.Opt:
		s := g.build(c.Children[0])
		s.nullable = true
		return s
	case dtd.Star:
		s := g.build(c.Children[0])
		for _, p := range s.last {
			g.addFollow(p, s.first)
		}
		s.nullable = true
		return s
	case dtd.Plus:
		s := g.build(c.Children[0])
		for _, p := range s.last {
			g.addFollow(p, s.first)
		}
		return s
	case dtd.Choice:
		out := gsets{}
		for _, ch := range c.Children {
			s := g.build(ch)
			out.nullable = out.nullable || s.nullable
			out.first = append(out.first, s.first...)
			out.last = append(out.last, s.last...)
		}
		return out
	case dtd.Seq:
		out := gsets{nullable: true}
		for _, ch := range c.Children {
			s := g.build(ch)
			for _, p := range out.last {
				g.addFollow(p, s.first)
			}
			if out.nullable {
				out.first = append(out.first, s.first...)
			}
			if s.nullable {
				out.last = append(out.last, s.last...)
			} else {
				out.last = s.last
			}
			out.nullable = out.nullable && s.nullable
		}
		return out
	default:
		return gsets{nullable: true}
	}
}

// legacyEquivalent is Equivalent as the Glushkov DFAs decided it.
func legacyEquivalent(a, b *dtd.Content) bool {
	if a == nil || b == nil {
		return a == b
	}
	// ANY is not a regular language over a fixed alphabet here; treat it
	// nominally.
	if a.Kind == dtd.Any || b.Kind == dtd.Any {
		return a.Kind == b.Kind
	}
	da := determinize(a)
	db := determinize(b)
	return dfaEquivalent(da, db)
}

// dfa is a deterministic automaton over element names.
type dfa struct {
	// trans[state][symbol] = next state; missing entries go to the
	// implicit dead state (-1).
	trans  []map[string]int
	accept []bool
}

// determinize builds the DFA of a content model via Glushkov positions and
// the subset construction.
func determinize(c *dtd.Content) *dfa {
	g := buildGlushkov(c)
	nullable := contentNullable(c)

	// last positions: those that can end a word. Recompute via gsets on a
	// fresh build to obtain last (buildGlushkov keeps only first/follow).
	lastSet := glushkovLast(c)
	isLast := make(map[int]bool, len(lastSet))
	for _, p := range lastSet {
		isLast[p] = true
	}

	type subset string // canonical key of a sorted position set
	key := func(ps []int, initial bool) subset {
		sort.Ints(ps)
		b := make([]byte, 0, len(ps)*2+1)
		// The initial state carries its own acceptance (nullability), so
		// it must not collide with an equal follow-derived subset.
		if initial {
			b = append(b, 0xFF)
		}
		for _, p := range ps {
			b = append(b, byte(p>>8), byte(p))
		}
		return subset(b)
	}
	// A DFA state is the set of positions that could have matched the last
	// consumed symbol. The initial state (no symbol consumed) accepts iff
	// the model is nullable; any other state accepts iff it contains a
	// last position.
	acceptOf := func(ps []int, initial bool) bool {
		if initial {
			return nullable
		}
		for _, p := range ps {
			if isLast[p] {
				return true
			}
		}
		return false
	}

	d := &dfa{}
	index := make(map[subset]int)
	var queue [][]int
	var ids []int // queue-parallel state ids

	addState := func(ps []int, initial bool) int {
		k := key(ps, initial)
		if id, ok := index[k]; ok {
			return id
		}
		id := len(d.trans)
		index[k] = id
		d.trans = append(d.trans, make(map[string]int))
		d.accept = append(d.accept, acceptOf(ps, initial))
		queue = append(queue, ps)
		ids = append(ids, id)
		return id
	}

	// The initial state's successors come from the first set; every other
	// state's successors come from the union of its follow sets. Both are
	// grouped by the *successor's* symbol.
	successors := func(candidates []int) map[string][]int {
		bySym := make(map[string][]int)
		for _, q := range candidates {
			bySym[g.names[q]] = append(bySym[g.names[q]], q)
		}
		return bySym
	}

	startID := addState(nil, true)
	bySym := successors(g.first)
	installTransitions(d, startID, bySym, addState)
	for i := 1; i < len(queue); i++ {
		ps := queue[i]
		id := ids[i]
		var candidates []int
		for _, p := range ps {
			candidates = append(candidates, g.follow[p]...)
		}
		installTransitions(d, id, successors(dedupInts(candidates)), addState)
	}
	return d
}

func installTransitions(d *dfa, from int, bySym map[string][]int, addState func([]int, bool) int) {
	syms := make([]string, 0, len(bySym))
	for s := range bySym {
		syms = append(syms, s)
	}
	sort.Strings(syms)
	for _, s := range syms {
		d.trans[from][s] = addState(dedupInts(bySym[s]), false)
	}
}

func dedupInts(in []int) []int {
	sort.Ints(in)
	out := in[:0]
	for i, v := range in {
		if i == 0 || v != in[i-1] {
			out = append(out, v)
		}
	}
	return out
}

func contentNullable(c *dtd.Content) bool { return c.Nullable() }

// glushkovLast returns the last-position set of a content model.
func glushkovLast(c *dtd.Content) []int {
	g := &glushkov{follow: make(map[int][]int)}
	return g.build(c).last
}

// dfaEquivalent checks DFA equivalence with a product-automaton BFS
// (Hopcroft–Karp style union of reached pairs). State -1 is the dead state
// of either machine.
func dfaEquivalent(a, b *dfa) bool {
	type pair struct{ x, y int }
	seen := map[pair]bool{}
	queue := []pair{{0, 0}}
	acceptOf := func(d *dfa, s int) bool { return s >= 0 && d.accept[s] }
	transOf := func(d *dfa, s int, sym string) int {
		if s < 0 {
			return -1
		}
		if t, ok := d.trans[s][sym]; ok {
			return t
		}
		return -1
	}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		if seen[p] {
			continue
		}
		seen[p] = true
		if acceptOf(a, p.x) != acceptOf(b, p.y) {
			return false
		}
		// The union of outgoing symbols from both states.
		syms := make(map[string]bool)
		if p.x >= 0 {
			for s := range a.trans[p.x] {
				syms[s] = true
			}
		}
		if p.y >= 0 {
			for s := range b.trans[p.y] {
				syms[s] = true
			}
		}
		for s := range syms {
			queue = append(queue, pair{transOf(a, p.x, s), transOf(b, p.y, s)})
		}
	}
	return true
}
