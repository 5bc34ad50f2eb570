package validate

// This file freezes the memoized segment matcher that decided content
// models before the automaton. It exists only as the reference
// implementation for the equivalence tests and FuzzLocalValid: the
// automaton must decide every (model, child sequence) pair the same way.
// Keep it as it stood; do not "improve" it.

import (
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
