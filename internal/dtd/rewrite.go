package dtd

import "sort"

// Rewrite returns a simpler content model with the same language
// (set of valid child sequences). It implements the paper's "[2]-style"
// DTD re-writing rules used after the evolution phase:
//
//   - nested AND inside AND and OR inside OR are flattened,
//   - single-child AND/OR groups are unwrapped,
//   - structurally duplicate OR alternatives are removed,
//   - stacked occurrence operators collapse ((x?)* → x*, (x+)? → x*, ...),
//   - a ? around an already-nullable model is dropped,
//   - an occurrence operator on #PCDATA is dropped, as the parser reads
//     (#PCDATA)*,
//   - EMPTY alternatives make the surrounding OR optional,
//   - #PCDATA alternatives move to the front of an OR (mixed-content form).
//
// The input is not modified.
func Rewrite(c *Content) *Content {
	if c == nil {
		return nil
	}
	out := rewrite(c.Clone())
	return out
}

// RewriteDTD returns a copy of d with every content model rewritten.
func RewriteDTD(d *DTD) *DTD {
	out := d.Clone()
	for name, m := range out.Elements {
		out.Elements[name] = rewrite(m)
	}
	return out
}

func rewrite(c *Content) *Content {
	if c == nil {
		return nil
	}
	// Bottom-up: simplify children first.
	for i, ch := range c.Children {
		c.Children[i] = rewrite(ch)
	}
	// Local fixpoint: each rule may enable another.
	for {
		next, changed := simplifyOnce(c)
		c = next
		if !changed {
			return c
		}
		// A rule may have promoted a child that still has unsimplified
		// interactions with the new parent; children themselves are
		// already simplified, so one more local pass suffices per change.
	}
}

func simplifyOnce(c *Content) (*Content, bool) {
	switch c.Kind {
	case Seq, Choice:
		return simplifyGroup(c)
	case Opt, Star, Plus:
		return simplifyOccurrence(c)
	default:
		return c, false
	}
}

func simplifyGroup(c *Content) (*Content, bool) {
	changed := false
	// Flatten same-kind nesting and drop EMPTY from sequences.
	var flat []*Content
	sawEmptyAlt := false
	for _, ch := range c.Children {
		switch {
		case ch.Kind == c.Kind:
			flat = append(flat, ch.Children...)
			changed = true
		case ch.Kind == Empty && c.Kind == Seq:
			changed = true // (EMPTY, x) ≡ (x)
		case ch.Kind == Empty && c.Kind == Choice:
			sawEmptyAlt = true
			changed = true // (EMPTY | x) ≡ (x)?
		default:
			flat = append(flat, ch)
		}
	}
	c.Children = flat
	if c.Kind == Choice {
		// Remove structural duplicates, preserving first occurrence.
		var dedup []*Content
		for _, ch := range c.Children {
			dup := false
			for _, kept := range dedup {
				if ch.Equal(kept) {
					dup = true
					break
				}
			}
			if dup {
				changed = true
				continue
			}
			dedup = append(dedup, ch)
		}
		c.Children = dedup
		// #PCDATA alternatives first (mixed-content canonical form).
		if !sort.SliceIsSorted(c.Children, pcdataFirst(c.Children)) {
			sort.SliceStable(c.Children, pcdataFirst(c.Children))
			changed = true
		}
	}
	switch len(c.Children) {
	case 0:
		return NewEmpty(), true
	case 1:
		inner := c.Children[0]
		if sawEmptyAlt && !inner.Nullable() {
			return NewOpt(inner), true
		}
		return inner, true
	}
	if sawEmptyAlt {
		if c.Nullable() {
			return c, changed
		}
		return NewOpt(c), true
	}
	return c, changed
}

func pcdataFirst(children []*Content) func(i, j int) bool {
	return func(i, j int) bool {
		return children[i].Kind == PCDATA && children[j].Kind != PCDATA
	}
}

func simplifyOccurrence(c *Content) (*Content, bool) {
	inner := c.Children[0]
	switch inner.Kind {
	case Opt:
		// (x?)? → x?; (x?)* → x*; (x?)+ → x*
		switch c.Kind {
		case Opt:
			return inner, true
		case Star, Plus:
			return NewStar(inner.Children[0]), true
		}
	case Star:
		// (x*)? → x*; (x*)* → x*; (x*)+ → x*
		return inner, true
	case Plus:
		// (x+)? → x*; (x+)* → x*; (x+)+ → x+
		switch c.Kind {
		case Opt, Star:
			return NewStar(inner.Children[0]), true
		case Plus:
			return inner, true
		}
	case Empty:
		return NewEmpty(), true
	case PCDATA:
		// (#PCDATA)*, + or ? admits text and no element, as #PCDATA does.
		return inner, true
	}
	if c.Kind == Opt && inner.Nullable() {
		// x already matches the empty sequence; the ? is redundant.
		return inner, true
	}
	return c, false
}
