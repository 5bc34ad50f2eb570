// Package xtract implements a from-scratch DTD inference baseline in the
// spirit of XTRACT (Garofalakis et al., SIGMOD 2000), the related work the
// paper compares its incremental approach against (§5): given a set of
// documents (and nothing else), infer a DTD that is precise (accepts every
// input document) yet concise (generalizes repetitions and optionality
// instead of enumerating shapes).
//
// Unlike the paper's evolution approach, the baseline must re-analyze the
// whole corpus on every run — experiment E3 measures exactly that cost
// difference.
//
// The inference pipeline per element tag:
//
//  1. collect every instance's ordered child-tag sequence;
//  2. generalize runs (a a a b → a+ b) — XTRACT's repetition step;
//  3. build candidate models: the exact common sequence, a wrapped
//     sequence over the union of tags in dominant order, and the fully
//     general (t1 | ... | tn)*;
//  4. pick the first (most precise) candidate accepting every instance,
//     MDL-style preferring precision before generality, and simplify it
//     with the DTD rewriting rules.
package xtract

import (
	"errors"
	"sort"

	"dtdevolve/internal/dtd"
	"dtdevolve/internal/validate"
	"dtdevolve/internal/xmltree"
)

// Infer derives a DTD from a non-empty set of documents. All documents
// must share the same root tag, which becomes the DTD root.
func Infer(docs []*xmltree.Document) (*dtd.DTD, error) {
	roots := make([]*xmltree.Node, 0, len(docs))
	for _, doc := range docs {
		if doc != nil && doc.Root != nil {
			roots = append(roots, doc.Root)
		}
	}
	return InferElements(roots)
}

// InferElements derives a DTD from document subtrees.
func InferElements(roots []*xmltree.Node) (*dtd.DTD, error) {
	if len(roots) == 0 {
		return nil, errors.New("xtract: no documents")
	}
	rootName := roots[0].Name
	for _, r := range roots[1:] {
		if r.Name != rootName {
			return nil, errors.New("xtract: documents have different root elements")
		}
	}
	inst := collect(roots)
	d := dtd.NewDTD(rootName)
	// Deterministic order: root first, then remaining tags sorted.
	tags := make([]string, 0, len(inst))
	for tag := range inst {
		if tag != rootName {
			tags = append(tags, tag)
		}
	}
	sort.Strings(tags)
	tags = append([]string{rootName}, tags...)
	for _, tag := range tags {
		d.Declare(tag, inferModel(inst[tag]))
	}
	return dtd.RewriteDTD(d), nil
}

// instance is one observed element occurrence.
type instance struct {
	tags    []string // ordered child tags
	hasText bool
}

func collect(roots []*xmltree.Node) map[string][]instance {
	out := make(map[string][]instance)
	var walk func(n *xmltree.Node)
	walk = func(n *xmltree.Node) {
		out[n.Name] = append(out[n.Name], instance{tags: n.ChildTags(), hasText: n.HasText()})
		for _, c := range n.ChildElements() {
			walk(c)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	return out
}

// inferModel derives a content model for one element from its instances.
func inferModel(instances []instance) *dtd.Content {
	hasText, hasElems := false, false
	tagSet := make(map[string]bool)
	for _, in := range instances {
		if in.hasText {
			hasText = true
		}
		for _, t := range in.tags {
			hasElems = true
			tagSet[t] = true
		}
	}
	switch {
	case !hasElems && !hasText:
		return dtd.NewEmpty()
	case !hasElems:
		return dtd.NewPCDATA()
	case hasText:
		// Mixed content is the only DTD form admitting interleaved text.
		kids := []*dtd.Content{dtd.NewPCDATA()}
		for _, t := range sortedKeys(tagSet) {
			kids = append(kids, dtd.NewName(t))
		}
		return dtd.NewStar(dtd.NewChoice(kids...))
	}
	for _, candidate := range candidates(instances, tagSet) {
		if acceptsAll(candidate, instances) {
			return dtd.Rewrite(candidate)
		}
	}
	// Unreachable: the last candidate accepts everything.
	return dtd.NewAny()
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func acceptsAll(model *dtd.Content, instances []instance) bool {
	match := validate.Matcher(model)
	for _, in := range instances {
		if !match(in.tags) {
			return false
		}
	}
	return true
}

// candidates returns candidate models from most precise to most general.
func candidates(instances []instance, tagSet map[string]bool) []*dtd.Content {
	var out []*dtd.Content
	if exact := exactCandidate(instances); exact != nil {
		out = append(out, exact)
	}
	out = append(out, wrappedSequenceCandidate(instances))
	// The fully general fallback always accepts.
	var alts []*dtd.Content
	for _, t := range sortedKeys(tagSet) {
		alts = append(alts, dtd.NewName(t))
	}
	if len(alts) == 1 {
		out = append(out, dtd.NewStar(alts[0]))
	} else {
		out = append(out, dtd.NewStar(dtd.NewChoice(alts...)))
	}
	return out
}

// run is a maximal run of one tag in a child sequence.
type run struct {
	tag      string
	repeated bool
}

func runs(tags []string) []run {
	var out []run
	for i := 0; i < len(tags); {
		j := i
		for j < len(tags) && tags[j] == tags[i] {
			j++
		}
		out = append(out, run{tag: tags[i], repeated: j-i > 1})
		i = j
	}
	return out
}

// exactCandidate generalizes runs and, when every instance collapses to the
// same run skeleton, emits it directly: XTRACT's repetition generalization.
func exactCandidate(instances []instance) *dtd.Content {
	first := runs(instances[0].tags)
	repeated := make([]bool, len(first))
	for _, in := range instances {
		rs := runs(in.tags)
		if len(rs) != len(first) {
			return nil
		}
		for i, r := range rs {
			if r.tag != first[i].tag {
				return nil
			}
			repeated[i] = repeated[i] || r.repeated
		}
	}
	kids := make([]*dtd.Content, len(first))
	for i, r := range first {
		c := dtd.NewName(r.tag)
		if repeated[i] {
			kids[i] = dtd.NewPlus(c)
		} else {
			kids[i] = c
		}
	}
	if len(kids) == 1 {
		return kids[0]
	}
	return dtd.NewSeq(kids...)
}

// wrappedSequenceCandidate orders the union of tags by mean first position
// and wraps each with ?, + or * according to presence and repetition.
func wrappedSequenceCandidate(instances []instance) *dtd.Content {
	type stat struct {
		present  int
		repeated bool
		posSum   float64
		posN     int
	}
	stats := make(map[string]*stat)
	for _, in := range instances {
		counts := make(map[string]int)
		for i, t := range in.tags {
			if counts[t] == 0 {
				s := stats[t]
				if s == nil {
					s = &stat{}
					stats[t] = s
				}
				s.present++
				s.posSum += float64(i)
				s.posN++
			}
			counts[t]++
		}
		for t, c := range counts {
			if c > 1 {
				stats[t].repeated = true
			}
		}
	}
	tags := make([]string, 0, len(stats))
	for t := range stats {
		tags = append(tags, t)
	}
	sort.Slice(tags, func(i, j int) bool {
		pi := stats[tags[i]].posSum / float64(stats[tags[i]].posN)
		pj := stats[tags[j]].posSum / float64(stats[tags[j]].posN)
		if pi != pj {
			return pi < pj
		}
		return tags[i] < tags[j]
	})
	kids := make([]*dtd.Content, 0, len(tags))
	for _, t := range tags {
		s := stats[t]
		c := dtd.NewName(t)
		optional := s.present < len(instances)
		switch {
		case optional && s.repeated:
			c = dtd.NewStar(c)
		case s.repeated:
			c = dtd.NewPlus(c)
		case optional:
			c = dtd.NewOpt(c)
		}
		kids = append(kids, c)
	}
	if len(kids) == 1 {
		return kids[0]
	}
	return dtd.NewSeq(kids...)
}
