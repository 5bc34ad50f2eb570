package similarity

// Tests of the all-match shortcut (DESIGN.md §3.1, §15): an element whose
// child sequence the all-match automaton accepts, and whose children all
// have perfect match deltas, is scored as the sum of those deltas without
// running the DP. Results must stay bit-identical to the frozen legacy
// scorer, and the counts below pin that the DP really is skipped.

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"dtdevolve/internal/dtd"
	"dtdevolve/internal/gen"
	"dtdevolve/internal/validate"
	"dtdevolve/internal/xmltree"
)

// checkAllPaths compares Evaluate and LocalSim with the legacy scorer and,
// when streamed is set, the streaming evaluator with the tree evaluator.
func checkAllPaths(t *testing.T, label string, d *dtd.DTD, cfg Config, root *xmltree.Node, streamed bool) {
	t.Helper()
	checkEquivalent(t, label, NewEvaluator(d, cfg), d, cfg, root)
	if streamed {
		checkStreamEquivalent(t, label, NewPool(d, cfg), d, cfg, root)
	}
}

// TestAllMatchImperfectChild pins an accepted child sequence whose second
// child is itself invalid: <b/> lacks all five required children, so
// matching it costs more minus than skipping it costs plus, and the DP
// skips it. The shortcut must not sum its delta.
func TestAllMatchImperfectChild(t *testing.T) {
	d := dtd.MustParse(`
<!ELEMENT root (a, b?)>
<!ELEMENT a (#PCDATA)>
<!ELEMENT b (x, y, z, w, v)>
<!ELEMENT x (#PCDATA)> <!ELEMENT y (#PCDATA)> <!ELEMENT z (#PCDATA)>
<!ELEMENT w (#PCDATA)> <!ELEMENT v (#PCDATA)>`)
	d.Name = "root"
	root := parseDoc(t, `<root><a>t</a><b/></root>`)
	cfg := DefaultConfig()
	got := NewEvaluator(d, cfg).Evaluate(root)
	if want := (Triple{Plus: 0.5, Minus: 0, Common: 1.75}); got.Triple != want {
		t.Errorf("triple = %+v, want %+v", got.Triple, want)
	}
	if math.Abs(got.Global-0.7778) > 5e-5 {
		t.Errorf("global = %v, want 0.7778", got.Global)
	}
	checkAllPaths(t, "fixed", d, cfg, root, true)
}

// TestAllMatchImperfectChildProperty empties one optional child of a
// valid generated document, choosing a child whose declaration has
// required content: the parent's sequence stays accepted while that
// child's delta carries minus. Generated models require little, so under
// unit weights the DP mostly still matches the emptied child; a heavier
// minus weight makes it skip the child, where a shortcut that summed the
// imperfect delta would go wrong.
func TestAllMatchImperfectChildProperty(t *testing.T) {
	heavyMinus := DefaultConfig()
	heavyMinus.MinusWeight = 4
	for _, cfg := range []Config{DefaultConfig(), heavyMinus} {
		cases := 0
		for seed := int64(1); seed <= 40; seed++ {
			g := gen.New(gen.DefaultConfig(seed))
			d := g.RandomDTD("root", 8)
			v := validate.New(d)
			r := rand.New(rand.NewSource(seed))
			for i, doc := range validDocuments(g, d, 8) {
				victims := optionalRequiredChildren(d, v, doc.Root)
				if len(victims) == 0 {
					continue
				}
				victims[r.Intn(len(victims))].Children = nil
				cases++
				label := fmt.Sprintf("wm %v seed %d doc %d", cfg.MinusWeight, seed, i)
				checkAllPaths(t, label, d, cfg, doc.Root, true)
			}
		}
		if cases < 20 {
			t.Fatalf("only %d documents had an optional child with required content", cases)
		}
	}
}

// optionalRequiredChildren lists the elements under root that their
// parent's model lets go missing (the sequence without them still
// matches) and whose own declaration rejects empty content.
func optionalRequiredChildren(d *dtd.DTD, v *validate.Validator, root *xmltree.Node) []*xmltree.Node {
	var out []*xmltree.Node
	root.Walk(func(n *xmltree.Node, _ int) bool {
		model := d.Elements[n.Name]
		if !isElementContent(model) {
			return true
		}
		tags := n.ChildTags()
		for i, c := range n.ChildElements() {
			decl, ok := d.Elements[c.Name]
			if !ok || v.LocalValid(xmltree.NewElement(c.Name), decl) {
				continue
			}
			rest := append(append([]string{}, tags[:i]...), tags[i+1:]...)
			if validate.MatchModel(model, rest) {
				out = append(out, c)
			}
		}
		return true
	})
	return out
}

// TestAllMatchExclusions covers the configurations and magnitudes under
// which an accepted, perfect child sequence does not score as its
// all-match sum, so the shortcut must defer to the DP:
//   - a thesaurus: a synonym match can carry more common mass;
//   - a zero minus weight: a path through a delete edge ties the
//     all-match path, and the DP keeps the one it met first;
//   - a negative decay: a perfect child can bring negative common mass;
//   - wc = 1e17: wm·1 vanishes when subtracted from wc·c, the same tie
//     under positive weights.
func TestAllMatchExclusions(t *testing.T) {
	thesaurus := DefaultConfig()
	thesaurus.TagSimilarity = func(doc, dtd string) float64 {
		if doc+dtd == "ab" || doc+dtd == "ba" || doc+dtd == "uv" || doc+dtd == "vu" {
			return 1
		}
		return 0
	}
	noMinus := DefaultConfig()
	noMinus.MinusWeight = 0
	negDecay := DefaultConfig()
	negDecay.Decay = -1
	heavyCommon := DefaultConfig()
	heavyCommon.CommonWeight = 1e17
	tie := `<!ELEMENT root ((x | a), a?)> <!ELEMENT a EMPTY> <!ELEMENT x EMPTY>`
	for _, c := range []struct {
		name, dtd, doc string
		cfg            Config
		streamed       bool // StreamEval has no thesaurus
	}{
		{"thesaurus", `<!ELEMENT root (a | b)> <!ELEMENT a (u)> <!ELEMENT b (v)>
<!ELEMENT v (w)> <!ELEMENT w EMPTY>`, `<root><a><u><w/></u></a></root>`, thesaurus, false},
		{"zero minus weight", tie, `<root><a/></root>`, noMinus, true},
		{"negative decay", `<!ELEMENT root (a, b?)> <!ELEMENT a (x, y)> <!ELEMENT b EMPTY>
<!ELEMENT x EMPTY> <!ELEMENT y EMPTY>`, `<root><a><x/><y/></a></root>`, negDecay, true},
		{"rounding", tie, `<root><a/></root>`, heavyCommon, true},
	} {
		d := dtd.MustParse(c.dtd)
		d.Name = "root"
		root := parseDoc(t, c.doc)
		checkAllPaths(t, c.name, d, c.cfg, root, c.streamed)
	}
}

// TestAllMatchNestedAny: the validity run and the DP both read a nested
// ANY, which only Go code can build, as the empty sequence. So the run
// rejects <root><a>x</a><b/></root> under root (a, ANY), and the DP skips
// <b/> at plus cost, on the tree path as on the streaming path.
func TestAllMatchNestedAny(t *testing.T) {
	d := dtd.NewDTD("root")
	d.Elements["root"] = dtd.NewSeq(dtd.NewName("a"), dtd.NewAny())
	d.Elements["a"] = dtd.NewPCDATA()
	root := parseDoc(t, `<root><a>x</a><b/></root>`)
	cfg := DefaultConfig()
	if got, want := NewEvaluator(d, cfg).Evaluate(root).Triple, (Triple{Plus: 0.5, Common: 1.75}); got != want {
		t.Errorf("triple = %+v, want %+v", got, want)
	}
	checkAllPaths(t, "nested ANY", d, cfg, root, true)
}

// validDocuments generates documents for d and keeps the valid ones (the
// generator cuts recursive models short at its depth limit).
func validDocuments(g *gen.Generator, d *dtd.DTD, n int) []*xmltree.Document {
	v := validate.New(d)
	var out []*xmltree.Document
	for _, doc := range g.Documents(d, n) {
		if v.Valid(doc) {
			out = append(out, doc)
		}
	}
	return out
}

// TestValidDocumentRunsNoAlignment: a valid document is scored without a
// single DP alignment, and still at global similarity 1.
func TestValidDocumentRunsNoAlignment(t *testing.T) {
	docs := 0
	for seed := int64(1); seed <= 10; seed++ {
		g := gen.New(gen.DefaultConfig(seed))
		d := g.RandomDTD("root", 8)
		e := NewEvaluator(d, DefaultConfig())
		for i, doc := range validDocuments(g, d, 5) {
			docs++
			if got := e.Evaluate(doc.Root); got.Global != 1 || got.Local != 1 {
				t.Fatalf("seed %d doc %d: valid document scored %+v", seed, i, got)
			}
		}
		if e.aligns != 0 {
			t.Errorf("seed %d: %d alignments over valid documents, want 0", seed, e.aligns)
		}
	}
	if docs < 30 {
		t.Fatalf("only %d valid generated documents", docs)
	}
}

// TestStreamValidDocumentRunsNoDP: streaming a valid document whose
// elements have at most deferBuf children takes no DP step.
func TestStreamValidDocumentRunsNoDP(t *testing.T) {
	cfg := DefaultConfig()
	docs := 0
	for seed := int64(1); seed <= 10; seed++ {
		g := gen.New(gen.DefaultConfig(seed))
		d := g.RandomDTD("root", 8)
		p := NewPool(d, cfg)
		for _, doc := range validDocuments(g, d, 5) {
			if maxChildren(doc.Root) > deferBuf {
				continue
			}
			docs++
			se, res := streamDPSteps(p, cfg, doc.Root)
			if res.Global != 1 || se != 0 {
				t.Errorf("seed %d: valid document scored %v with %d DP steps, want 1 with 0", seed, res.Global, se)
			}
		}
	}
	if docs < 30 {
		t.Fatalf("only %d generated documents within the buffer", docs)
	}
}

// TestStreamLogDocumentDPOnlyAtRoot streams the durable-stream log shape:
// no event runs the DP, and the root, whose children overflow the buffer,
// takes exactly one DP step per event (its buffer replayed, then the
// rest).
func TestStreamLogDocumentDPOnlyAtRoot(t *testing.T) {
	d := dtd.MustParse(`
<!ELEMENT log (event)*>
<!ELEMENT event (ts, level, msg, trace?)>
<!ELEMENT ts (#PCDATA)>
<!ELEMENT level (#PCDATA)>
<!ELEMENT msg (#PCDATA)>
<!ELEMENT trace (#PCDATA)>`)
	d.Name = "event"
	g := gen.New(gen.DefaultConfig(42))
	root := xmltree.NewElement("log")
	const events = 100
	for i := 0; i < events; i++ {
		root.Children = append(root.Children, g.Document(d).Root)
	}
	d.Name = "log"
	cfg := DefaultConfig()
	steps, res := streamDPSteps(NewPool(d, cfg), cfg, root)
	if res.Global != 1 || steps != events {
		t.Errorf("log of %d events scored %v with %d DP steps, want 1 with %d", events, res.Global, steps, events)
	}
}

// streamDPSteps streams root and returns the DP steps it took.
func streamDPSteps(p *Pool, cfg Config, root *xmltree.Node) (int, Result) {
	se := p.GetStream()
	defer p.PutStream(se)
	se.dpSteps = 0
	var walk func(n *xmltree.Node) float64
	walk = func(n *xmltree.Node) float64 {
		se.Start(p.Table().Intern(n.Name))
		sum := 0.0
		for _, c := range n.Children {
			if c.Kind == xmltree.Element {
				sum += walk(c)
			} else {
				se.Text(strings.TrimSpace(c.Data) != "")
				sum++
			}
		}
		w := 1 + cfg.Decay*sum
		se.End(w)
		return w
	}
	walk(root)
	return se.dpSteps, se.Result()
}

func maxChildren(n *xmltree.Node) int {
	m := len(n.ChildElements())
	for _, c := range n.ChildElements() {
		m = max(m, maxChildren(c))
	}
	return m
}
