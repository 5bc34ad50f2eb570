package similarity

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dtdevolve/internal/dtd"
	"dtdevolve/internal/evolve"
	"dtdevolve/internal/gen"
	"dtdevolve/internal/record"
	"dtdevolve/internal/validate"
	"dtdevolve/internal/xmltree"
)

func parseDoc(t *testing.T, src string) *xmltree.Node {
	t.Helper()
	doc, err := xmltree.ParseString(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return doc.Root
}

// TestPaperExample1 reproduces Example 1 of the paper: for the document
// <a><b>5</b><c>7</c></a> and the DTD of Figure 2, the local similarity of
// element a is full, while the global similarity of the document is not,
// because element c has data content where the DTD requires a subelement d.
func TestPaperExample1(t *testing.T) {
	d := dtd.MustParse(`
<!ELEMENT a (b, c)>
<!ELEMENT b (#PCDATA)>
<!ELEMENT c (d)>
<!ELEMENT d (#PCDATA)>`)
	root := parseDoc(t, `<a><b>5</b><c>7</c></a>`)
	e := NewEvaluator(d, DefaultConfig())
	res := e.Evaluate(root)
	if res.Local != 1 {
		t.Errorf("local similarity of a = %v, want 1 (full)", res.Local)
	}
	if res.Global >= 1 {
		t.Errorf("global similarity = %v, want < 1", res.Global)
	}
	if res.Global <= 0 {
		t.Errorf("global similarity = %v, want > 0", res.Global)
	}
	// Element c itself: local similarity against (d) is not full.
	c := root.ChildElements()[1]
	if sim := e.LocalSim(c, d.Elements["c"]); sim >= 1 {
		t.Errorf("local similarity of c = %v, want < 1", sim)
	}
}

func TestValidDocumentHasGlobalSimilarityOne(t *testing.T) {
	d := dtd.MustParse(`
<!ELEMENT catalog (product+)>
<!ELEMENT product (name, price?, (tag | category)*)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT price (#PCDATA)>
<!ELEMENT tag (#PCDATA)>
<!ELEMENT category (#PCDATA)>`)
	docs := []string{
		`<catalog><product><name>n</name></product></catalog>`,
		`<catalog><product><name>n</name><price>1</price><tag>t</tag><category>c</category></product></catalog>`,
		`<catalog><product><name>n</name><tag>a</tag><tag>b</tag></product><product><name>m</name></product></catalog>`,
	}
	e := NewEvaluator(d, DefaultConfig())
	for _, src := range docs {
		if sim := e.GlobalSim(parseDoc(t, src)); sim != 1 {
			t.Errorf("global similarity of valid doc = %v, want 1\n%s", sim, src)
		}
	}
}

func TestMissingAndExtraElementsLowerSimilarity(t *testing.T) {
	d := dtd.MustParse(`
<!ELEMENT a (b, c, d)>
<!ELEMENT b EMPTY>
<!ELEMENT c EMPTY>
<!ELEMENT d EMPTY>`)
	e := NewEvaluator(d, DefaultConfig())
	full := e.GlobalSim(parseDoc(t, `<a><b/><c/><d/></a>`))
	missingOne := e.GlobalSim(parseDoc(t, `<a><b/><c/></a>`))
	missingTwo := e.GlobalSim(parseDoc(t, `<a><b/></a>`))
	extra := e.GlobalSim(parseDoc(t, `<a><b/><c/><d/><z/></a>`))
	if full != 1 {
		t.Errorf("full = %v, want 1", full)
	}
	if !(missingOne < full) || !(missingTwo < missingOne) {
		t.Errorf("missing-element degradation: %v, %v, %v", full, missingOne, missingTwo)
	}
	if !(extra < full) {
		t.Errorf("extra element did not lower similarity: %v", extra)
	}
}

func TestOperatorViolationsLowerSimilarity(t *testing.T) {
	d := dtd.MustParse(`
<!ELEMENT a (b, c?)>
<!ELEMENT b EMPTY>
<!ELEMENT c EMPTY>`)
	e := NewEvaluator(d, DefaultConfig())
	if sim := e.GlobalSim(parseDoc(t, `<a><b/></a>`)); sim != 1 {
		t.Errorf("optional absent: sim = %v, want 1", sim)
	}
	// c repeated although declared at most once.
	repeated := e.GlobalSim(parseDoc(t, `<a><b/><c/><c/></a>`))
	if repeated >= 1 {
		t.Errorf("repeated optional: sim = %v, want < 1", repeated)
	}
}

func TestChoiceTakesBestAlternative(t *testing.T) {
	d := dtd.MustParse(`
<!ELEMENT a ((b, c) | (d, e, f))>
<!ELEMENT b EMPTY> <!ELEMENT c EMPTY> <!ELEMENT d EMPTY>
<!ELEMENT e EMPTY> <!ELEMENT f EMPTY>`)
	e := NewEvaluator(d, DefaultConfig())
	if sim := e.GlobalSim(parseDoc(t, `<a><d/><e/><f/></a>`)); sim != 1 {
		t.Errorf("second alternative: sim = %v, want 1", sim)
	}
	// [d, e] is closer to (d, e, f) than to (b, c): one minus vs two
	// minuses plus two pluses.
	partial := e.GlobalSim(parseDoc(t, `<a><d/><e/></a>`))
	if partial <= 0.5 {
		t.Errorf("partial second alternative: sim = %v, want > 0.5", partial)
	}
}

func TestLocalIgnoresSubelementDeclarations(t *testing.T) {
	d := dtd.MustParse(`
<!ELEMENT a (b)>
<!ELEMENT b (x, y, z)>
<!ELEMENT x EMPTY> <!ELEMENT y EMPTY> <!ELEMENT z EMPTY>`)
	e := NewEvaluator(d, DefaultConfig())
	root := parseDoc(t, `<a><b/></a>`) // b is empty: violates b's declaration
	res := e.Evaluate(root)
	if res.Local != 1 {
		t.Errorf("local = %v, want 1 (direct children of a are fine)", res.Local)
	}
	if res.Global >= 1 {
		t.Errorf("global = %v, want < 1 (b misses x, y, z)", res.Global)
	}
}

func TestDeeperMismatchesMatterLess(t *testing.T) {
	d := dtd.MustParse(`
<!ELEMENT r (a, b)>
<!ELEMENT a (x)>
<!ELEMENT b (y)>
<!ELEMENT x (q)>
<!ELEMENT y EMPTY>
<!ELEMENT q EMPTY>`)
	e := NewEvaluator(d, DefaultConfig())
	// Mismatch at depth 1: a missing its x.
	shallow := e.GlobalSim(parseDoc(t, `<r><a/><b><y/></b></r>`))
	// Mismatch at depth 2: x missing its q.
	deep := e.GlobalSim(parseDoc(t, `<r><a><x/></a><b><y/></b></r>`))
	if !(deep > shallow) {
		t.Errorf("deep mismatch (%v) should hurt less than shallow (%v)", deep, shallow)
	}
}

func TestUndeclaredRootIsZero(t *testing.T) {
	d := dtd.MustParse(`<!ELEMENT a EMPTY>`)
	e := NewEvaluator(d, DefaultConfig())
	if sim := e.GlobalSim(parseDoc(t, `<zzz/>`)); sim != 0 {
		t.Errorf("sim = %v, want 0", sim)
	}
}

func TestEmptyAnyMixedPCDATA(t *testing.T) {
	d := dtd.MustParse(`
<!ELEMENT r (e, m, p, y)>
<!ELEMENT e EMPTY>
<!ELEMENT m (#PCDATA | b)*>
<!ELEMENT p (#PCDATA)>
<!ELEMENT y ANY>
<!ELEMENT b EMPTY>`)
	e := NewEvaluator(d, DefaultConfig())
	valid := `<r><e/><m>t<b/>t</m><p>txt</p><y><b/>any</y></r>`
	if sim := e.GlobalSim(parseDoc(t, valid)); sim != 1 {
		t.Errorf("valid doc sim = %v, want 1", sim)
	}
	cases := []string{
		`<r><e><b/></e><m/><p>x</p><y/></r>`,  // EMPTY with content
		`<r><e/><m><zz/></m><p>x</p><y/></r>`, // disallowed element in mixed
		`<r><e/><m/><p><b/></p><y/></r>`,      // element child under #PCDATA
		`<r><e/><m/><p>x</p><y><zz/></y></r>`, // undeclared element under ANY
	}
	for _, src := range cases {
		if sim := e.GlobalSim(parseDoc(t, src)); sim >= 1 {
			t.Errorf("sim = %v, want < 1 for %s", sim, src)
		}
	}
}

func TestWeightConfiguration(t *testing.T) {
	d := dtd.MustParse(`<!ELEMENT a (b)> <!ELEMENT b EMPTY>`)
	root := parseDoc(t, `<a><b/><z/></a>`) // one plus element
	lenient := Config{CommonWeight: 1, PlusWeight: 0, MinusWeight: 1, Decay: 0.5, MaxDepth: 64}
	strict := Config{CommonWeight: 1, PlusWeight: 5, MinusWeight: 1, Decay: 0.5, MaxDepth: 64}
	if sim := NewEvaluator(d, lenient).GlobalSim(root); sim != 1 {
		t.Errorf("plus weight 0: sim = %v, want 1", sim)
	}
	def := NewEvaluator(d, DefaultConfig()).GlobalSim(root)
	if sim := NewEvaluator(d, strict).GlobalSim(root); !(sim < def) {
		t.Errorf("plus weight 5: sim = %v, want < default %v", sim, def)
	}
}

func TestTripleEvalEdgeCases(t *testing.T) {
	cfg := DefaultConfig()
	if got := cfg.Eval(Triple{}); got != 1 {
		t.Errorf("E(0,0,0) = %v, want 1", got)
	}
	if got := cfg.Eval(Triple{Plus: 3}); got != 0 {
		t.Errorf("E(3,0,0) = %v, want 0", got)
	}
	if got := cfg.Eval(Triple{Common: 2, Plus: 1, Minus: 1}); got != 0.5 {
		t.Errorf("E = %v, want 0.5", got)
	}
}

func TestRecursiveDTDDoesNotHang(t *testing.T) {
	d := dtd.MustParse(`<!ELEMENT tree (leaf, tree?)> <!ELEMENT leaf EMPTY>`)
	e := NewEvaluator(d, DefaultConfig())
	if sim := e.GlobalSim(parseDoc(t, `<tree><leaf/><tree><leaf/></tree></tree>`)); sim != 1 {
		t.Errorf("recursive valid doc sim = %v, want 1", sim)
	}
	// Mutually recursive required elements: required weight must not loop.
	d2 := dtd.MustParse(`<!ELEMENT a (b)> <!ELEMENT b (a)>`)
	e2 := NewEvaluator(d2, DefaultConfig())
	if sim := e2.GlobalSim(parseDoc(t, `<a/>`)); sim >= 1 || sim < 0 {
		t.Errorf("sim = %v, want in [0, 1)", sim)
	}
}

// --- randomized agreement with the validator ---

// instantiate builds a valid child sequence for a model, recursively
// instantiating subelement declarations.
func instantiate(r *rand.Rand, d *dtd.DTD, model *dtd.Content, depth int) []*xmltree.Node {
	if model == nil || depth > 6 {
		return nil
	}
	switch model.Kind {
	case dtd.Empty, dtd.Any:
		return nil
	case dtd.PCDATA:
		return []*xmltree.Node{xmltree.NewText("pcdata")}
	case dtd.Name:
		n := xmltree.NewElement(model.Name)
		if decl, ok := d.Elements[model.Name]; ok {
			n.Children = instantiate(r, d, decl, depth+1)
		}
		return []*xmltree.Node{n}
	case dtd.Seq:
		var out []*xmltree.Node
		for _, ch := range model.Children {
			out = append(out, instantiate(r, d, ch, depth)...)
		}
		return out
	case dtd.Choice:
		pick := model.Children[r.Intn(len(model.Children))]
		if pick.Kind == dtd.PCDATA { // mixed content: also legal to emit nothing
			return nil
		}
		return instantiate(r, d, pick, depth)
	case dtd.Opt:
		if r.Intn(2) == 0 {
			return nil
		}
		return instantiate(r, d, model.Children[0], depth)
	case dtd.Star:
		var out []*xmltree.Node
		for i := r.Intn(3); i > 0; i-- {
			out = append(out, instantiate(r, d, model.Children[0], depth)...)
		}
		return out
	case dtd.Plus:
		var out []*xmltree.Node
		for i := 1 + r.Intn(2); i > 0; i-- {
			out = append(out, instantiate(r, d, model.Children[0], depth)...)
		}
		return out
	}
	return nil
}

var corpusDTD = dtd.MustParse(`
<!ELEMENT doc (head, body)>
<!ELEMENT head (title, meta*)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT meta EMPTY>
<!ELEMENT body (section+)>
<!ELEMENT section (heading?, (para | list)*)>
<!ELEMENT heading (#PCDATA)>
<!ELEMENT para (#PCDATA | em)*>
<!ELEMENT em (#PCDATA)>
<!ELEMENT list (item+)>
<!ELEMENT item (#PCDATA)>`)

func init() { corpusDTD.Name = "doc" }

// mutate applies a random structural mutation to a random element.
func mutate(r *rand.Rand, root *xmltree.Node) {
	var elems []*xmltree.Node
	root.Walk(func(n *xmltree.Node, _ int) bool {
		if n.IsElement() {
			elems = append(elems, n)
		}
		return true
	})
	n := elems[r.Intn(len(elems))]
	switch r.Intn(3) {
	case 0: // insert a novel element
		n.Children = append(n.Children, xmltree.NewElement("novel"))
	case 1: // drop a child, if any
		if len(n.Children) > 0 {
			i := r.Intn(len(n.Children))
			n.Children = append(n.Children[:i], n.Children[i+1:]...)
		}
	case 2: // duplicate a child, if any
		if len(n.Children) > 0 {
			i := r.Intn(len(n.Children))
			n.Children = append(n.Children, n.Children[i].Clone())
		}
	}
}

// agreesWithValidator reports whether root scores in [0, 1] against d,
// and at 1 exactly when the validator accepts it, logging a disagreement.
func agreesWithValidator(t *testing.T, d *dtd.DTD, root *xmltree.Node) bool {
	t.Helper()
	sim := NewEvaluator(d, DefaultConfig()).GlobalSim(root)
	valid := len(validate.New(d).ValidateElement(root)) == 0
	if sim < 0 || sim > 1 || valid != (sim == 1) {
		t.Logf("valid %v at similarity %v under\n%s%s", valid, sim, d, root.Indent())
		return false
	}
	return true
}

// TestPropertySimilarityAgreesWithValidator: global similarity 1 coincides
// with validity. It checks mutated instances of a fixed DTD, then random
// DTDs, the DTDs evolution makes of them, and Go-built variants nesting
// ANY in the root's model, against mutated and drifted documents.
func TestPropertySimilarityAgreesWithValidator(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		root := xmltree.NewElement("doc")
		root.Children = instantiate(r, corpusDTD, corpusDTD.Elements["doc"], 0)
		for k := r.Intn(4); k > 0; k-- {
			mutate(r, root)
		}
		return agreesWithValidator(t, corpusDTD, root)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	for seed := int64(1); seed <= 60; seed++ {
		gcfg := gen.DefaultConfig(seed)
		gcfg.MaxDepth = 6
		g := gen.New(gcfg)
		d := g.RandomDTD("root", 8)
		docs := append(g.MutatedDocuments(d, 10, 2, 0.6), g.MutatedDocuments(g.Drift(d, 3), 10, 1, 0.3)...)
		rec := record.New(d)
		for _, doc := range docs {
			rec.Record(doc)
		}
		ecfg := evolve.DefaultConfig()
		ecfg.Psi = []float64{0.15, 0.4}[seed%2]
		evolved, _ := evolve.Evolve(rec, ecfg)
		nested := d.Clone()
		nested.Elements[d.Name] = dtd.NewSeq(nested.Elements[d.Name], dtd.NewAny())
		for _, model := range []*dtd.DTD{d, evolved, nested} {
			for i, doc := range docs {
				if !agreesWithValidator(t, model, doc.Root) {
					t.Fatalf("seed %d, document %d", seed, i)
				}
			}
		}
	}
}

func TestPropertyMoreMutationsLowerSimilarity(t *testing.T) {
	// Not strictly monotone per step, but adding five mutations to a valid
	// document must never leave similarity at 1.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		root := xmltree.NewElement("doc")
		root.Children = instantiate(r, corpusDTD, corpusDTD.Elements["doc"], 0)
		// Insert novel elements only (always a real deviation).
		var elems []*xmltree.Node
		root.Walk(func(n *xmltree.Node, _ int) bool {
			if n.IsElement() {
				elems = append(elems, n)
			}
			return true
		})
		for i := 0; i < 5; i++ {
			n := elems[r.Intn(len(elems))]
			n.Children = append(n.Children, xmltree.NewElement("novel"))
		}
		e := NewEvaluator(corpusDTD, DefaultConfig())
		sim := e.GlobalSim(root)
		return sim < 1 && sim >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
