package similarity

// Equivalence tests for the streaming evaluator (stream.go): driven over
// the events a tree walk produces, StreamEval must reproduce the tree
// evaluator's Global degree and root triple bit-for-bit (==, not within an
// epsilon), and its per-element validity must match the recorder's
// decl != nil && LocalValid test at every element, at every depth.

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"dtdevolve/internal/dtd"
	"dtdevolve/internal/gen"
	"dtdevolve/internal/validate"
	"dtdevolve/internal/xmltree"
)

// streamScore replays the event stream of root into a StreamEval,
// computing weighted sizes exactly as the streaming consumer does, and
// returns the result plus the per-element validity bits in close order.
func streamScore(p *Pool, cfg Config, root *xmltree.Node, degradeAt int) (Result, []bool) {
	se := p.GetStream()
	defer p.PutStream(se)
	var valids []bool
	closed := 0
	var walk func(n *xmltree.Node) float64
	walk = func(n *xmltree.Node) float64 {
		se.Start(p.Table().Intern(n.Name))
		sum := 0.0
		for _, c := range n.Children {
			switch c.Kind {
			case xmltree.Element:
				sum += walk(c)
			case xmltree.Text:
				se.Text(strings.TrimSpace(c.Data) != "")
				sum++
			}
		}
		if closed == degradeAt {
			se.DegradeTop()
		}
		closed++
		w := 1 + cfg.Decay*sum
		valids = append(valids, se.End(w))
		return w
	}
	walk(root)
	return se.Result(), valids
}

// treeValids collects the recorder's validity bit for every element of the
// tree, in the same element-close order the stream emits.
func treeValids(d *dtd.DTD, root *xmltree.Node) []bool {
	v := validate.New(d)
	var out []bool
	var walk func(n *xmltree.Node)
	walk = func(n *xmltree.Node) {
		for _, c := range n.Children {
			if c.Kind == xmltree.Element {
				walk(c)
			}
		}
		model := d.Elements[n.Name]
		out = append(out, model != nil && v.LocalValid(n, model))
	}
	walk(root)
	return out
}

func checkStreamEquivalent(t *testing.T, label string, p *Pool, d *dtd.DTD, cfg Config, root *xmltree.Node) {
	t.Helper()
	want := p.Evaluate(root)
	got, valids := streamScore(p, cfg, root, -1)
	if got.Global != want.Global || got.Triple != want.Triple {
		t.Errorf("%s: stream %+v, tree %+v", label, got, want)
	}
	wantValids := treeValids(d, root)
	if len(valids) != len(wantValids) {
		t.Fatalf("%s: %d stream validity bits, %d tree elements", label, len(valids), len(wantValids))
	}
	for i := range valids {
		if valids[i] != wantValids[i] {
			t.Errorf("%s: element %d validity stream=%v tree=%v", label, i, valids[i], wantValids[i])
		}
	}
}

// TestStreamEvalMatchesEvaluateCorpus runs the streaming evaluator over
// the full testdata corpus, including cross-family scoring (undeclared
// roots and tags).
func TestStreamEvalMatchesEvaluateCorpus(t *testing.T) {
	feedDTD, feedDocs := corpus(t, filepath.Join("..", "..", "testdata", "feeds"))
	playDTD, playDocs := corpus(t, filepath.Join("..", "..", "testdata", "plays"))
	cfg := DefaultConfig()
	for _, set := range []struct {
		name string
		d    *dtd.DTD
	}{{"feeds", feedDTD}, {"plays", playDTD}} {
		p := NewPool(set.d, cfg)
		for i, doc := range append(append([]*xmltree.Document{}, feedDocs...), playDocs...) {
			checkStreamEquivalent(t, fmt.Sprintf("%s vs doc %d", set.name, i), p, set.d, cfg, doc.Root)
		}
	}
}

// TestStreamEvalMatchesEvaluateRandom fuzzes the streaming evaluator with
// generated DTDs and heavily mutated documents, one pooled StreamEval
// reused across documents so stale frame state would surface as drift.
func TestStreamEvalMatchesEvaluateRandom(t *testing.T) {
	cfg := DefaultConfig()
	for seed := int64(1); seed <= 5; seed++ {
		g := gen.New(gen.DefaultConfig(seed))
		a := g.RandomDTD("root", 8)
		b := g.RandomDTD("root", 6)
		pa, pb := NewPool(a, cfg), NewPool(b, cfg)
		for i, doc := range g.MutatedDocuments(a, 10, 3, 0.7) {
			checkStreamEquivalent(t, fmt.Sprintf("seed %d A/A doc %d", seed, i), pa, a, cfg, doc.Root)
			checkStreamEquivalent(t, fmt.Sprintf("seed %d B/A doc %d", seed, i), pb, b, cfg, doc.Root)
		}
		for i, doc := range g.MutatedDocuments(b, 10, 3, 0.7) {
			checkStreamEquivalent(t, fmt.Sprintf("seed %d B/B doc %d", seed, i), pb, b, cfg, doc.Root)
		}
	}
}

// TestStreamEvalShallowDepthCap pins the depth-cap semantics: triples stop
// at MaxDepth but validity keeps being computed below it.
func TestStreamEvalShallowDepthCap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxDepth = 2
	g := gen.New(gen.DefaultConfig(11))
	d := g.RandomDTD("root", 8)
	p := NewPool(d, cfg)
	for i, doc := range g.MutatedDocuments(d, 8, 4, 0.8) {
		checkStreamEquivalent(t, fmt.Sprintf("doc %d", i), p, d, cfg, doc.Root)
	}
}

// TestStreamEvalNestedAny covers a content model with ANY nested under a
// sequence, which only Go code can build: the validity run and the
// alignment both read it as the empty sequence, so the streaming path may
// defer the DP on it and must still score and validate as the tree path
// does.
func TestStreamEvalNestedAny(t *testing.T) {
	d := dtd.NewDTD("root")
	d.Elements["root"] = &dtd.Content{Kind: dtd.Seq, Children: []*dtd.Content{
		{Kind: dtd.Name, Name: "a"},
		{Kind: dtd.Any},
	}}
	d.Elements["a"] = &dtd.Content{Kind: dtd.PCDATA}
	cfg := DefaultConfig()
	p := NewPool(d, cfg)
	for _, text := range []string{
		"<root><a>x</a></root>",
		"<root><a>x</a><b/><c/></root>",
		"<root><b/></root>",
	} {
		doc, err := xmltree.ParseString(text)
		if err != nil {
			t.Fatal(err)
		}
		checkStreamEquivalent(t, text, p, d, cfg, doc.Root)
	}
}

// TestStreamEvalDegrade pins the budget-degradation semantics: degrading a
// content frame scores it exactly as an ANY declaration would (the set
// summary), and the degraded element reports invalid.
func TestStreamEvalDegrade(t *testing.T) {
	cfg := DefaultConfig()
	g := gen.New(gen.DefaultConfig(3))
	d := g.RandomDTD("root", 8)
	anyD := dtd.NewDTD(d.Name)
	for name, model := range d.Elements {
		anyD.Elements[name] = model
	}
	anyD.Elements["root"] = &dtd.Content{Kind: dtd.Any}
	p := NewPool(d, cfg)
	pAny := NewPool(anyD, cfg)
	if !isElementContent(d.Elements["root"]) {
		t.Skip("generated root model is not element content")
	}
	for i, doc := range g.MutatedDocuments(d, 6, 3, 0.7) {
		// Degrade the root frame (the last element to close).
		n := countElements(doc.Root)
		got, valids := streamScore(p, cfg, doc.Root, n-1)
		want := pAny.Evaluate(doc.Root)
		if got.Global != want.Global {
			t.Errorf("doc %d: degraded root scored %v, ANY model scores %v", i, got.Global, want.Global)
		}
		if valids[len(valids)-1] {
			t.Errorf("doc %d: degraded root reported valid", i)
		}
	}
}

func countElements(n *xmltree.Node) int {
	c := 1
	for _, ch := range n.Children {
		if ch.Kind == xmltree.Element {
			c += countElements(ch)
		}
	}
	return c
}
