package similarity

import (
	"fmt"
	"testing"

	"dtdevolve/internal/dtd"
	"dtdevolve/internal/gen"
	"dtdevolve/internal/xmltree"
)

// TestBoundDominatesEvaluatedSimilarity is the soundness property the
// candidate index relies on: for any document rooted at the declared root,
// the evaluated global similarity never exceeds Bound.Max fed with the
// document's true common total (as cmax) and true plus total (as pmin) —
// and the underlying inequality c + m ≥ 1 + RootRequired holds on the
// aligner's chosen optimum.
func TestBoundDominatesEvaluatedSimilarity(t *testing.T) {
	cfgs := []Config{
		DefaultConfig(),
		{CommonWeight: 2, PlusWeight: 0.5, MinusWeight: 1.5, Decay: 0.7, MaxDepth: 64, MinTagSimilarity: 0.5},
		// A shallow cap: the bound must stay sound when the aligner stops
		// charging below MaxDepth.
		{CommonWeight: 1, PlusWeight: 1, MinusWeight: 1, Decay: 0.5, MaxDepth: 3, MinTagSimilarity: 0.5},
	}
	g := gen.New(gen.DefaultConfig(7))
	for seed := 0; seed < 6; seed++ {
		d := g.RandomDTD(fmt.Sprintf("root%d", seed), 4+seed*3)
		if seed%2 == 1 {
			d = g.Drift(d, 3)
		}
		docs := g.MutatedDocuments(d, 25, 3, 0.8)
		for ci, cfg := range cfgs {
			pool := NewPool(d, cfg)
			b := pool.Bound()
			if !b.Exactable() {
				t.Fatalf("cfg %d unexpectedly not exactable", ci)
			}
			for di, doc := range docs {
				if doc.Root == nil || doc.Root.Name != d.Name {
					continue
				}
				res := pool.Evaluate(doc.Root)
				if res.Triple.Common <= 0 {
					continue // never scored (root undeclared)
				}
				tr := res.Triple
				if got, want := tr.Common+tr.Minus, 1+b.RootRequired(); got < want-1e-9 {
					t.Errorf("cfg %d doc %d: c+m = %g < 1+RootRequired = %g", ci, di, got, want)
				}
				if ub := b.Max(tr.Common, tr.Plus); res.Global > ub+1e-9 {
					t.Errorf("cfg %d doc %d: global %g exceeds bound %g", ci, di, res.Global, ub)
				}
			}
		}
	}
}

// TestBoundRequiredCycles pins the bound on DTDs whose root requires
// itself: the aligner skips such a reference at its cycle-cut required
// weight, so RootRequired must not charge the cycle once per level down to
// the cap. Both documents scored above a bound that did: 0.249 against
// 0.015, and at decay 1 0.5 against 0.031.
func TestBoundRequiredCycles(t *testing.T) {
	cases := []struct {
		dtd, root, doc string
		decay          float64
	}{
		{`<!ELEMENT e (e+, e, g)+> <!ELEMENT g ANY> <!ELEMENT c EMPTY>`, "e",
			`<e><a/><g>text<d><e><e/><g>text</g></e><e/><a><a/></a></d><a>text<e><c/><c/><a/></e></a></g></e>`, 0.5},
		{`<!ELEMENT b (b+, c?)>`, "b", `<b><c/></b>`, 1},
	}
	for _, tc := range cases {
		d := dtd.MustParse(tc.dtd)
		d.Name = tc.root
		cfg := DefaultConfig()
		cfg.Decay = tc.decay
		pool := NewPool(d, cfg)
		b := pool.Bound()
		doc, err := xmltree.ParseString(tc.doc)
		if err != nil {
			t.Fatal(err)
		}
		res := pool.Evaluate(doc.Root)
		tr := res.Triple
		if got, want := tr.Common+tr.Minus, 1+b.RootRequired(); got < want-1e-9 {
			t.Errorf("%s at decay %g: c+m = %g < 1+RootRequired = %g", tc.root, tc.decay, got, want)
		}
		if ub := b.Max(tr.Common, tr.Plus); res.Global > ub+1e-9 {
			t.Errorf("%s at decay %g: global %g exceeds bound %g", tc.root, tc.decay, res.Global, ub)
		}
	}
}

// TestBoundMaxProperties pins the algebra of Max: range, the zero case,
// and monotonicity in both arguments (the index feeds progressively
// tighter cmax estimates and relies on tighter never meaning larger).
func TestBoundMaxProperties(t *testing.T) {
	d := dtd.MustParse(`
<!ELEMENT doc (head, para+)>
<!ELEMENT head (#PCDATA)>
<!ELEMENT para (#PCDATA)>`)
	d.Name = "doc" // as a DOCTYPE-extracted DTD would carry
	b := NewPool(d, DefaultConfig()).Bound()
	if got := b.Max(0, 0); got != 0 {
		t.Errorf("Max(0,0) = %g, want 0", got)
	}
	if b.RootRequired() <= 0 {
		t.Errorf("RootRequired = %g, want > 0 for a mandatory model", b.RootRequired())
	}
	prev := -1.0
	for c := 0.25; c <= 20; c += 0.25 {
		ub := b.Max(c, 1)
		if ub < 0 || ub > 1 {
			t.Fatalf("Max(%g,1) = %g out of range", c, ub)
		}
		if ub < prev {
			t.Fatalf("Max not monotone in cmax at %g: %g < %g", c, ub, prev)
		}
		prev = ub
	}
	prev = 2
	for p := 0.0; p <= 20; p += 0.5 {
		ub := b.Max(3, p)
		if ub > prev {
			t.Fatalf("Max not anti-monotone in pmin at %g: %g > %g", p, ub, prev)
		}
		prev = ub
	}
}

// TestBoundThesaurusDisablesPruning: with a thesaurus the bound's
// reasoning (exact-match label accounting) does not apply, so Max must
// degrade to the trivial bound 1.
func TestBoundThesaurusDisablesPruning(t *testing.T) {
	d := dtd.MustParse(`<!ELEMENT doc (#PCDATA)>`)
	cfg := DefaultConfig()
	cfg.TagSimilarity = func(a, c string) float64 { return 0.9 }
	b := NewPool(d, cfg).Bound()
	if b.Exactable() {
		t.Fatal("thesaurus configuration reported exactable")
	}
	if got := b.Max(0.1, 100); got != 1 {
		t.Errorf("non-exactable Max = %g, want 1", got)
	}
}
