package classify

// Equivalence tests for the candidate-pruning index (DESIGN.md §12): in the
// exact mode, Classify must be bit-identical to exhaustive scoring — same
// winner, same similarity, same classified bit — on real corpora, on
// synthetic registries with heavy root sharing, across threshold settings,
// and across the registry churn (evolution re-Sets, removals) of a live
// source. The index is only allowed to change how much work runs.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dtdevolve/internal/dtd"
	"dtdevolve/internal/gen"
	"dtdevolve/internal/similarity"
	"dtdevolve/internal/xmltree"
)

// assertSame classifies doc both ways and fails unless the results agree
// exactly. It also checks the winner is reported among the scored
// candidates whenever it scored above zero, and that no DTD is reported
// twice.
func assertSame(t *testing.T, c *Classifier, doc *xmltree.Document, label string) {
	t.Helper()
	got := c.Classify(doc)
	want := c.ClassifyExhaustive(doc)
	if got.DTDName != want.DTDName || got.Similarity != want.Similarity || got.Classified != want.Classified {
		t.Errorf("%s: pruned (%q, %v, %v) != exhaustive (%q, %v, %v)",
			label, got.DTDName, got.Similarity, got.Classified,
			want.DTDName, want.Similarity, want.Classified)
		return
	}
	seen := make(map[string]bool, len(got.Candidates))
	for _, cand := range got.Candidates {
		if seen[cand.Name] {
			t.Errorf("%s: %q scored twice in candidates %v", label, cand.Name, got.Candidates)
		}
		seen[cand.Name] = true
	}
	if got.Similarity > 0 {
		found := false
		for _, cand := range got.Candidates {
			if cand.Name == got.DTDName && cand.Similarity == got.Similarity {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: winner %q (%v) missing from candidates %v", label, got.DTDName, got.Similarity, got.Candidates)
		}
	}
}

func loadCorpusDTD(t *testing.T, path, root string) *dtd.DTD {
	t.Helper()
	d, err := dtd.ParseFile(path)
	if err != nil {
		t.Fatalf("ParseFile(%s): %v", path, err)
	}
	d.Name = root
	return d
}

func loadCorpusDocs(t *testing.T, dir string) map[string]*xmltree.Document {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	docs := make(map[string]*xmltree.Document)
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".xml") {
			continue
		}
		doc, err := xmltree.ParseFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("parse %s: %v", e.Name(), err)
		}
		docs[e.Name()] = doc
	}
	return docs
}

// TestEquivalenceCorpus drives the real testdata corpora through a registry
// padded with generated noise DTDs, at permissive, default and strict
// thresholds.
func TestEquivalenceCorpus(t *testing.T) {
	feed := loadCorpusDTD(t, "../../testdata/feeds/feed.dtd", "feed")
	play := loadCorpusDTD(t, "../../testdata/plays/play.dtd", "play")
	g := gen.New(gen.DefaultConfig(1))
	noise := make(map[string]*dtd.DTD, 40)
	for i := 0; i < 40; i++ {
		noise[fmt.Sprintf("noise%02d", i)] = g.RandomDTD(fmt.Sprintf("n%02d", i), 5)
	}
	for _, sigma := range []float64{0.3, 0.7, 0.95} {
		c := New(sigma, similarity.DefaultConfig())
		c.Set("feed", feed)
		c.Set("play", play)
		for name, d := range noise {
			c.Set(name, d)
		}
		for _, dir := range []string{"../../testdata/feeds", "../../testdata/plays"} {
			for name, doc := range loadCorpusDocs(t, dir) {
				assertSame(t, c, doc, fmt.Sprintf("σ=%v %s", sigma, name))
			}
		}
	}
}

// TestEquivalenceSyntheticChurn covers the registry shapes the corpus
// cannot: many DTDs sharing one root (so the index must rank real
// competitors, not just gate on roots), documents that fit nothing, and the
// churn sequence of a live source — evolution replacing DTDs in place, then
// removals — after which the rebuilt index must still agree with the
// oracle.
func TestEquivalenceSyntheticChurn(t *testing.T) {
	g := gen.New(gen.DefaultConfig(42))
	dtds := make(map[string]*dtd.DTD)
	for i := 0; i < 30; i++ {
		dtds[fmt.Sprintf("solo%02d", i)] = g.RandomDTD(fmt.Sprintf("r%02d", i), 6)
	}
	for i := 0; i < 10; i++ {
		dtds[fmt.Sprintf("shared%02d", i)] = g.RandomDTD("common", 6)
	}
	var docs []*xmltree.Document
	for _, name := range []string{"solo00", "solo07", "shared03", "shared08"} {
		d := dtds[name]
		docs = append(docs, g.Documents(d, 3)...)
		docs = append(docs, g.MutatedDocuments(d, 5, 3, 0.8)...)
	}
	docs = append(docs, parseDoc(t, `<unknownroot><a/><b>t</b></unknownroot>`))

	names := make([]string, 0, len(dtds))
	for name := range dtds {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, sigma := range []float64{0.3, 0.7, 0.95} {
		c := New(sigma, similarity.DefaultConfig())
		for _, name := range names {
			c.Set(name, dtds[name])
		}
		for i, doc := range docs {
			assertSame(t, c, doc, fmt.Sprintf("σ=%v doc%d", sigma, i))
		}
		// Evolution: replace three DTDs with drifted successors; Set must
		// re-sign and re-index them.
		for _, name := range []string{"solo00", "shared03", "shared08"} {
			c.Set(name, g.Drift(dtds[name], 3))
		}
		for i, doc := range docs {
			assertSame(t, c, doc, fmt.Sprintf("σ=%v post-drift doc%d", sigma, i))
		}
		// Removal: drop a winner and a shared-root competitor; their
		// postings must vanish from the index.
		c.Remove("solo07")
		c.Remove("shared08")
		for i, doc := range docs {
			assertSame(t, c, doc, fmt.Sprintf("σ=%v post-remove doc%d", sigma, i))
		}
	}
}

// TestEquivalenceTieBreak pins the tie rule: equal similarities resolve to
// the lexicographically smallest DTD name on both paths, regardless of
// registration or scoring order.
func TestEquivalenceTieBreak(t *testing.T) {
	src := `
<!ELEMENT doc (a, b)>
<!ELEMENT a (#PCDATA)>
<!ELEMENT b (#PCDATA)>`
	mk := func() *dtd.DTD {
		d := dtd.MustParse(src)
		d.Name = "doc"
		return d
	}
	c := New(0.5, similarity.DefaultConfig())
	c.Set("b", mk()) // registered first, must still lose the tie
	c.Set("a", mk())
	doc := parseDoc(t, `<doc><a>x</a><b>y</b></doc>`)
	got := c.Classify(doc)
	want := c.ClassifyExhaustive(doc)
	if got.DTDName != "a" || want.DTDName != "a" {
		t.Errorf("tie winners: pruned %q, exhaustive %q, want both \"a\"", got.DTDName, want.DTDName)
	}
	if got.Similarity != want.Similarity || got.Similarity != 1 {
		t.Errorf("tie similarities: pruned %v, exhaustive %v, want both 1", got.Similarity, want.Similarity)
	}
}

// TestPruneEffectiveness asserts the index actually prunes: on a 300-DTD
// registry where 20 DTDs share the documents' root, classification must run
// at most a tenth of the exhaustive alignment count (the acceptance bar of
// the issue, at a third of its registry size).
func TestPruneEffectiveness(t *testing.T) {
	g := gen.New(gen.DefaultConfig(9))
	c := New(0.7, similarity.DefaultConfig())
	for i := 0; i < 280; i++ {
		c.Set(fmt.Sprintf("solo%03d", i), g.RandomDTD(fmt.Sprintf("p%03d", i), 6))
	}
	shared := make([]*dtd.DTD, 20)
	for i := range shared {
		shared[i] = g.RandomDTD("hub", 6)
		c.Set(fmt.Sprintf("hub%02d", i), shared[i])
	}
	for _, d := range shared[:5] {
		for _, doc := range g.MutatedDocuments(d, 10, 2, 0.6) {
			res := c.Classify(doc)
			if res.DTDName == "" {
				t.Fatalf("no winner for a hub document: %+v", res)
			}
		}
	}
	st := c.Stats()
	if st.Possible == 0 || st.Scored*10 > st.Possible {
		t.Errorf("scored %d of %d possible alignments (prune ratio %.3f), want ≥10× reduction",
			st.Scored, st.Possible, st.PruneRatio())
	}
	if st.Candidates >= st.Possible {
		t.Errorf("prefilter admitted %d candidates of %d possible: inverted index not filtering", st.Candidates, st.Possible)
	}
}
