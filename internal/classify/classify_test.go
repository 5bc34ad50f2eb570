package classify

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"dtdevolve/internal/dtd"
	"dtdevolve/internal/similarity"
	"dtdevolve/internal/xmltree"
)

func parseDoc(t *testing.T, src string) *xmltree.Document {
	t.Helper()
	doc, err := xmltree.ParseString(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return doc
}

func testDTDs() map[string]*dtd.DTD {
	catalog := dtd.MustParse(`
<!ELEMENT catalog (product+)>
<!ELEMENT product (name, price)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT price (#PCDATA)>`)
	catalog.Name = "catalog"
	article := dtd.MustParse(`
<!ELEMENT article (title, body)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT body (#PCDATA)>`)
	article.Name = "article"
	return map[string]*dtd.DTD{"catalog": catalog, "article": article}
}

func newClassifier(sigma float64) *Classifier {
	c := New(sigma, similarity.DefaultConfig())
	for name, d := range testDTDs() {
		c.Set(name, d)
	}
	return c
}

func TestClassifyValidDocuments(t *testing.T) {
	c := newClassifier(0.7)
	cases := map[string]string{
		`<catalog><product><name>x</name><price>1</price></product></catalog>`: "catalog",
		`<article><title>t</title><body>b</body></article>`:                    "article",
	}
	for src, want := range cases {
		res := c.Classify(parseDoc(t, src))
		if !res.Classified || res.DTDName != want || res.Similarity != 1 {
			t.Errorf("Classify(%s) = %+v, want %s with similarity 1", src, res, want)
		}
	}
}

func TestClassifyNearMiss(t *testing.T) {
	c := newClassifier(0.5)
	// A product catalog missing prices: similar to catalog, not article.
	res := c.Classify(parseDoc(t, `<catalog><product><name>x</name></product></catalog>`))
	if res.DTDName != "catalog" || !res.Classified {
		t.Errorf("res = %+v, want classified in catalog", res)
	}
	if res.Similarity >= 1 {
		t.Errorf("similarity = %v, want < 1", res.Similarity)
	}
	if res.All != nil {
		t.Errorf("Classify filled All (%v); exhaustive scores are opt-in", res.All)
	}
	all := c.ClassifyExhaustive(parseDoc(t, `<catalog><product><name>x</name></product></catalog>`))
	if sim, ok := all.All["article"]; !ok || sim != 0 {
		t.Errorf("similarity vs article = %v (present %v), want 0 (root mismatch)", sim, ok)
	}
	if all.DTDName != res.DTDName || all.Similarity != res.Similarity || all.Classified != res.Classified {
		t.Errorf("exhaustive result %+v differs from pruned %+v", all, res)
	}
}

func TestClassifyBelowThresholdGoesUnclassified(t *testing.T) {
	c := newClassifier(0.95)
	res := c.Classify(parseDoc(t, `<catalog><junk/><junk/><junk/></catalog>`))
	if res.Classified {
		t.Errorf("res = %+v, want unclassified at σ = 0.95", res)
	}
	if res.DTDName != "catalog" {
		t.Errorf("best DTD = %q, want catalog even when below threshold", res.DTDName)
	}
}

func TestClassifyUnknownRoot(t *testing.T) {
	c := newClassifier(0.3)
	res := c.Classify(parseDoc(t, `<mystery><a/></mystery>`))
	if res.Classified || res.Similarity != 0 {
		t.Errorf("res = %+v, want unclassified with similarity 0", res)
	}
}

func TestClassifyEmptySet(t *testing.T) {
	c := New(0.5, similarity.DefaultConfig())
	res := c.Classify(parseDoc(t, `<a/>`))
	if res.Classified || res.DTDName != "" {
		t.Errorf("res = %+v, want nothing on empty set", res)
	}
}

func TestSetReplaceAndRemove(t *testing.T) {
	c := newClassifier(0.5)
	if got := len(c.Names()); got != 2 {
		t.Fatalf("names = %v", c.Names())
	}
	relaxed := dtd.MustParse(`<!ELEMENT catalog ANY>`)
	relaxed.Name = "catalog"
	c.Set("catalog", relaxed)
	if c.DTD("catalog") != relaxed {
		t.Error("Set did not replace")
	}
	c.Remove("article")
	if got := len(c.Names()); got != 1 {
		t.Errorf("names after remove = %v", c.Names())
	}
	if c.Sigma() != 0.5 {
		t.Errorf("sigma = %v", c.Sigma())
	}
}

func TestValidatorClassifierBaseline(t *testing.T) {
	vc := NewValidator(testDTDs())
	if name, ok := vc.Classify(parseDoc(t, `<article><title>t</title><body>b</body></article>`)); !ok || name != "article" {
		t.Errorf("valid doc: %q, %v", name, ok)
	}
	// The paper's core argument: a slightly deviating document is rejected
	// outright by the validator baseline...
	deviant := parseDoc(t, `<article><title>t</title><subtitle>s</subtitle><body>b</body></article>`)
	if _, ok := vc.Classify(deviant); ok {
		t.Error("validator accepted a non-valid document")
	}
	// ...but retained by the similarity classifier.
	c := newClassifier(0.6)
	if res := c.Classify(deviant); !res.Classified || res.DTDName != "article" {
		t.Errorf("similarity classifier lost the deviant document: %+v", res)
	}
}

// TestClassifyConcurrent runs many concurrent classifications (with a Set
// replacing a DTD in flight) and checks each result is internally
// consistent and matches one of the two possible DTD-set states. Run with
// -race.
func TestClassifyConcurrent(t *testing.T) {
	c := newClassifier(0.5)
	docs := []*xmltree.Document{
		parseDoc(t, `<article><title>t</title><body>b</body></article>`),
		parseDoc(t, `<catalog><product><name>n</name><price>1</price></product></catalog>`),
		parseDoc(t, `<article><title>t</title><body>b</body><extra>x</extra></article>`),
	}
	want := make([]Result, len(docs))
	for i, doc := range docs {
		want[i] = c.Classify(doc)
	}
	done := make(chan struct{})
	go func() { // churn the set while classifications run
		defer close(done)
		d := testDTDs()["article"]
		for i := 0; i < 50; i++ {
			c.Set("article", d)
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := (g + i) % len(docs)
				got := c.Classify(docs[k])
				if got.DTDName != want[k].DTDName || got.Similarity != want[k].Similarity {
					errs <- fmt.Sprintf("doc %d: got (%s, %v), want (%s, %v)",
						k, got.DTDName, got.Similarity, want[k].DTDName, want[k].Similarity)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	<-done
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestSetNilModel registers a DTD built in Go whose root declaration holds
// a nil model. Registration must not panic, the pruned classification must
// agree with the exhaustive one, and the scores read the nil model as ANY:
// a declared child scores 1, an undeclared one 2/3.
func TestSetNilModel(t *testing.T) {
	d := dtd.NewDTD("r")
	d.Elements["r"] = nil
	d.Elements["a"] = dtd.NewEmpty()
	c := New(0.5, similarity.DefaultConfig())
	c.Set("x", d)
	for src, sim := range map[string]float64{`<r><a/></r>`: 1, `<r/>`: 1, `<r><b/></r>`: 2.0 / 3} {
		doc, err := xmltree.ParseString(src)
		if err != nil {
			t.Fatal(err)
		}
		got, want := c.Classify(doc), c.ClassifyExhaustive(doc)
		if got.DTDName != want.DTDName || got.Similarity != want.Similarity || got.Classified != want.Classified {
			t.Errorf("%s: Classify (%q, %v, %v) != ClassifyExhaustive (%q, %v, %v)", src,
				got.DTDName, got.Similarity, got.Classified, want.DTDName, want.Similarity, want.Classified)
		}
		if math.Abs(got.Similarity-sim) > 1e-12 {
			t.Errorf("%s: similarity %v, want %v", src, got.Similarity, sim)
		}
	}
}
