package source

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dtdevolve/internal/adapt"
	"dtdevolve/internal/dtd"
	"dtdevolve/internal/validate"
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

func articleDTD() *dtd.DTD {
	d := dtd.MustParse(`
<!ELEMENT article (title, body)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT body (#PCDATA)>`)
	d.Name = "article"
	return d
}

func TestAddClassifiesAndRecords(t *testing.T) {
	s := New(DefaultConfig())
	s.AddDTD("article", articleDTD())
	res := s.Add(parseDoc(t, `<article><title>t</title><body>b</body></article>`))
	if !res.Classified || res.DTDName != "article" || res.Similarity != 1 {
		t.Fatalf("res = %+v", res)
	}
	st := s.Status()
	if len(st) != 1 || st[0].Docs != 1 {
		t.Errorf("status = %+v", st)
	}
}

func TestAddUnclassifiedGoesToRepository(t *testing.T) {
	s := New(DefaultConfig())
	s.AddDTD("article", articleDTD())
	res := s.Add(parseDoc(t, `<invoice><total>3</total></invoice>`))
	if res.Classified {
		t.Fatalf("res = %+v, want unclassified", res)
	}
	if s.RepositorySize() != 1 {
		t.Errorf("repository = %d, want 1", s.RepositorySize())
	}
}

// TestLifecycleEvolution reproduces the paper's scenario end to end: the
// document population drifts (every article gains an author element), the
// check phase notices once enough documents accumulated, the DTD evolves,
// and subsequent drifted documents are plainly valid.
func TestLifecycleEvolution(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MinDocs = 10
	s := New(cfg)
	s.AddDTD("article", articleDTD())

	drifted := `<article><title>t</title><author>a</author><body>b</body></article>`
	evolvedAt := -1
	for i := 0; i < 30; i++ {
		res := s.Add(parseDoc(t, drifted))
		if !res.Classified {
			t.Fatalf("doc %d went unclassified (similarity %v)", i, res.Similarity)
		}
		if res.Evolved {
			evolvedAt = i
			break
		}
	}
	if evolvedAt < 0 {
		t.Fatal("evolution never triggered")
	}
	// The evolved DTD accepts the drifted shape.
	d := s.DTD("article")
	v := validate.New(d)
	if vs := v.ValidateDocument(parseDoc(t, drifted)); len(vs) != 0 {
		t.Errorf("drifted doc still invalid after evolution: %v\n%s", vs, d)
	}
	if d.Elements["author"] == nil {
		t.Errorf("author not declared:\n%s", d)
	}
	// Status reflects the evolution and the recorder reset.
	st := s.Status()
	if st[0].Evolutions != 1 {
		t.Errorf("evolutions = %d, want 1", st[0].Evolutions)
	}
	if st[0].Docs != 0 {
		t.Errorf("docs after evolution = %d, want 0", st[0].Docs)
	}
}

func TestRepositoryRecoveryAfterEvolution(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Sigma = 0.6 // heavily drifted docs fall below this
	cfg.MinDocs = 10
	s := New(cfg)
	s.AddDTD("article", articleDTD())

	// Heavily drifted documents: six novel refs push similarity below σ.
	far := `<article><title>t</title><ref/><ref/><ref/><ref/><ref/><ref/><body>b</body></article>`
	for i := 0; i < 5; i++ {
		if res := s.Add(parseDoc(t, far)); res.Classified {
			t.Fatalf("far doc unexpectedly classified (sim %v)", res.Similarity)
		}
	}
	if s.RepositorySize() != 5 {
		t.Fatalf("repository = %d, want 5", s.RepositorySize())
	}
	// Mildly drifted documents accumulate and drive an evolution toward a
	// ref-bearing shape that also covers the repository documents.
	mild := `<article><title>t</title><ref/><ref/><body>b</body></article>`
	for i := 0; i < 15; i++ {
		s.Add(parseDoc(t, mild))
	}
	// Force the evolution for determinism.
	if _, _, err := s.EvolveNow("article"); err != nil {
		t.Fatal(err)
	}
	if s.RepositorySize() != 0 {
		t.Errorf("repository after evolution = %d, want 0 (recovered)", s.RepositorySize())
	}
}

func TestEvolveNowUnknownName(t *testing.T) {
	s := New(DefaultConfig())
	if _, _, err := s.EvolveNow("nope"); err == nil {
		t.Fatal("expected error for unknown DTD")
	}
}

func TestNeedsEvolution(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AutoEvolve = false
	cfg.MinDocs = 5
	s := New(cfg)
	s.AddDTD("article", articleDTD())
	drifted := `<article><title>t</title><author>a</author><body>b</body></article>`
	for i := 0; i < 4; i++ {
		s.Add(parseDoc(t, drifted))
	}
	if names := s.NeedsEvolution(); len(names) != 0 {
		t.Errorf("needs evolution below MinDocs: %v", names)
	}
	s.Add(parseDoc(t, drifted))
	if names := s.NeedsEvolution(); len(names) != 1 || names[0] != "article" {
		t.Errorf("needs evolution = %v, want [article]", names)
	}
	// Manual evolution clears the flag.
	if _, _, err := s.EvolveNow("article"); err != nil {
		t.Fatal(err)
	}
	if names := s.NeedsEvolution(); len(names) != 0 {
		t.Errorf("needs evolution after evolving: %v", names)
	}
}

func TestMultipleDTDsRouteDocuments(t *testing.T) {
	s := New(DefaultConfig())
	s.AddDTD("article", articleDTD())
	catalog := dtd.MustParse(`
<!ELEMENT catalog (product*)>
<!ELEMENT product (name)>
<!ELEMENT name (#PCDATA)>`)
	catalog.Name = "catalog"
	s.AddDTD("catalog", catalog)

	a := s.Add(parseDoc(t, `<article><title>t</title><body>b</body></article>`))
	c := s.Add(parseDoc(t, `<catalog><product><name>n</name></product></catalog>`))
	if a.DTDName != "article" || c.DTDName != "catalog" {
		t.Errorf("routing = %q, %q", a.DTDName, c.DTDName)
	}
}

func TestConcurrentAdds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MinDocs = 25
	s := New(cfg)
	s.AddDTD("article", articleDTD())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				src := fmt.Sprintf(`<article><title>t%d</title><author>a</author><body>b</body></article>`, i)
				doc, err := xmltree.ParseString(src)
				if err != nil {
					t.Error(err)
					return
				}
				s.Add(doc)
			}
		}(g)
	}
	wg.Wait()
	st := s.Status()
	if st[0].Evolutions == 0 {
		t.Error("no evolution under concurrent load")
	}
}

func TestSnapshotRestore(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MinDocs = 1000 // no auto evolution during the test
	s := New(cfg)
	s.AddDTD("article", articleDTD())
	drifted := `<article><title>t</title><author>a</author><body>b</body></article>`
	for i := 0; i < 8; i++ {
		s.Add(parseDoc(t, drifted))
	}
	s.Add(parseDoc(t, `<alien><x/></alien>`)) // repository
	data, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	restored, err := Restore(cfg, data)
	if err != nil {
		t.Fatal(err)
	}
	if restored.RepositorySize() != 1 {
		t.Errorf("restored repository = %d, want 1", restored.RepositorySize())
	}
	st, st2 := s.Status(), restored.Status()
	if len(st2) != 1 || st2[0].Docs != st[0].Docs || st2[0].CheckRatio != st[0].CheckRatio {
		t.Errorf("restored status = %+v, want %+v", st2, st)
	}
	// The restored recorder still drives an equivalent evolution.
	r1, _, err := restored.EvolveNow("article")
	if err != nil {
		t.Fatal(err)
	}
	r2, _, err := s.EvolveNow("article")
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Changes) != len(r2.Changes) {
		t.Errorf("restored evolution differs: %d vs %d changes", len(r1.Changes), len(r2.Changes))
	}
	if !restored.DTD("article").Equal(s.DTD("article")) {
		t.Errorf("restored evolution produced a different DTD:\n%s\nvs\n%s",
			restored.DTD("article"), s.DTD("article"))
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	if _, err := Restore(DefaultConfig(), []byte("{not json")); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
	if _, err := Restore(DefaultConfig(), []byte(`{"dtds":{"x":"<!ELEMENT broken"}}`)); err == nil {
		t.Fatal("snapshot with broken DTD accepted")
	}
}

func TestTriggerRulesDriveEvolution(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AutoEvolve = false // triggers replace the built-in policy
	s := New(cfg)
	s.AddDTD("article", articleDTD())
	if err := s.AddTriggerRule("on article when check_ratio > 0.2 and docs >= 8 do evolve"); err != nil {
		t.Fatal(err)
	}
	drifted := `<article><title>t</title><author>a</author><body>b</body></article>`
	fired := false
	firedAt := 0
	for i := 0; i < 20 && !fired; i++ {
		res := s.Add(parseDoc(t, drifted))
		if len(res.Triggered) > 0 {
			fired = true
			firedAt = i + 1
			if !res.Evolved {
				t.Error("trigger fired but no evolution")
			}
		}
	}
	if !fired {
		t.Fatal("trigger never fired")
	}
	if firedAt < 8 {
		t.Errorf("fired at doc %d, before the docs >= 8 condition", firedAt)
	}
	if s.DTD("article").Elements["author"] == nil {
		t.Error("evolved DTD lacks author")
	}
}

func TestTriggerInvalidityCondition(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AutoEvolve = false
	s := New(cfg)
	s.AddDTD("article", articleDTD())
	if err := s.AddTriggerRule("on * when invalidity(article) >= 1 and docs >= 3 do evolve"); err != nil {
		t.Fatal(err)
	}
	drifted := `<article><title>t</title><author>a</author><body>b</body></article>`
	var fired bool
	for i := 0; i < 5; i++ {
		if res := s.Add(parseDoc(t, drifted)); len(res.Triggered) > 0 {
			fired = true
		}
	}
	if !fired {
		t.Fatal("invalidity trigger never fired")
	}
}

func TestTriggerRuleManagement(t *testing.T) {
	s := New(DefaultConfig())
	if err := s.AddTriggerRule("on broken"); err == nil {
		t.Error("bad rule accepted")
	}
	if err := s.SetTriggerRules("on a when docs > 1 do evolve\non * when repository > 3 do reclassify"); err != nil {
		t.Fatal(err)
	}
	if got := s.TriggerRules(); len(got) != 2 {
		t.Errorf("rules = %v", got)
	}
	if err := s.SetTriggerRules("on broken"); err == nil {
		t.Error("bad rule list accepted")
	}
}

func TestStoreAndAdaptStored(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MinDocs = 8
	s := New(cfg)
	s.AddDTD("article", articleDTD())
	if err := s.EnableStore(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer s.CloseStore()

	// Era 1: old-style documents are stored as classified.
	old := `<article><title>t</title><body>b</body></article>`
	for i := 0; i < 5; i++ {
		s.Add(parseDoc(t, old))
	}
	// Era 2: drifted documents trigger an evolution toward the new shape.
	drifted := `<article><title>t</title><author>a</author><body>b</body></article>`
	evolved := false
	for i := 0; i < 20 && !evolved; i++ {
		evolved = s.Add(parseDoc(t, drifted)).Evolved
	}
	if !evolved {
		t.Fatal("no evolution")
	}
	stored := s.StoredDocs("article")
	if len(stored) < 6 {
		t.Fatalf("stored = %d", len(stored))
	}
	// If the evolved DTD requires the new shape, old stored documents can
	// be adapted to it; either way AdaptStored must leave every stored
	// document valid.
	opts := adapt.DefaultOptions()
	opts.PlaceholderText = "unknown"
	if _, err := s.AdaptStored("article", opts); err != nil {
		t.Fatal(err)
	}
	v := validate.New(s.DTD("article"))
	for i, doc := range s.StoredDocs("article") {
		if vs := v.ValidateDocument(doc); len(vs) != 0 {
			t.Errorf("stored doc %d invalid after AdaptStored: %v\n%s", i, vs, doc.Root.Indent())
		}
	}
}

func TestAdaptStoredErrors(t *testing.T) {
	s := New(DefaultConfig())
	s.AddDTD("article", articleDTD())
	if _, err := s.AdaptStored("article", adapt.DefaultOptions()); err == nil {
		t.Error("AdaptStored without a store should fail")
	}
	if err := s.EnableStore(""); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AdaptStored("nope", adapt.DefaultOptions()); err == nil {
		t.Error("AdaptStored of unknown DTD should fail")
	}
}

// TestScoringPanicReachesCaller: a panic raised while scoring a document —
// here by the caller's TagSimilarity — reaches the caller of Add, and of
// AddBatch, whose scoring runs on worker goroutines, with nothing
// committed. The source must go on serving: an AddDTD and a clean Add both
// finish afterwards. A read lock left held would block them; a panic left
// on a worker would kill the process.
func TestScoringPanicReachesCaller(t *testing.T) {
	const armedPanic = "tag similarity armed"
	for _, tc := range []struct {
		name string
		add  func(s *Source, doc *xmltree.Document)
	}{
		{"Add", func(s *Source, doc *xmltree.Document) { s.Add(doc) }},
		{"AddBatch", func(s *Source, doc *xmltree.Document) { s.AddBatch([]*xmltree.Document{doc, doc, doc}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var armed atomic.Bool
			cfg := DefaultConfig()
			cfg.Similarity.TagSimilarity = func(string, string) float64 {
				if armed.Load() {
					panic(armedPanic)
				}
				return 0
			}
			s := New(cfg)
			s.AddDTD("article", articleDTD())
			deviant := parseDoc(t, `<article><title>t</title><extra/><body>b</body></article>`)
			clean := parseDoc(t, `<article><title>t</title><body>b</body></article>`)
			armed.Store(true)
			p := func() (p any) {
				defer func() { p = recover() }()
				tc.add(s, deviant)
				return nil
			}()
			armed.Store(false)
			if p != armedPanic {
				t.Fatalf("%s panicked with %v, want %q", tc.name, p, armedPanic)
			}
			if n := s.Metrics().Added; n != 0 {
				t.Errorf("%d documents committed by the panicking call, want 0", n)
			}
			done := make(chan AddResult, 1)
			go func() {
				s.AddDTD("list", dtd.MustParse(`<!ELEMENT list (item+)><!ELEMENT item (#PCDATA)>`))
				done <- s.Add(clean)
			}()
			select {
			case res := <-done:
				if !res.Classified || res.DTDName != "article" {
					t.Errorf("clean Add after the panic = %+v, want classified in article", res)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("AddDTD and a clean Add did not finish within 10s of the panic")
			}
		})
	}
}
