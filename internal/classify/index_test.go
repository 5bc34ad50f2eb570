package classify

// Tests of the index's storage: dense slots reused across Remove and
// re-Set, the pooled per-classification workspace, signatures sized by their
// DTD, and the registry shapes generated DTDs never have — rootless DTDs,
// ANY content, references to undeclared labels.

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dtdevolve/internal/dtd"
	"dtdevolve/internal/gen"
	"dtdevolve/internal/intern"
	"dtdevolve/internal/similarity"
	"dtdevolve/internal/xmltree"
)

// shapeVocab is the label vocabulary of shapeDTD and shapeDoc. It is small,
// so registries overlap heavily and most DTDs are real candidates.
var shapeVocab = []string{"a", "b", "c", "d", "e", "f", "g"}

// shapeDTD returns a random DTD over shapeVocab that mixes the shapes the
// index handles specially: no declared root (a quarter of them), a root
// the DTD does not declare, ANY elements, and content models that
// reference undeclared labels.
func shapeDTD(r *rand.Rand) *dtd.DTD {
	declared := slices.Clone(shapeVocab)
	r.Shuffle(len(declared), func(i, j int) { declared[i], declared[j] = declared[j], declared[i] })
	declared = declared[:2+r.Intn(4)]
	pick := func() string { return shapeVocab[r.Intn(len(shapeVocab))] }
	var b strings.Builder
	for _, el := range declared {
		var model string
		switch r.Intn(6) {
		case 0:
			model = "ANY"
		case 1:
			model = "EMPTY"
		case 2:
			model = "(#PCDATA)"
		case 3:
			model = fmt.Sprintf("(#PCDATA | %s | %s)*", pick(), pick())
		default:
			parts := make([]string, 1+r.Intn(3))
			for i := range parts {
				parts[i] = pick() + []string{"", "?", "*", "+"}[r.Intn(4)]
			}
			sep := ", "
			if r.Intn(3) == 0 {
				sep = " | "
			}
			model = "(" + strings.Join(parts, sep) + ")" + []string{"", "*", "+"}[r.Intn(3)]
		}
		fmt.Fprintf(&b, "<!ELEMENT %s %s>\n", el, model)
	}
	d := dtd.MustParse(b.String())
	switch r.Intn(8) {
	case 0, 1:
		d.Name = "" // rootless: the declared set gates the root
	case 2:
		d.Name = pick() // possibly undeclared
	default:
		d.Name = declared[r.Intn(len(declared))]
	}
	return d
}

// shapeDoc returns a random document over shapeVocab plus one label no DTD
// uses, up to four levels deep, with some text.
func shapeDoc(t testing.TB, r *rand.Rand) *xmltree.Document {
	var b strings.Builder
	var emit func(level int)
	emit = func(level int) {
		tag := "zz"
		if r.Intn(12) > 0 {
			tag = shapeVocab[r.Intn(len(shapeVocab))]
		}
		b.WriteString("<" + tag + ">")
		if r.Intn(3) == 0 {
			b.WriteString("text")
		}
		if level < 4 {
			for n := r.Intn(4); n > 0; n-- {
				emit(level + 1)
			}
		}
		b.WriteString("</" + tag + ">")
	}
	emit(0)
	doc, err := xmltree.ParseString(b.String())
	if err != nil {
		t.Fatalf("parse %q: %v", b.String(), err)
	}
	return doc
}

// FuzzClassifyMatchesExhaustive builds a random registry of shapeDTDs and
// runs a script of operations over it: registrations, removals (of the
// smallest name too), replacements and clones, interleaved with
// classifications that must equal ClassifyExhaustive. Removals free slots
// that later registrations reuse, and the registry grows past the size of
// the workspace earlier classifications left in the pool. A quarter of the
// registries use a decay so small that every weight below the root
// underflows to 0, so an overlap weight of 0 cannot mean "untouched", and
// a quarter use decay 1.
func FuzzClassifyMatchesExhaustive(f *testing.F) {
	f.Add(int64(1), []byte{0, 5, 0, 1, 6, 2, 7, 3, 5, 4, 6, 0, 0, 0, 7})
	f.Add(int64(2), []byte{4, 4, 5, 2, 2, 6, 1, 1, 1, 1, 7})
	f.Add(int64(3), []byte{3, 3, 3, 5, 6, 7, 0, 0, 0, 0, 0, 0, 5})
	f.Add(int64(4), []byte{})
	f.Add(int64(148), []byte{0, 6, 0, 7, 1, 5, 6, 14, 22, 30, 38, 46, 54, 62})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		if len(script) > 64 {
			script = script[:64]
		}
		r := rand.New(rand.NewSource(seed))
		sigma := []float64{0.2, 0.5, 0.8}[r.Intn(3)]
		cfg := similarity.DefaultConfig()
		switch r.Intn(4) {
		case 0:
			cfg.Decay = 1e-200 // weights below the root underflow to 0
		case 1:
			cfg.Decay = 1 // a required cycle weighs the same at every level
		}
		c := New(sigma, cfg)
		docs := make([]*xmltree.Document, 8)
		for i := range docs {
			docs[i] = shapeDoc(t, r)
		}
		next := 0
		add := func(d *dtd.DTD) {
			c.Set(fmt.Sprintf("d%03d", next), d)
			next++
		}
		classifyAll := func(label string) {
			for i, doc := range docs {
				assertSame(t, c, doc, fmt.Sprintf("%s doc%d", label, i))
			}
		}
		for n := 1 + r.Intn(6); n > 0; n-- {
			add(shapeDTD(r))
		}
		classifyAll("initial")
		for step, op := range script {
			names := c.Names()
			pick := func() string { return names[int(op>>3)%len(names)] }
			switch op % 8 {
			case 0, 1:
				add(shapeDTD(r))
			case 2:
				if len(names) > 0 {
					c.Remove(pick())
				}
			case 3:
				if len(names) > 0 {
					c.Set(pick(), shapeDTD(r))
				}
			case 4:
				if len(names) > 0 {
					c.Remove(names[0])
				}
			case 5:
				if len(names) > 0 {
					add(c.DTD(pick())) // a clone ties with its original
				}
			default:
				doc := docs[int(op>>3)%len(docs)]
				assertSame(t, c, doc, fmt.Sprintf("step %d", step))
			}
		}
		classifyAll("after script")
		for n := len(c.Names()) + 1; n > 0; n-- {
			add(shapeDTD(r))
		}
		classifyAll("after growth")
	})
}

// TestClassifyChurnConcurrent classifies from several goroutines while
// another churns the registry: it registers, replaces and removes clones
// of the registered DTDs under names that sort after every original. A
// clone scores exactly as its original and loses every tie to it, so each
// classification must still equal the exhaustive result from before the
// churn, while the clones take and free slots under the readers. Run with
// -race.
func TestClassifyChurnConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	c := New(0.5, similarity.DefaultConfig())
	originals := make([]*dtd.DTD, 24)
	for i := range originals {
		originals[i] = shapeDTD(r)
		c.Set(fmt.Sprintf("a%02d", i), originals[i])
	}
	docs := make([]*xmltree.Document, 12)
	want := make([]Result, len(docs))
	for i := range docs {
		docs[i] = shapeDoc(t, r)
		want[i] = c.ClassifyExhaustive(docs[i])
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 300; i++ {
			name := fmt.Sprintf("z%02d", i%40)
			if i%3 == 2 {
				c.Remove(name)
			} else {
				c.Set(name, originals[(i*7)%len(originals)])
			}
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				k := (g + i) % len(docs)
				got := c.Classify(docs[k])
				if got.DTDName != want[k].DTDName || got.Similarity != want[k].Similarity || got.Classified != want[k].Classified {
					errs <- fmt.Sprintf("doc %d: got (%q, %v, %v), want (%q, %v, %v)", k,
						got.DTDName, got.Similarity, got.Classified, want[k].DTDName, want[k].Similarity, want[k].Classified)
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
	for i, doc := range docs {
		assertSame(t, c, doc, fmt.Sprintf("after churn doc%d", i))
	}
}

// TestMinNameTracksRemoval pins the all-zero fold across removals: a
// document no DTD can score goes to the smallest registered name, which
// must follow Remove of the smallest name, a re-Set, and a registration of
// a smaller one, in agreement with ClassifyExhaustive.
func TestMinNameTracksRemoval(t *testing.T) {
	c := newClassifier(0.5)
	doc := parseDoc(t, `<mystery><a/></mystery>`)
	check := func(wantName string) {
		t.Helper()
		assertSame(t, c, doc, "want "+wantName)
		if got := c.Classify(doc); got.DTDName != wantName || got.Similarity != 0 {
			t.Errorf("all-zero fold = (%q, %v), want (%q, 0)", got.DTDName, got.Similarity, wantName)
		}
	}
	check("article")
	c.Remove("article")
	check("catalog")
	c.Set("article", testDTDs()["article"])
	check("article")
	c.Set("aardvark", testDTDs()["catalog"])
	check("aardvark")
	c.Set("aardvark", testDTDs()["article"])
	check("aardvark")
	c.Remove("aardvark")
	c.Remove("article")
	check("catalog")
	c.Remove("catalog")
	check("")
}

// TestUnknownRootCostIndependentOfRegistry times the classification of a
// document whose root no DTD declares against 1,000 generated DTDs and
// against the first 10 of them, and compares the medians. Such a document
// scores 0 everywhere and goes to the smallest registered name; finding
// that name by a scan of the registry reads 12–18 here.
func TestUnknownRootCostIndependentOfRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("registers 1,000 DTDs")
	}
	g := gen.New(gen.DefaultConfig(11))
	small, big := New(0.7, similarity.DefaultConfig()), New(0.7, similarity.DefaultConfig())
	for i := 0; i < 1000; i++ {
		name, d := fmt.Sprintf("solo%03d", i), g.RandomDTD(fmt.Sprintf("s%03d", i), 6)
		big.Set(name, d)
		if i < 10 {
			small.Set(name, d)
		}
	}
	doc := parseDoc(t, `<mystery><a/><b>text</b></mystery>`)
	if got := big.Classify(doc); got.DTDName != "solo000" || got.Similarity != 0 {
		t.Fatalf("unknown root: got (%q, %v), want (\"solo000\", 0)", got.DTDName, got.Similarity)
	}
	// Batches alternate between the two registries, so a slow spell of
	// the host lands on both medians.
	medians := func() (time.Duration, time.Duration) {
		const batches, per = 101, 20
		var times [2][batches]time.Duration
		for i := 0; i < batches; i++ {
			for k, c := range []*Classifier{small, big} {
				start := time.Now()
				for j := 0; j < per; j++ {
					c.Classify(doc)
				}
				times[k][i] = time.Since(start) / per
			}
		}
		slices.Sort(times[0][:])
		slices.Sort(times[1][:])
		return times[0][batches/2], times[1][batches/2]
	}
	var ratio float64
	for trial := 0; trial < 3; trial++ {
		a, b := medians()
		ratio = float64(b) / float64(a)
		t.Logf("median Classify of an unknown root: %v against 10 DTDs, %v against 1,000 (ratio %.2f)", a, b, ratio)
		if ratio < 3 {
			return
		}
	}
	t.Errorf("an unknown-root document costs %.1fx more against 1,000 DTDs than against 10, want < 3", ratio)
}

// TestExtractSigAllocs pins that signature extraction into a reused buffer
// allocates nothing once the buffer has grown to the document.
func TestExtractSigAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	doc := parseDoc(t, `<catalog><product><name>x</name><price>1</price></product>`+
		`<product><name>y</name><price>2</price><note><b>n</b></note></product><extra/></catalog>`)
	tab := intern.NewTable()
	tab.InternAll([]string{"catalog", "product", "name", "price", "note"})
	v := tab.View()
	var buf sigBuf
	buf.extractSig(doc.Root, v, 0.5, 64)
	if allocs := testing.AllocsPerRun(100, func() { buf.extractSig(doc.Root, v, 0.5, 64) }); allocs != 0 {
		t.Errorf("extractSig into a reused buffer: %v allocs/op, want 0", allocs)
	}
}

// TestClassifyAllocsIndependentOfProcs pins that a pruned classification
// allocates the same at every GOMAXPROCS: it scores its plan on the
// caller's goroutine, so nothing is allocated per core. Each classifier is
// built after GOMAXPROCS is set, so anything it sized by the core count
// would show. Scoring helper goroutines, one closure each, read 2, 3 and
// 5 allocs/op here at GOMAXPROCS 1, 2 and 4.
func TestClassifyAllocsIndependentOfProcs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	g := gen.New(gen.DefaultConfig(9))
	dtds := make([]*dtd.DTD, 12)
	for i := range dtds {
		dtds[i] = g.RandomDTD("hub", 6)
	}
	doc := g.MutatedDocuments(dtds[0], 1, 2, 0.6)[0]
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	allocs := make(map[int]float64)
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		c := New(0.7, similarity.DefaultConfig())
		for i, d := range dtds {
			c.Set(fmt.Sprintf("hub%02d", i), d)
		}
		c.Classify(doc) // grow the pooled workspace
		if plan := c.Stats().Candidates; plan < 5 {
			t.Fatalf("the plan holds %d entries, want at least 5", plan)
		}
		allocs[procs] = testing.AllocsPerRun(100, func() { c.Classify(doc) })
	}
	t.Logf("allocs/op at GOMAXPROCS 1, 2, 4: %v, %v, %v", allocs[1], allocs[2], allocs[4])
	if allocs[2] != allocs[1] || allocs[4] != allocs[1] {
		t.Errorf("Classify allocates %v, %v and %v objects at GOMAXPROCS 1, 2 and 4, want the same at each",
			allocs[1], allocs[2], allocs[4])
	}
}

// sizedDTD is a small document DTD for the registration byte gate.
const sizedDTD = `
<!ELEMENT doc (head, sec+, back?)>
<!ELEMENT head (title, author*)>
<!ELEMENT sec (title, (para | list)*, sec*)>
<!ELEMENT list (item+)>
<!ELEMENT item (#PCDATA | em)*>
<!ELEMENT back (note | ref)*>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT para (#PCDATA | em)*>
<!ELEMENT em ANY>`

// TestSetBytesIndependentOfTable pins that a registration is sized by its
// DTD: Set on a table that already holds 100,000 other symbols allocates
// within 10% of Set on a table holding only the DTD's labels. Signatures
// with label bitsets as wide as the table read 13,675 bytes per Set on the
// fresh table and 122,145 on the 100,000-symbol one (Go 1.24,
// linux/amd64).
func TestSetBytesIndependentOfTable(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	d := dtd.MustParse(sizedDTD)
	d.Name = "doc"
	filler := make([]string, 100000)
	for i := range filler {
		filler[i] = fmt.Sprintf("filler%06d", i)
	}
	small, big := intern.NewTable(), intern.NewTable()
	big.InternAll(filler)
	intern.InternDTD(small, d)
	intern.InternDTD(big, d)
	perSet := func(tab *intern.Table) float64 {
		c := NewWithTable(0.7, similarity.DefaultConfig(), tab)
		c.Set("doc", d) // the slot and posting lists exist from here on
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			c.Set("doc", d)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	perSet(small) // warm up
	a, b := perSet(small), perSet(big)
	t.Logf("bytes per Set: %.0f on a fresh table, %.0f on a 100,000-symbol table", a, b)
	if b > 1.1*a {
		t.Errorf("Set on a 100,000-symbol table allocates %.0f bytes, %.2fx the %.0f on a fresh table; want within 10%%", b, b/a, a)
	}
}
