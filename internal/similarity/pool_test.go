package similarity

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"dtdevolve/internal/dtd"
	"dtdevolve/internal/intern"
	"dtdevolve/internal/xmltree"
)

// TestEvaluateClearsTriMemo is the regression test for the evaluator memo
// leak: triMemo is keyed by live document nodes, so a long-lived evaluator
// reused across documents must not retain entries (and thus whole document
// trees) after Evaluate returns.
func TestEvaluateClearsTriMemo(t *testing.T) {
	d := dtd.MustParse(`
<!ELEMENT doc (sec, sec, sec)>
<!ELEMENT sec (title?, para*)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT para (#PCDATA)>`)
	e := NewEvaluator(d, DefaultConfig())
	for i := 0; i < 5; i++ {
		root := parseDoc(t, `<doc><sec><title>t</title><para>p</para></sec><sec/><sec><para>q</para></sec></doc>`)
		if sim := e.Evaluate(root).Global; sim <= 0 {
			t.Fatalf("document %d: unexpected similarity %v", i, sim)
		}
		if n := len(e.triMemo); n != 0 {
			t.Fatalf("document %d: triMemo retains %d entries after Evaluate", i, n)
		}
	}
}

func TestAlignChildrenClearsTriMemo(t *testing.T) {
	d := dtd.MustParse(`
<!ELEMENT doc (a, b)>
<!ELEMENT a (#PCDATA)>
<!ELEMENT b (a)>`)
	e := NewEvaluator(d, DefaultConfig())
	root := parseDoc(t, `<doc><a>x</a><b><a>y</a></b></doc>`)
	ops := e.AlignChildren(d.Elements["doc"], root.ChildElements())
	if len(ops) == 0 {
		t.Fatal("expected alignment ops")
	}
	if n := len(e.triMemo); n != 0 {
		t.Fatalf("triMemo retains %d entries after AlignChildren", n)
	}
}

// TestPoolMatchesStandaloneEvaluator checks that pooled evaluators, which
// share precompiled automata and required-weight tables, score exactly like
// a fresh standalone evaluator.
func TestPoolMatchesStandaloneEvaluator(t *testing.T) {
	d := dtd.MustParse(`
<!ELEMENT doc (head, section+)>
<!ELEMENT head (title, meta*)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT meta EMPTY>
<!ELEMENT section (heading?, (para | list)*)>
<!ELEMENT heading (#PCDATA)>
<!ELEMENT para (#PCDATA)>
<!ELEMENT list (item+)>
<!ELEMENT item (#PCDATA)>`)
	docs := []string{
		`<doc><head><title>t</title></head><section><para>p</para></section></doc>`,
		`<doc><head><title>t</title><meta/></head><section><heading>h</heading><list><item>i</item></list></section></doc>`,
		`<doc><section><para>p</para><extra/></section></doc>`,
		`<other><para>p</para></other>`,
	}
	p := NewPool(d, DefaultConfig())
	for _, src := range docs {
		root := parseDoc(t, src)
		want := NewEvaluator(d, DefaultConfig()).Evaluate(root)
		got := p.Evaluate(root)
		if math.Abs(got.Global-want.Global) > 1e-12 || math.Abs(got.Local-want.Local) > 1e-12 {
			t.Errorf("%s: pool = (%v, %v), standalone = (%v, %v)",
				src, got.Global, got.Local, want.Global, want.Local)
		}
	}
}

// TestPoolConcurrent hammers one pool from many goroutines and checks every
// result against the serial answer (run with -race).
func TestPoolConcurrent(t *testing.T) {
	d := dtd.MustParse(`
<!ELEMENT doc (sec+)>
<!ELEMENT sec (title, para*)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT para (#PCDATA)>`)
	docs := make([]string, 8)
	for i := range docs {
		docs[i] = `<doc>`
		for j := 0; j <= i; j++ {
			docs[i] += fmt.Sprintf(`<sec><title>t%d</title><para>p</para></sec>`, j)
		}
		docs[i] += `<stray/></doc>`
	}
	roots := make([]*xmltree.Node, len(docs))
	want := make([]float64, len(docs))
	p := NewPool(d, DefaultConfig())
	for i, src := range docs {
		roots[i] = parseDoc(t, src)
		want[i] = NewEvaluator(d, DefaultConfig()).GlobalSim(roots[i])
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := (g + i) % len(docs)
				if got := p.GlobalSim(roots[k]); math.Abs(got-want[k]) > 1e-12 {
					errs <- fmt.Sprintf("doc %d: got %v, want %v", k, got, want[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestPoolRequiredWeightsDeterministic: on a cycle of required elements a
// required weight depends on where its computation enters the cycle, so a
// pool computes them in declaration order. Every pool built from the DTD
// then scores <root/> alike, and as a fresh standalone evaluator does,
// whose computation enters the cycle from the root too.
func TestPoolRequiredWeightsDeterministic(t *testing.T) {
	d := dtd.MustParse(`
<!ELEMENT root (a)>
<!ELEMENT a (b, c)>
<!ELEMENT b (a)>
<!ELEMENT c (b)>`)
	d.Name = "root"
	root := parseDoc(t, `<root/>`)
	want := NewEvaluator(d, DefaultConfig()).GlobalSim(root)
	for i := 0; i < 200; i++ {
		if got := NewPool(d, DefaultConfig()).GlobalSim(root); got != want {
			t.Fatalf("pool %d scores <root/> %v, a standalone evaluator %v", i, got, want)
		}
	}
}

// TestEvaluatorScoresLikePool pins a standalone evaluator to a pool's
// scores on a cycle of required elements, whatever it scored before: a
// fresh evaluator scores <c/> as a pool does, and <root/> the same fresh
// and after scoring <c/>.
func TestEvaluatorScoresLikePool(t *testing.T) {
	d := dtd.MustParse(`
<!ELEMENT root (a)>
<!ELEMENT a (b, c)>
<!ELEMENT b (a)>
<!ELEMENT c (b)>`)
	d.Name = "root"
	c, root := parseDoc(t, `<c/>`), parseDoc(t, `<root/>`)
	pool := NewPool(d, DefaultConfig())
	if got, want := NewEvaluator(d, DefaultConfig()).GlobalSim(c), pool.GlobalSim(c); got != want {
		t.Errorf("a fresh evaluator scores <c/> %v, a pool %v", got, want)
	}
	fresh := NewEvaluator(d, DefaultConfig()).GlobalSim(root)
	e := NewEvaluator(d, DefaultConfig())
	e.GlobalSim(c)
	if after := e.GlobalSim(root); after != fresh {
		t.Errorf("<root/> scores %v fresh but %v after scoring <c/>", fresh, after)
	}
	if want := pool.GlobalSim(root); fresh != want {
		t.Errorf("an evaluator scores <root/> %v, a pool %v", fresh, want)
	}
}

// sizedDTD is the DTD whose pools the byte tests below measure.
const sizedDTD = `
<!ELEMENT doc (head, sec+, back?)>
<!ELEMENT head (title, author*)>
<!ELEMENT sec (title, (para | list)*, sec*)>
<!ELEMENT list (item+)>
<!ELEMENT back (note | ref)*>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT para (#PCDATA | em)*>`

// TestPoolBytesIndependentOfTable pins that a pool's tables are sized by
// its DTD: building one on a table that already holds 100,000 other symbols
// allocates within 10% of building it on a table holding only the DTD's
// labels.
func TestPoolBytesIndependentOfTable(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	d := dtd.MustParse(sizedDTD)
	filler := make([]string, 100000)
	for i := range filler {
		filler[i] = fmt.Sprintf("filler%06d", i)
	}
	small, big := intern.NewTable(), intern.NewTable()
	big.InternAll(filler)
	intern.InternDTD(small, d)
	intern.InternDTD(big, d)
	perPool := func(tab *intern.Table) float64 {
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			NewPoolWithTable(d, DefaultConfig(), tab)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	perPool(small) // warm up
	a, b := perPool(small), perPool(big)
	t.Logf("bytes per pool: %.0f on a fresh table, %.0f on a 100,000-symbol table", a, b)
	if b > 1.1*a {
		t.Errorf("a pool on a 100,000-symbol table allocates %.0f bytes, %.2fx the %.0f on a fresh table; want within 10%%", b, b/a, a)
	}
}

// TestPoolAutomataBytes pins the size of the automata a pool compiles:
// compiling the element-content models of sizedDTD allocates no more
// than the 5,416 bytes per round the similarity package's private
// alignment automaton took (Go 1.24, linux/amd64), before alignment moved
// onto validate's automaton. A registry holds one set per DTD.
func TestPoolAutomataBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	const privateBytes = 5416
	d := dtd.MustParse(sizedDTD)
	e := NewEvaluator(d, DefaultConfig()) // also memoizes the required weights
	var models []*dtd.Content
	for _, name := range d.Declared() {
		if m := d.Elements[name]; isElementContent(m) {
			models = append(models, m)
		}
	}
	const rounds = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		clear(e.autoMemo)
		for _, m := range models {
			e.compiled(m)
		}
	}
	runtime.ReadMemStats(&after)
	got := float64(after.TotalAlloc-before.TotalAlloc) / rounds
	t.Logf("compiling %d models: %.0f bytes per round (private automaton: %d)", len(models), got, privateBytes)
	if got > privateBytes {
		t.Errorf("compiling %d models allocates %.0f bytes per round, more than the %d of the private alignment automaton", len(models), got, privateBytes)
	}
}
