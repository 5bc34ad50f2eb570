package validate

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"
	"time"

	"dtdevolve/internal/dtd"
	"dtdevolve/internal/xmltree"
)

var alphabet = []string{"a", "b", "c", "d"}

// randModel draws a content model of at most depth operator levels;
// choose(n) picks in [0, n). It nests no ANY: DTD text cannot, and a
// source refuses a DTD that does.
func randModel(choose func(int) int, depth int) *dtd.Content {
	if depth == 0 || choose(3) == 0 {
		switch choose(11) {
		case 0:
			return dtd.NewEmpty()
		case 1:
			return dtd.NewPCDATA()
		default:
			return dtd.NewName(alphabet[choose(len(alphabet))])
		}
	}
	switch choose(5) {
	case 0, 1:
		kids := make([]*dtd.Content, 1+choose(3))
		for i := range kids {
			kids[i] = randModel(choose, depth-1)
		}
		if choose(2) == 0 {
			return dtd.NewSeq(kids...)
		}
		return dtd.NewChoice(kids...)
	case 2:
		return dtd.NewOpt(randModel(choose, depth-1))
	case 3:
		return dtd.NewStar(randModel(choose, depth-1))
	default:
		return dtd.NewPlus(randModel(choose, depth-1))
	}
}

// randDeclaration is randModel plus the top-level shapes only a
// declaration takes: ANY, and mixed content, including a non-canonical
// one.
func randDeclaration(choose func(int) int) *dtd.Content {
	switch choose(9) {
	case 0:
		return dtd.NewStar(dtd.NewChoice(dtd.NewPCDATA(), dtd.NewName("a"), dtd.NewName("b")))
	case 1:
		return dtd.NewStar(dtd.NewChoice(dtd.NewPCDATA(), dtd.NewSeq(dtd.NewName("a"), dtd.NewName("c"))))
	case 2:
		return dtd.NewAny()
	default:
		return randModel(choose, 4)
	}
}

// randTags draws a child-tag sequence that includes an undeclared tag.
func randTags(choose func(int) int) []string {
	tags := make([]string, choose(9))
	for i := range tags {
		if choose(12) == 0 {
			tags[i] = "x"
		} else {
			tags[i] = alphabet[choose(len(alphabet))]
		}
	}
	return tags
}

// randElement wraps tags in an element, with text children mixed in.
func randElement(choose func(int) int, tags []string) *xmltree.Node {
	n := xmltree.NewElement("r")
	for _, tag := range tags {
		switch choose(10) {
		case 0:
			n.Children = append(n.Children, xmltree.NewText(" \n"))
		case 1:
			n.Children = append(n.Children, xmltree.NewText("text"))
		}
		n.Children = append(n.Children, xmltree.NewElement(tag))
	}
	return n
}

// checkAgainstLegacy fails t when the automaton and the legacy matcher
// decide model against tags (or the element built from them) differently.
func checkAgainstLegacy(t *testing.T, v *Validator, model *dtd.Content, tags []string, n *xmltree.Node) {
	t.Helper()
	if got, want := MatchModel(model, tags), legacyMatchModel(model, tags); got != want {
		t.Fatalf("MatchModel(%s, %v) = %v, legacy %v", model, tags, got, want)
	}
	if got, want := v.LocalValid(n, model), legacyLocalValid(n, model); got != want {
		t.Fatalf("LocalValid(%s, %s) = %v, legacy %v", model, n, got, want)
	}
}

func TestAutomatonMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 1))
	v := New(dtd.NewDTD("r"))
	pairs := 0
	for m := 0; m < 4000; m++ {
		model := randDeclaration(rng.IntN)
		for k := 0; k < 25; k++ {
			tags := randTags(rng.IntN)
			checkAgainstLegacy(t, v, model, tags, randElement(rng.IntN, tags))
			pairs++
		}
	}
	t.Logf("%d (model, sequence) pairs agree", pairs)
}

// byteChooser draws choices from fuzz input, then zeros once it runs out.
func byteChooser(data []byte) func(int) int {
	return func(n int) int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b) % n
	}
}

func FuzzLocalValid(f *testing.F) {
	f.Add([]byte{3, 0, 7, 4, 1, 9, 9, 2, 5, 8, 1, 6})
	f.Add([]byte{1, 4, 1, 3, 0, 7, 2, 8, 8, 8, 3, 3, 3})
	f.Add([]byte{0, 5})
	f.Add([]byte{2, 2, 4, 2, 11, 6, 0, 9, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		choose := byteChooser(data)
		model := randDeclaration(choose)
		tags := randTags(choose)
		checkAgainstLegacy(t, New(dtd.NewDTD("r")), model, tags, randElement(choose, tags))
	})
}

func TestAutomatonDecisions(t *testing.T) {
	a, b := dtd.NewName("a"), dtd.NewName("b")
	cases := []struct {
		model *dtd.Content
		tags  []string
		want  bool
	}{
		// ANY is a whole declaration; nested, it reads as the empty
		// sequence, as the alignment and the analyses read it.
		{dtd.NewAny(), []string{"a", "x", "y", "b"}, true},
		{dtd.NewSeq(a, dtd.NewAny(), b), []string{"a", "x", "y", "b"}, false},
		{dtd.NewSeq(a, dtd.NewAny(), b), []string{"a", "b"}, true},
		{dtd.NewSeq(a, dtd.NewAny(), b), []string{"a", "x"}, false},
		// A nullable + stays nullable.
		{dtd.NewSeq(dtd.NewPlus(dtd.NewOpt(a)), b), []string{"b"}, true},
		{dtd.NewPlus(dtd.NewSeq(dtd.NewStar(a), dtd.NewStar(b))), nil, true},
		// EMPTY and #PCDATA leaves match the empty sequence.
		{dtd.NewSeq(a, dtd.NewEmpty(), dtd.NewPCDATA(), b), []string{"a", "b"}, true},
	}
	for _, tc := range cases {
		if got := MatchModel(tc.model, tc.tags); got != tc.want {
			t.Errorf("MatchModel(%s, %v) = %v, want %v", tc.model, tc.tags, got, tc.want)
		}
	}
}

// wideElement is an element of n <event/> children ending in an
// undeclared <x/>.
func wideElement(n int) *xmltree.Node {
	root := xmltree.NewElement("log")
	for i := 0; i < n-1; i++ {
		root.Children = append(root.Children, xmltree.NewElement("event"))
	}
	root.Children = append(root.Children, xmltree.NewElement("x"))
	return root
}

// perChild is the best of five timings of LocalValid(n, model) in
// nanoseconds per child; each timing repeats the call for at least 20ms.
func perChild(v *Validator, n *xmltree.Node, model *dtd.Content) float64 {
	best := -1.0
	for trial := 0; trial < 5; trial++ {
		calls := 0
		start := time.Now()
		for time.Since(start) < 20*time.Millisecond {
			if v.LocalValid(n, model) {
				panic("a stray child must invalidate the element")
			}
			calls++
		}
		if d := float64(time.Since(start)) / float64(calls*len(n.Children)); best < 0 || d < best {
			best = d
		}
	}
	return best
}

// TestLocalValidLinear pins the linear bound: a stray last child after
// thousands of well-formed ones must cost the same per child at 500 and
// at 4,000 children.
func TestLocalValidLinear(t *testing.T) {
	d := dtd.MustParse(`<!ELEMENT log (event)*> <!ELEMENT event EMPTY>`)
	v := New(d)
	model := d.Elements["log"]
	small, large := wideElement(500), wideElement(4000)
	perChild(v, small, model) // warm up
	a, b := perChild(v, small, model), perChild(v, large, model)
	ratio := b / a
	t.Logf("per child: %.1fns at 500 children, %.1fns at 4,000 (ratio %.2f)", a, b, ratio)
	if ratio >= 3 {
		t.Errorf("per-child cost grows %.1fx from 500 to 4,000 children, want < 3", ratio)
	}
}

func TestLocalValidSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	d := dtd.MustParse(catalogDTD)
	v := New(d)
	doc := parseDoc(t, `<catalog><product><name>x</name><price>1</price><tag>t</tag><tag>u</tag></product></catalog>`)
	product := doc.Root.ChildElements()[0]
	v.LocalValid(doc.Root, d.Elements["catalog"])
	v.LocalValid(product, d.Elements["product"])
	allocs := testing.AllocsPerRun(100, func() {
		v.LocalValid(doc.Root, d.Elements["catalog"])
		v.LocalValid(product, d.Elements["product"])
	})
	if allocs != 0 {
		t.Errorf("LocalValid allocates %.1f objects/op at steady state, want 0", allocs)
	}
}

// TestLocalValidConcurrentCompile has many goroutines race to compile and
// run the same lazily cached automata (run it under -race).
func TestLocalValidConcurrentCompile(t *testing.T) {
	var decls strings.Builder
	for i := 0; i < 16; i++ {
		fmt.Fprintf(&decls, "<!ELEMENT e%d (a, (b | c)*, d?)>\n", i)
	}
	d := dtd.MustParse(decls.String())
	v := New(d)
	good := parseDoc(t, `<e><a/><b/><c/><b/><d/></e>`).Root
	bad := parseDoc(t, `<e><a/><d/><b/></e>`).Root
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				model := d.Elements[fmt.Sprintf("e%d", (i+g)%16)]
				if !v.LocalValid(good, model) || v.LocalValid(bad, model) {
					t.Errorf("wrong decision for %s", model)
					return
				}
			}
		}()
	}
	wg.Wait()
}
