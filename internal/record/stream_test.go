package record

// Equivalence tests for the streaming recorder (stream.go): a document
// streamed through a StreamRecorder and committed lane-by-lane must leave
// every Recorder in exactly the state Record(doc) would have — compared
// snapshot-deep and as JSON checkpoint bytes — including cross-family
// documents (undeclared roots, plus elements) and pooled reuse across
// documents.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dtdevolve/internal/dtd"
	"dtdevolve/internal/gen"
	"dtdevolve/internal/intern"
	"dtdevolve/internal/validate"
	"dtdevolve/internal/xmltree"
)

func loadCorpus(t *testing.T, dir string) (*dtd.DTD, []*xmltree.Document) {
	t.Helper()
	dtds, err := filepath.Glob(filepath.Join(dir, "*.dtd"))
	if err != nil || len(dtds) != 1 {
		t.Fatalf("globbing %s: %v (%d DTDs)", dir, err, len(dtds))
	}
	d, err := dtd.ParseFile(dtds[0])
	if err != nil {
		t.Fatal(err)
	}
	xmls, err := filepath.Glob(filepath.Join(dir, "*.xml"))
	if err != nil || len(xmls) == 0 {
		t.Fatalf("globbing %s: %v (%d docs)", dir, err, len(xmls))
	}
	var docs []*xmltree.Document
	for _, path := range xmls {
		doc, err := xmltree.ParseFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		docs = append(docs, doc)
	}
	return d, docs
}

// streamDoc replays doc's event stream into sr, computing each lane's
// validity bit the way the tree recorder does (decl != nil && LocalValid),
// and optionally degrading the element closed at index degradeAt.
func streamDoc(sr *StreamRecorder, vs []*validate.Validator, doc *xmltree.Document, degradeAt int) {
	sr.Begin()
	tab := sr.Table()
	valids := make([]bool, sr.Lanes())
	closed := 0
	var walk func(n *xmltree.Node)
	walk = func(n *xmltree.Node) {
		sr.Start(tab.Intern(n.Name), n.Name)
		for _, c := range n.Children {
			switch c.Kind {
			case xmltree.Element:
				walk(c)
			case xmltree.Text:
				sr.Text(strings.TrimSpace(c.Data) != "")
			}
		}
		if closed == degradeAt {
			sr.DegradeTop()
		}
		closed++
		for i := 0; i < sr.Lanes(); i++ {
			d := sr.Lane(i).DTD()
			decl := d.Elements[n.Name]
			valids[i] = closed-1 != degradeAt && decl != nil && vs[i].LocalValid(n, decl)
		}
		sr.End(valids)
	}
	walk(doc.Root)
}

// checkRecorders compares a tree recorder and a stream-committed recorder
// snapshot-deep and as checkpoint JSON bytes.
func checkRecorders(t *testing.T, label string, tree, stream *Recorder) {
	t.Helper()
	ts, ss := tree.Snapshot(), stream.Snapshot()
	if !reflect.DeepEqual(ts, ss) {
		t.Errorf("%s: snapshots differ", label)
		tj, _ := json.Marshal(ts)
		sj, _ := json.Marshal(ss)
		t.Logf("tree:   %s", tj)
		t.Logf("stream: %s", sj)
		return
	}
	tj, err := json.Marshal(ts)
	if err != nil {
		t.Fatal(err)
	}
	sj, err := json.Marshal(ss)
	if err != nil {
		t.Fatal(err)
	}
	if string(tj) != string(sj) {
		t.Errorf("%s: snapshot JSON differs\ntree:   %s\nstream: %s", label, tj, sj)
	}
}

// runEquivalence streams every document through one shared StreamRecorder
// (pooled-reuse shape), committing every lane, and requires each resulting
// recorder to match its tree twin exactly.
func runEquivalence(t *testing.T, label string, ds []*dtd.DTD, docs []*xmltree.Document) {
	t.Helper()
	tab := intern.NewTable()
	sr := NewStreamRecorder(tab)
	sr.SetLanes(ds)
	vs := make([]*validate.Validator, len(ds))
	treeRecs := make([]*Recorder, len(ds))
	streamRecs := make([]*Recorder, len(ds))
	for i, d := range ds {
		vs[i] = validate.New(d)
		treeRecs[i] = NewWithTable(d, tab)
		streamRecs[i] = NewWithTable(d, tab)
	}
	for di, doc := range docs {
		streamDoc(sr, vs, doc, -1)
		for i := range ds {
			want := treeRecs[i].Record(doc)
			got := sr.CommitTo(i, streamRecs[i])
			if got != want {
				t.Errorf("%s doc %d lane %d: DocResult stream %+v tree %+v", label, di, i, got, want)
			}
		}
	}
	for i := range ds {
		checkRecorders(t, fmt.Sprintf("%s lane %d", label, i), treeRecs[i], streamRecs[i])
	}
}

// TestStreamRecorderMatchesRecorderCorpus runs the streaming recorder over
// the full testdata corpus with both DTD lanes live, cross-family.
func TestStreamRecorderMatchesRecorderCorpus(t *testing.T) {
	feedDTD, feedDocs := loadCorpus(t, filepath.Join("..", "..", "testdata", "feeds"))
	playDTD, playDocs := loadCorpus(t, filepath.Join("..", "..", "testdata", "plays"))
	docs := append(append([]*xmltree.Document{}, feedDocs...), playDocs...)
	runEquivalence(t, "corpus", []*dtd.DTD{feedDTD, playDTD}, docs)
}

// TestStreamRecorderMatchesRecorderRandom fuzzes the streaming recorder
// with generated DTDs and heavily mutated documents (plus elements,
// repeated labels, undeclared tags) across multiple lanes.
func TestStreamRecorderMatchesRecorderRandom(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		g := gen.New(gen.DefaultConfig(seed))
		a := g.RandomDTD("root", 8)
		b := g.RandomDTD("root", 6)
		docs := append(g.MutatedDocuments(a, 10, 3, 0.7), g.MutatedDocuments(b, 10, 3, 0.7)...)
		runEquivalence(t, fmt.Sprintf("seed %d", seed), []*dtd.DTD{a, b}, docs)
	}
}

// TestStreamRecorderPaperExample2 re-runs the paper's Example 2 scenario
// through the streaming path and checks the recorded group/label structure
// against the tree recorder.
func TestStreamRecorderPaperExample2(t *testing.T) {
	d := dtd.MustParse(paperExample2DTD)
	d1 := parseDoc(t, `<a><b>1</b><c>1</c><b>2</b><c>2</c><d>x</d><d>y</d><d>z</d></a>`)
	d2 := parseDoc(t, `<a><b>1</b><c>1</c><e>w</e></a>`)
	runEquivalence(t, "example2", []*dtd.DTD{d},
		[]*xmltree.Document{d1, d1, d1, d2, d2})
}

// TestStreamRecorderDegradeDeterministic pins the degradation semantics:
// the same document degraded at the same element produces bit-identical
// recorder state on repeat runs (the property sdoc WAL replay relies on),
// and the degraded instance records as invalid.
func TestStreamRecorderDegradeDeterministic(t *testing.T) {
	g := gen.New(gen.DefaultConfig(7))
	d := g.RandomDTD("root", 8)
	docs := g.MutatedDocuments(d, 6, 3, 0.7)
	run := func() *Recorder {
		tab := intern.NewTable()
		sr := NewStreamRecorder(tab)
		sr.SetLanes([]*dtd.DTD{d})
		vs := []*validate.Validator{validate.New(d)}
		rec := NewWithTable(d, tab)
		for _, doc := range docs {
			// Degrade the root (last element to close).
			streamDoc(sr, vs, doc, countNodes(doc.Root)-1)
			sr.CommitTo(0, rec)
		}
		return rec
	}
	a, b := run(), run()
	aj, _ := json.Marshal(a.Snapshot())
	bj, _ := json.Marshal(b.Snapshot())
	if string(aj) != string(bj) {
		t.Errorf("degraded runs diverge:\n%s\n%s", aj, bj)
	}
	if st := a.Stats(d.Name); st != nil && st.ValidInstances != 0 {
		t.Errorf("degraded root recorded %d valid instances, want 0", st.ValidInstances)
	}
}

// TestStreamRecorderAbortViaBegin checks that a document abandoned
// mid-stream (parse error path) leaves no residue: Begin discards it and
// the next document records exactly as if the abort never happened.
func TestStreamRecorderAbortViaBegin(t *testing.T) {
	d := dtd.MustParse(paperExample2DTD)
	tab := intern.NewTable()
	sr := NewStreamRecorder(tab)
	sr.SetLanes([]*dtd.DTD{d})
	vs := []*validate.Validator{validate.New(d)}

	// Abandon a document with two open frames.
	sr.Begin()
	sr.Start(tab.Intern("a"), "a")
	sr.Start(tab.Intern("b"), "b")
	sr.Text(true)

	doc := parseDoc(t, `<a><b>1</b><c>1</c></a>`)
	streamDoc(sr, vs, doc, -1)
	stream := NewWithTable(d, tab)
	sr.CommitTo(0, stream)

	tree := NewWithTable(d, tab)
	tree.Record(doc)
	checkRecorders(t, "after abort", tree, stream)
}

// TestRecLaneCacheSizedByDTD streams documents full of labels the lane's
// DTD does not declare: the lane caches resolutions of declared elements
// only, so stray labels cannot grow it.
func TestRecLaneCacheSizedByDTD(t *testing.T) {
	d := dtd.MustParse(paperExample2DTD)
	tab := intern.NewTable()
	sr := NewStreamRecorder(tab)
	sr.SetLanes([]*dtd.DTD{d})
	vs := []*validate.Validator{validate.New(d)}
	for i := 0; i < 50; i++ {
		streamDoc(sr, vs, parseDoc(t, fmt.Sprintf(`<a><b/><c/><x%d><y%d/></x%d></a>`, i, i, i)), -1)
	}
	if n := len(sr.Lane(0).decls); n > len(d.Elements) {
		t.Errorf("lane caches %d resolutions, its DTD declares %d elements", n, len(d.Elements))
	}
}

func countNodes(n *xmltree.Node) int {
	c := 1
	for _, ch := range n.Children {
		if ch.Kind == xmltree.Element {
			c += countNodes(ch)
		}
	}
	return c
}

// streamCut streams doc into sr like streamDoc, but degrades the element
// with pre-order index i once cut[i] of its children (text included) have
// streamed — at close when cut[i] is past its last child, as the ingest
// budget does — and calls after, when non-nil, after every End. eager
// marks every element's nil-record as needed, as the recorder did before
// it skipped the ones no lane reads.
func streamCut(sr *StreamRecorder, vs []*validate.Validator, doc *xmltree.Document, cut map[int]int, eager bool, after func()) {
	sr.Begin()
	tab := sr.Table()
	valids := make([]bool, sr.Lanes())
	opened := 0
	var walk func(n *xmltree.Node)
	walk = func(n *xmltree.Node) {
		at, degrade := cut[opened]
		opened++
		sr.Start(tab.Intern(n.Name), n.Name)
		if eager {
			sr.frames[sr.n-1].needNil = true
		}
		for i, c := range n.Children {
			if degrade && i == at {
				sr.DegradeTop()
			}
			switch c.Kind {
			case xmltree.Element:
				walk(c)
			case xmltree.Text:
				sr.Text(strings.TrimSpace(c.Data) != "")
			}
		}
		if degrade && at >= len(n.Children) {
			sr.DegradeTop()
		}
		for i := 0; i < sr.Lanes(); i++ {
			decl := sr.Lane(i).DTD().Elements[n.Name]
			valids[i] = !degrade && decl != nil && vs[i].LocalValid(n, decl)
		}
		sr.End(valids)
		if after != nil {
			after()
		}
	}
	walk(doc.Root)
}

// eventLogDTDSrc is the log schema of the durable-stream workload.
const eventLogDTDSrc = `
<!ELEMENT log (event)*>
<!ELEMENT event (ts, level, msg, trace?)>
<!ELEMENT ts (#PCDATA)>
<!ELEMENT level (#PCDATA)>
<!ELEMENT msg (#PCDATA)>
<!ELEMENT trace (#PCDATA)>`

// eventLog is a valid log of n generated events (seed 42), the shape
// durable-stream ingests.
func eventLog(d *dtd.DTD, n int) *xmltree.Document {
	event := d.Clone()
	event.Name = "event"
	g := gen.New(gen.DefaultConfig(42))
	root := xmltree.NewElement("log")
	for i := 0; i < n; i++ {
		root.Children = append(root.Children, g.Document(event).Root)
	}
	return &xmltree.Document{Root: root}
}

// chainDTDSrc admits arbitrarily deep <s><t>x</t><s>…</s></s> chains.
const chainDTDSrc = `<!ELEMENT s (t, s?)> <!ELEMENT t (#PCDATA)>`

// nilRecords counts the slots of f's tally that hold a nil-record.
func nilRecords(f *recFrame) int {
	n := 0
	for _, s := range f.kids.slots {
		if s.nilRec != nil {
			n++
		}
	}
	return n
}

// TestStreamRecorderSkipsUnreadNilRecords pins the nil-record rule on
// valid, fully declared documents: no lane lacks a label of any element,
// so no open element may hold a nil-record after any End — building
// them is what made streaming recording O(elements × depth). The
// committed statistics must still equal the tree recorder's.
func TestStreamRecorderSkipsUnreadNilRecords(t *testing.T) {
	logDTD := dtd.MustParse(eventLogDTDSrc)
	chainDTD := dtd.MustParse(chainDTDSrc)
	for _, tc := range []struct {
		name string
		d    *dtd.DTD
		doc  *xmltree.Document
	}{
		{"log of 800 events", logDTD, eventLog(logDTD, 800)},
		{"s chain of depth 1000", chainDTD, parseDoc(t, strings.Repeat("<s><t>x</t>", 1000)+strings.Repeat("</s>", 1000))},
	} {
		tab := intern.NewTable()
		sr := NewStreamRecorder(tab)
		sr.SetLanes([]*dtd.DTD{tc.d})
		vs := []*validate.Validator{validate.New(tc.d)}
		ends, failed := 0, false
		streamCut(sr, vs, tc.doc, nil, false, func() {
			ends++
			for i := 0; i < sr.n && !failed; i++ {
				if f := &sr.frames[i]; nilRecords(f) > 0 {
					t.Errorf("%s: after End %d, open <%s> holds %d nil-records no lane reads", tc.name, ends, f.name, nilRecords(f))
					failed = true
				}
			}
		})
		stream := NewWithTable(tc.d, tab)
		sr.CommitTo(0, stream)
		tree := NewWithTable(tc.d, tab)
		if res := tree.Record(tc.doc); res.Invalid != 0 {
			t.Fatalf("%s: %d invalid elements, want a valid document", tc.name, res.Invalid)
		}
		checkRecorders(t, tc.name, tree, stream)
	}
}

// emptyAll declares every element name in docs EMPTY: bound as an extra
// lane, it lacks every label of every element, so every nil-record
// becomes readable and the recorder builds them all.
func emptyAll(docs []*xmltree.Document) *dtd.DTD {
	e := dtd.NewDTD("E")
	var visit func(n *xmltree.Node)
	visit = func(n *xmltree.Node) {
		if _, ok := e.Elements[n.Name]; !ok {
			e.Declare(n.Name, dtd.NewEmpty())
		}
		for _, c := range n.Children {
			if c.Kind == xmltree.Element {
				visit(c)
			}
		}
	}
	for _, doc := range docs {
		visit(doc.Root)
	}
	return e
}

// degradePlan is one set of DegradeTop points for streamCut.
type degradePlan struct {
	name string
	cut  map[int]int
}

// checkLaneIndependent streams every document under every plan with lanes
// [d] and with [d, E], E from emptyAll, and requires lane 0's committed
// statistics to be the same. Equivalence with the tree path cannot reach
// degraded elements; this property can: a lane's statistics must not
// depend on which other lanes are bound, and E makes every nil-record
// readable, so the recorder builds them all. A third run builds them all
// by fiat (streamCut's eager), which also catches a rule that skips the
// same read entry whatever the lanes.
func checkLaneIndependent(t *testing.T, label string, d *dtd.DTD, docs []*xmltree.Document, plans func(doc *xmltree.Document) []degradePlan) {
	t.Helper()
	e := emptyAll(docs)
	tab := intern.NewTable()
	alone, paired := NewStreamRecorder(tab), NewStreamRecorder(tab)
	alone.SetLanes([]*dtd.DTD{d})
	paired.SetLanes([]*dtd.DTD{d, e})
	vAlone := []*validate.Validator{validate.New(d)}
	vPaired := []*validate.Validator{vAlone[0], validate.New(e)}
	commit := func(sr *StreamRecorder) (DocResult, string) {
		rec := NewWithTable(d, tab)
		res := sr.CommitTo(0, rec)
		j, err := json.Marshal(rec.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return res, string(j)
	}
	for di, doc := range docs {
		for _, p := range plans(doc) {
			streamCut(alone, vAlone, doc, p.cut, false, nil)
			ra, aj := commit(alone)
			streamCut(paired, vPaired, doc, p.cut, false, nil)
			rp, pj := commit(paired)
			streamCut(alone, vAlone, doc, p.cut, true, nil)
			re, ej := commit(alone)
			if ra != rp || ra != re {
				t.Errorf("%s doc %d, %s: DocResult %+v alone, %+v beside E, %+v eager", label, di, p.name, ra, rp, re)
			}
			if aj != pj {
				t.Errorf("%s doc %d, %s: lane 0 depends on the other lanes\nalone:    %s\nbeside E: %s", label, di, p.name, aj, pj)
			}
			if aj != ej {
				t.Errorf("%s doc %d, %s: lane 0 differs from the eager recorder\nalone: %s\neager: %s", label, di, p.name, aj, ej)
			}
		}
	}
}

// TestStreamRecorderLaneIndependentDegraded runs checkLaneIndependent over
// generated corpora degraded at the root, before and after its children,
// and at random elements and child positions.
func TestStreamRecorderLaneIndependentDegraded(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		g := gen.New(gen.DefaultConfig(seed))
		d := g.RandomDTD("root", 8)
		docs := g.MutatedDocuments(d, 10, 3, 0.7)
		rng := rand.New(rand.NewSource(seed))
		plans := func(doc *xmltree.Document) []degradePlan {
			random := make(map[int]int)
			for i, n := 0, countNodes(doc.Root); i < n; i++ {
				if rng.Intn(3) == 0 {
					random[i] = rng.Intn(4)
				}
			}
			return []degradePlan{
				{"not degraded", nil},
				{"root degraded at close", map[int]int{0: 1 << 30}},
				{"root degraded before its children", map[int]int{0: 0}},
				{"root degraded after one child", map[int]int{0: 1}},
				{"random elements degraded", random},
			}
		}
		checkLaneIndependent(t, fmt.Sprintf("seed %d", seed), d, docs, plans)
	}
}

// TestStreamRecorderLaneIndependentParents covers the parents whose
// instances are valid until they degrade or that read every nil-record:
// ANY, mixed content and a nil content model, each over nested plus
// subtrees, degraded and not.
func TestStreamRecorderLaneIndependentParents(t *testing.T) {
	nilContent := dtd.MustParse(`<!ELEMENT v EMPTY>`)
	nilContent.Declare("n", nil)
	nilContent.Name = "n"
	for _, tc := range []struct {
		name string
		d    *dtd.DTD
		doc  string
	}{
		{"ANY", dtd.MustParse(`<!ELEMENT r ANY> <!ELEMENT c (d)> <!ELEMENT d EMPTY>`),
			`<r><c><d/></c><c><d/><d/></c><x><y/></x></r>`},
		{"ANY with nested ANY", dtd.MustParse(`<!ELEMENT r ANY> <!ELEMENT c ANY> <!ELEMENT d EMPTY>`),
			`<r><c><d/><x><y><z/></y></x></c><c><x/></c><d/></r>`},
		{"mixed", dtd.MustParse(`<!ELEMENT m (#PCDATA | a)*> <!ELEMENT a EMPTY>`),
			`<m>t<a/><p><q><a/></q><q/></p><a/><p>u</p></m>`},
		{"nil content", nilContent,
			`<n><v/><w><v/><w/></w><v><x/></v></n>`},
	} {
		doc := parseDoc(t, tc.doc)
		plans := func(doc *xmltree.Document) []degradePlan {
			var out []degradePlan
			for i, n := 0, countNodes(doc.Root); i < n; i++ {
				out = append(out,
					degradePlan{fmt.Sprintf("element %d degraded at close", i), map[int]int{i: 1 << 30}},
					degradePlan{fmt.Sprintf("element %d degraded after one child", i), map[int]int{i: 1}})
			}
			return append(out, degradePlan{"not degraded", nil})
		}
		checkLaneIndependent(t, tc.name, tc.d, []*xmltree.Document{doc}, plans)
	}
}
