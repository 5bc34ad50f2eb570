package xmltree_test

// Oracle tests for the pull parser (stream.go) and the trees Parse builds
// from it. The oracle is the frozen recursive-descent parser of
// legacy_test.go: the event stream must match a walk of its tree exactly
// (same kept nodes, same names and NonWS bits), the canonical output must
// be byte-identical to its Document.String(), Parse must build an equal
// tree, and accept/reject decisions must agree — pinned over the corpus,
// handcrafted grammar corners, stress shapes (spill-size text runs,
// one-byte readers, concurrent pooled parses) and fuzz targets
// cross-checking against the oracle on arbitrary inputs.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/iotest"

	"dtdevolve/internal/intern"
	"dtdevolve/internal/xmltree"
)

// treeEvents walks a parsed document in document order, producing the
// event sequence the streamer must emit for the same input.
func treeEvents(root *xmltree.Node) []xmltree.Event {
	var out []xmltree.Event
	var walk func(n *xmltree.Node)
	walk = func(n *xmltree.Node) {
		out = append(out, xmltree.Event{Kind: xmltree.StartEvent, Name: n.Name})
		for _, c := range n.Children {
			switch c.Kind {
			case xmltree.Element:
				walk(c)
			case xmltree.Text:
				out = append(out, xmltree.Event{Kind: xmltree.TextEvent, NonWS: strings.TrimSpace(c.Data) != ""})
			}
		}
		out = append(out, xmltree.Event{Kind: xmltree.EndEvent, Name: n.Name})
	}
	walk(root)
	return out
}

// streamCollect drives the streamer over input and returns its events,
// canonical bytes and doctype.
func streamCollect(input string, opts xmltree.Options, symbols xmltree.Interner) ([]xmltree.Event, string, *xmltree.Doctype, error) {
	var canon bytes.Buffer
	so := xmltree.StreamOptions{Options: opts, Symbols: symbols, Canon: &canon}
	s := xmltree.StreamParse(strings.NewReader(input), so)
	var events []xmltree.Event
	err := s.Events(func(ev xmltree.Event) error {
		events = append(events, ev)
		return nil
	})
	return events, canon.String(), s.Doctype(), err
}

// checkStreamTree requires the stream parse of input and the oracle's tree
// to agree on accept/reject, and on success on events, canonical bytes and
// doctype; Parse must match the oracle too (checkParseLegacy).
func checkStreamTree(t *testing.T, label, input string, opts xmltree.Options) {
	t.Helper()
	checkParseLegacy(t, label, input, opts)
	doc, treeErr := xmltree.LegacyParseWithOptions(strings.NewReader(input), opts)
	tab := intern.NewTable()
	var ov intern.Overlay
	ov.Reset(tab.View())
	events, canon, dt, streamErr := streamCollect(input, opts, &ov)
	tab.InternAll(ov.Names())
	if (treeErr == nil) != (streamErr == nil) {
		t.Errorf("%s: tree err %v, stream err %v", label, treeErr, streamErr)
		return
	}
	if treeErr != nil {
		return
	}
	want := treeEvents(doc.Root)
	if len(events) != len(want) {
		t.Errorf("%s: %d stream events, %d tree events", label, len(events), len(want))
		return
	}
	for i := range want {
		got := events[i]
		if got.Kind != want[i].Kind || got.Name != want[i].Name || got.NonWS != want[i].NonWS {
			t.Errorf("%s: event %d stream %+v tree %+v", label, i, got, want[i])
			return
		}
		// The provisional ID must resolve back to the name once the
		// overlay's names are interned.
		if got.Kind != xmltree.TextEvent && tab.Name(got.ID) != got.Name {
			t.Errorf("%s: event %d ID %d resolves to %q, want %q", label, i, got.ID, tab.Name(got.ID), got.Name)
		}
	}
	if wantCanon := doc.String(); canon != wantCanon {
		t.Errorf("%s: canonical bytes differ\nstream: %q\ntree:   %q", label, canon, wantCanon)
	}
	if !reflect.DeepEqual(dt, doc.Doctype) {
		t.Errorf("%s: doctype stream %+v tree %+v", label, dt, doc.Doctype)
	}
}

// corpusInputs returns every testdata XML document.
func corpusInputs(t testing.TB) map[string]string {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*", "*.xml"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("globbing corpus: %v (%d files)", err, len(paths))
	}
	out := make(map[string]string, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[p] = string(data)
	}
	return out
}

func TestStreamParseMatchesTreeCorpus(t *testing.T) {
	for path, input := range corpusInputs(t) {
		checkStreamTree(t, path, input, xmltree.Options{})
		checkStreamTree(t, path+" preserve", input, xmltree.Options{PreserveWhitespace: true})
	}
}

// streamCases are handcrafted grammar corners: each must parse (or fail)
// as the oracle does.
var streamCases = []string{
	`<a/>`,
	`<a></a>`,
	`<a> </a>`,
	`<a>x</a>`,
	`<a><b/>tail<b>t</b></a>`,
	`<a at="v" b2="&lt;&amp;'x'&quot;"/>`,
	"\xef\xbb\xbf<a/>",
	`<?xml version="1.0"?><a/>`,
	`<?xml version="1.0"?><!DOCTYPE a><a/>`,
	`<!DOCTYPE a SYSTEM "sys.dtd"><a/>`,
	`<!DOCTYPE a PUBLIC "pub" "sys"><a/>`,
	`<!DOCTYPE a [<!ELEMENT a (#PCDATA)><!ENTITY e "ho">]><a>&e;&e;</a>`,
	`<!DOCTYPE a [<!ENTITY e "<b>">]><a>&e;</a>`,
	`<!DOCTYPE a [<!ENTITY e "&f;"><!ENTITY f "deep">]><a>&e;</a>`,
	`<!DOCTYPE a [<!ENTITY e "&e;">]><a>&e;</a>`,
	`<!DOCTYPE a [<!-- ] --><!ENTITY e "x]y">]><a>&e;</a>`,
	`<!DOCTYPE a [<!ENTITY % p "param">]><a/>`,
	`<a>&#65;&#x42;&#x1F600;</a>`,
	`<a>&amp;&lt;&gt;&apos;&quot;</a>`,
	`<a><!-- comment --><b/><!-- another --></a>`,
	`<a>pre<!-- c -->post</a>`,
	`<a><![CDATA[]]></a>`,
	`<a><![CDATA[ ]]></a>`,
	`<a><![CDATA[<b>&amp;]]></a>`,
	`<a>x<![CDATA[y]]>z</a>`,
	`<a><?pi data?>t</a>`,
	`<a/><!-- trailing --><?pi?>`,
	"<a>\n  line\n   \n</a>",
	"<a> </a>",
	"<a> \t\r\n\v\f </a>",
	`<root xmlns:x="n"><x:e at="1"/></root>`,
	// Reject cases: the oracle and the streamer must both fail.
	``,
	`   `,
	`<a>`,
	`<a></b>`,
	`<a`,
	`<a x`,
	`<a x=`,
	`<a x="v`,
	`<a x="v" x="w"/>`,
	`<a>&undefined;</a>`,
	`<a>&unterminated</a>`,
	`<a>&unterminated<b/></a>`,
	`<a>&#xZZ;</a>`,
	`<a>&#xD800;</a>`,
	`<a>&#4294967296;</a>`,
	`<a><!-- -- --></a>`,
	`<a><!-- unterminated</a>`,
	`<a><![CDATA[unterminated</a>`,
	`<a><?pi unterminated</a>`,
	`<a/>junk`,
	`junk<a/>`,
	`<!DOCTYPE a><!DOCTYPE b><a/>`,
	`<!DOCTYPE a [<!ELEMENT a>]<a/>`,
	`<!DOCTYPE a [ <a/>`,
	`</a>`,
	`<1a/>`,
}

func TestStreamParseMatchesTreeCases(t *testing.T) {
	for i, input := range streamCases {
		label := fmt.Sprintf("case %d %.40q", i, input)
		checkStreamTree(t, label, input, xmltree.Options{})
		checkStreamTree(t, label+" preserve", input, xmltree.Options{PreserveWhitespace: true})
	}
}

// TestStreamParseDepthLimit pins MaxDepth equivalence at and past the
// boundary.
func TestStreamParseDepthLimit(t *testing.T) {
	nested := strings.Repeat("<d>", 6) + "x" + strings.Repeat("</d>", 6)
	checkStreamTree(t, "at limit", nested, xmltree.Options{MaxDepth: 6})
	checkStreamTree(t, "over limit", nested, xmltree.Options{MaxDepth: 5})
}

// TestStreamParseSpill covers text runs past the spill threshold: huge
// kept runs, huge whitespace-only runs (dropped and preserved), and a
// multi-byte whitespace rune straddling chunk appends.
func TestStreamParseSpill(t *testing.T) {
	big := strings.Repeat("lorem ipsum &amp; more ", 8<<10) // ~184 KiB expanded
	ws := strings.Repeat(" \t\n", 40<<10)                   // ~120 KiB whitespace
	nbsp := strings.Repeat(" ", 48<<10)                     // multi-byte whitespace
	for label, input := range map[string]string{
		"big kept run":    "<a>" + big + "</a>",
		"big ws run":      "<a>" + ws + "</a>",
		"big nbsp run":    "<a>" + nbsp + "</a>",
		"ws then text":    "<a>" + ws + "x</a>",
		"big cdata":       "<a><![CDATA[" + big + "]]></a>",
		"big mixed":       "<a><b>" + big + "</b>" + ws + "</a>",
		"nbsp then text":  "<a>" + nbsp + "tail</a>",
		"big entity text": "<a>" + strings.Repeat("&lt;x&gt;", 24<<10) + "</a>",
	} {
		checkStreamTree(t, label, input, xmltree.Options{})
		checkStreamTree(t, label+" preserve", input, xmltree.Options{PreserveWhitespace: true})
	}
}

// TestStreamParseOneByteReader stresses window refills: every token and
// prefix test crosses a read boundary.
func TestStreamParseOneByteReader(t *testing.T) {
	input := `<!DOCTYPE a [<!ENTITY e "v">]><a x="1 &e;"><!-- c --><b>t&e;<![CDATA[&raw;]]></b> <c/></a>`
	doc, err := xmltree.LegacyParseWithOptions(strings.NewReader(input), xmltree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var canon bytes.Buffer
	s := xmltree.StreamParse(iotest.OneByteReader(strings.NewReader(input)), xmltree.StreamOptions{Canon: &canon})
	var events []xmltree.Event
	if err := s.Events(func(ev xmltree.Event) error {
		events = append(events, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := treeEvents(doc.Root)
	if !reflect.DeepEqual(events, want) {
		t.Errorf("events differ:\nstream: %+v\ntree:   %+v", events, want)
	}
	if canon.String() != doc.String() {
		t.Errorf("canonical bytes differ:\nstream: %q\ntree:   %q", canon.String(), doc.String())
	}
}

// TestStreamParseReaderError pins IO-failure reporting: a reader error
// surfaces as a reading-input error, not as a truncation parse error.
func TestStreamParseReaderError(t *testing.T) {
	broken := io.MultiReader(strings.NewReader("<a><b>text"), iotest.ErrReader(errors.New("disk gone")))
	s := xmltree.StreamParse(broken, xmltree.StreamOptions{})
	err := s.Events(func(xmltree.Event) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "reading input") || !strings.Contains(err.Error(), "disk gone") {
		t.Errorf("got %v, want a reading-input error wrapping the reader failure", err)
	}
}

// TestStreamParseReuse checks Reset: one streamer across documents with
// different symbol tables and canonical sinks leaks nothing between runs.
func TestStreamParseReuse(t *testing.T) {
	s := xmltree.StreamParse(strings.NewReader(""), xmltree.StreamOptions{})
	inputs := []string{
		`<!DOCTYPE a [<!ENTITY e "one">]><a>&e;</a>`,
		`<a>&e;</a>`, // must fail: prior doc's entity must not leak
		`<b><c at="2"/></b>`,
	}
	wantErr := []bool{false, true, false}
	for i, input := range inputs {
		var canon bytes.Buffer
		s.Reset(strings.NewReader(input), xmltree.StreamOptions{Canon: &canon})
		err := s.Events(func(xmltree.Event) error { return nil })
		if (err != nil) != wantErr[i] {
			t.Errorf("doc %d: err %v, want error %v", i, err, wantErr[i])
		}
		if err == nil {
			doc, terr := xmltree.LegacyParseWithOptions(strings.NewReader(input), xmltree.Options{})
			if terr != nil {
				t.Fatal(terr)
			}
			if canon.String() != doc.String() {
				t.Errorf("doc %d: canonical bytes differ", i)
			}
		}
	}
}

// TestParseMaxBytes pins MaxBytes on Parse, the streamer and the oracle:
// at-limit inputs parse, over-limit inputs fail with *SizeError.
func TestParseMaxBytes(t *testing.T) {
	input := `<a><b>hello</b></a>`
	limit := int64(len(input))
	for _, tc := range []struct {
		name  string
		limit int64
		ok    bool
	}{
		{"unlimited", 0, true},
		{"at limit", limit, true},
		{"over limit", limit - 1, false},
	} {
		_, treeErr := xmltree.ParseWithOptions(strings.NewReader(input), xmltree.Options{MaxBytes: tc.limit})
		_, legacyErr := xmltree.LegacyParseWithOptions(strings.NewReader(input), xmltree.Options{MaxBytes: tc.limit})
		s := xmltree.StreamParse(strings.NewReader(input), xmltree.StreamOptions{Options: xmltree.Options{MaxBytes: tc.limit}})
		streamErr := s.Events(func(xmltree.Event) error { return nil })
		for path, err := range map[string]error{"tree": treeErr, "legacy": legacyErr, "stream": streamErr} {
			if tc.ok && err != nil {
				t.Errorf("%s %s: unexpected error %v", tc.name, path, err)
			}
			if !tc.ok {
				var se *xmltree.SizeError
				if !errors.As(err, &se) {
					t.Errorf("%s %s: got %v, want *SizeError", tc.name, path, err)
				} else if se.Limit != tc.limit {
					t.Errorf("%s %s: limit %d, want %d", tc.name, path, se.Limit, tc.limit)
				}
			}
		}
	}
}

// FuzzStreamVsTree cross-checks the streamer against the oracle on
// arbitrary inputs: they must agree on accept/reject, and on success the
// event stream must match the oracle's tree walk and the canonical bytes
// its Document.String().
func FuzzStreamVsTree(f *testing.F) {
	for _, s := range streamCases {
		f.Add(s, false)
	}
	for _, input := range corpusInputs(f) {
		f.Add(input, false)
		f.Add(input, true)
	}
	f.Fuzz(func(t *testing.T, input string, preserve bool) {
		opts := xmltree.Options{PreserveWhitespace: preserve, MaxDepth: 64}
		doc, treeErr := xmltree.LegacyParseWithOptions(strings.NewReader(input), opts)
		events, canon, dt, streamErr := streamCollect(input, opts, nil)
		if (treeErr == nil) != (streamErr == nil) {
			t.Fatalf("tree err %v, stream err %v", treeErr, streamErr)
		}
		if treeErr != nil {
			return
		}
		want := treeEvents(doc.Root)
		if !reflect.DeepEqual(events, want) {
			t.Fatalf("events differ:\nstream: %+v\ntree:   %+v", events, want)
		}
		if canon != doc.String() {
			t.Fatalf("canonical bytes differ:\nstream: %q\ntree:   %q", canon, doc.String())
		}
		if !reflect.DeepEqual(dt, doc.Doctype) {
			t.Fatalf("doctype stream %+v tree %+v", dt, doc.Doctype)
		}
	})
}

// checkParseLegacy requires Parse and the oracle to agree on input: the
// same accept/reject decision and, on success, equal trees, the same
// doctype and the same Document.String() bytes.
func checkParseLegacy(t testing.TB, label, input string, opts xmltree.Options) {
	t.Helper()
	want, wantErr := xmltree.LegacyParseWithOptions(strings.NewReader(input), opts)
	got, err := xmltree.ParseWithOptions(strings.NewReader(input), opts)
	if (err == nil) != (wantErr == nil) {
		t.Errorf("%s: Parse err %v, oracle err %v", label, err, wantErr)
		return
	}
	if err != nil {
		return
	}
	if !got.Root.Equal(want.Root) {
		t.Errorf("%s: trees differ\nParse:  %s\noracle: %s", label, got.Root.Indent(), want.Root.Indent())
	}
	if !reflect.DeepEqual(got.Doctype, want.Doctype) {
		t.Errorf("%s: doctype Parse %+v oracle %+v", label, got.Doctype, want.Doctype)
	}
	if g, w := got.String(), want.String(); g != w {
		t.Errorf("%s: Document.String() differs\nParse:  %q\noracle: %q", label, g, w)
	}
}

// FuzzParseMatchesLegacy cross-checks Parse against the oracle on
// arbitrary inputs (checkParseLegacy).
func FuzzParseMatchesLegacy(f *testing.F) {
	for _, s := range streamCases {
		f.Add(s, false)
	}
	for _, input := range corpusInputs(f) {
		f.Add(input, false)
		f.Add(input, true)
	}
	f.Fuzz(func(t *testing.T, input string, preserve bool) {
		opts := xmltree.Options{PreserveWhitespace: preserve, MaxDepth: 64}
		// The oracle has no expansion budget, so nested entities that
		// expand past 1 MiB would stall it: such inputs only check that a
		// budgeted Parse stops them.
		budget := opts
		budget.MaxBytes = int64(len(input)) + 1<<20
		var se *xmltree.SizeError
		if _, err := xmltree.ParseWithOptions(strings.NewReader(input), budget); errors.As(err, &se) {
			return
		}
		checkParseLegacy(t, "fuzz", input, opts)
	})
}

// TestParseConcurrent runs many goroutines through the pooled streamers
// behind Parse at once: every tree must still match the oracle's, so no
// parse can see another's buffers, entities or nodes.
func TestParseConcurrent(t *testing.T) {
	inputs := append([]string(nil), streamCases...)
	for _, input := range corpusInputs(t) {
		inputs = append(inputs, input)
	}
	type oracle struct {
		doc *xmltree.Document
		err error
	}
	want := make([][2]oracle, len(inputs))
	for i, input := range inputs {
		for p := range want[i] {
			doc, err := xmltree.LegacyParseWithOptions(strings.NewReader(input), xmltree.Options{PreserveWhitespace: p == 1})
			want[i][p] = oracle{doc, err}
		}
	}
	const workers, rounds = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := range inputs {
					i := (k + w*7 + r) % len(inputs)
					p := (w + r + k) % 2
					doc, err := xmltree.ParseWithOptions(strings.NewReader(inputs[i]), xmltree.Options{PreserveWhitespace: p == 1})
					o := want[i][p]
					if (err == nil) != (o.err == nil) {
						t.Errorf("input %d: Parse err %v, oracle err %v", i, err, o.err)
						return
					}
					if err == nil && (!doc.Root.Equal(o.doc.Root) || doc.String() != o.doc.String()) {
						t.Errorf("input %d preserve=%v: tree differs from the oracle's", i, p == 1)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// entityBomb is 381 bytes whose entities e1…e6 each hold ten references
// to the one before, so the body expands to 10,000,000 bytes of text.
func entityBomb() string {
	var b strings.Builder
	b.WriteString(`<!DOCTYPE a [<!ENTITY e0 "xxxxxxxxxx">`)
	for i := 1; i <= 6; i++ {
		fmt.Fprintf(&b, `<!ENTITY e%d "%s">`, i, strings.Repeat(fmt.Sprintf("&e%d;", i-1), 10))
	}
	b.WriteString(`]><a>&e6;</a>`)
	return b.String()
}

// TestParseEntityExpansionBudget pins MaxBytes on expanded entities: the
// replacement text of declared entities counts with the input bytes, so
// the bomb fails with *SizeError while expanding, on both Parse and the
// streamer, yet still parses with no budget.
func TestParseEntityExpansionBudget(t *testing.T) {
	bomb := entityBomb()
	if len(bomb) != 381 {
		t.Fatalf("bomb is %d bytes, want 381", len(bomb))
	}
	opts := xmltree.Options{MaxBytes: 2048}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	_, treeErr := xmltree.ParseWithOptions(strings.NewReader(bomb), opts)
	s := xmltree.StreamParse(strings.NewReader(bomb), xmltree.StreamOptions{Options: opts})
	streamErr := s.Events(func(xmltree.Event) error { return nil })
	runtime.ReadMemStats(&ms)
	for path, err := range map[string]error{"Parse": treeErr, "stream": streamErr} {
		var se *xmltree.SizeError
		if !errors.As(err, &se) || se.Limit != 2048 {
			t.Errorf("%s: got %v, want *SizeError{Limit: 2048}", path, err)
		}
	}
	if got := s.Consumed(); got > int64(len(bomb)) {
		t.Errorf("Consumed() = %d, more than the %d input bytes", got, len(bomb))
	}
	if alloc := ms.TotalAlloc - before; alloc > 1<<20 {
		t.Errorf("rejecting the bomb allocated %d bytes, want under 1 MiB", alloc)
	}

	doc, err := xmltree.ParseWithOptions(strings.NewReader(bomb), xmltree.Options{})
	if err != nil {
		t.Fatalf("unbudgeted parse: %v", err)
	}
	if n := len(doc.Root.Text()); n != 10_000_000 {
		t.Errorf("expanded text is %d bytes, want 10,000,000", n)
	}

	// The budget is input plus declared replacement text, to the byte;
	// Consumed still counts input only.
	small := `<!DOCTYPE a [<!ENTITY e "hello">]><a>&e;&e;&amp;&#65;</a>`
	for _, tc := range []struct {
		limit int64
		ok    bool
	}{{int64(len(small)) + 10, true}, {int64(len(small)) + 9, false}} {
		_, err := xmltree.ParseWithOptions(strings.NewReader(small), xmltree.Options{MaxBytes: tc.limit})
		var se *xmltree.SizeError
		if tc.ok != (err == nil) || (!tc.ok && !errors.As(err, &se)) {
			t.Errorf("limit %d: got %v, want ok=%v", tc.limit, err, tc.ok)
		}
		st := xmltree.StreamParse(strings.NewReader(small), xmltree.StreamOptions{Options: xmltree.Options{MaxBytes: tc.limit}})
		err = st.Events(func(xmltree.Event) error { return nil })
		if tc.ok != (err == nil) {
			t.Errorf("stream limit %d: got %v, want ok=%v", tc.limit, err, tc.ok)
		}
		if tc.ok && st.Consumed() != int64(len(small)) {
			t.Errorf("Consumed() = %d, want the %d input bytes", st.Consumed(), len(small))
		}
	}
}
