package xmltree

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

func mustParse(t *testing.T, s string) *Document {
	t.Helper()
	doc, err := ParseString(s)
	if err != nil {
		t.Fatalf("ParseString(%q): %v", s, err)
	}
	return doc
}

func TestParseMinimal(t *testing.T) {
	doc := mustParse(t, `<a/>`)
	if doc.Root == nil || doc.Root.Name != "a" {
		t.Fatalf("root = %+v, want element a", doc.Root)
	}
	if len(doc.Root.Children) != 0 {
		t.Fatalf("children = %d, want 0", len(doc.Root.Children))
	}
}

func TestParsePaperFigure2Document(t *testing.T) {
	// Figure 2(a) of the paper: <a><b>5</b><c>7</c></a>.
	doc := mustParse(t, `<a><b>5</b><c>7</c></a>`)
	root := doc.Root
	if root.Name != "a" {
		t.Fatalf("root name = %q, want a", root.Name)
	}
	kids := root.ChildElements()
	if len(kids) != 2 || kids[0].Name != "b" || kids[1].Name != "c" {
		t.Fatalf("child tags = %v, want [b c]", root.ChildTags())
	}
	if got := kids[0].Text(); got != "5" {
		t.Errorf("b text = %q, want 5", got)
	}
	if got := kids[1].Text(); got != "7" {
		t.Errorf("c text = %q, want 7", got)
	}
	if got := root.TagSet(); len(got) != 2 || got[0] != "b" || got[1] != "c" {
		t.Errorf("αβ(a) = %v, want [b c]", got)
	}
}

func TestParseNestedAndMixed(t *testing.T) {
	doc := mustParse(t, `<r>hello <b>bold</b> world</r>`)
	if n := len(doc.Root.Children); n != 3 {
		t.Fatalf("children = %d, want 3 (text, element, text)", n)
	}
	if doc.Root.Children[0].Data != "hello " {
		t.Errorf("first text = %q", doc.Root.Children[0].Data)
	}
	if !doc.Root.HasText() {
		t.Error("HasText = false, want true")
	}
	if got := doc.Root.Text(); got != "hello bold world" {
		t.Errorf("Text() = %q", got)
	}
}

func TestParseAttributes(t *testing.T) {
	doc := mustParse(t, `<a x="1" y='two &amp; three'/>`)
	if v, ok := doc.Root.Attr("x"); !ok || v != "1" {
		t.Errorf("attr x = %q, %v", v, ok)
	}
	if v, ok := doc.Root.Attr("y"); !ok || v != "two & three" {
		t.Errorf("attr y = %q, %v", v, ok)
	}
	if _, ok := doc.Root.Attr("z"); ok {
		t.Error("attr z should be absent")
	}
}

func TestParseDuplicateAttributeRejected(t *testing.T) {
	if _, err := ParseString(`<a x="1" x="2"/>`); err == nil {
		t.Fatal("duplicate attribute accepted")
	}
}

func TestParseEntities(t *testing.T) {
	doc := mustParse(t, `<a>&lt;tag&gt; &amp; &quot;q&quot; &apos;s&apos;</a>`)
	want := `<tag> & "q" 's'`
	if got := doc.Root.Text(); got != want {
		t.Errorf("text = %q, want %q", got, want)
	}
}

func TestParseCharRefs(t *testing.T) {
	doc := mustParse(t, `<a>&#65;&#x42;&#xe9;</a>`)
	if got := doc.Root.Text(); got != "ABé" {
		t.Errorf("text = %q, want ABé", got)
	}
}

func TestParseInvalidCharRef(t *testing.T) {
	for _, src := range []string{`<a>&#xZZ;</a>`, `<a>&#xD800;</a>`, `<a>&nosuch;</a>`, `<a>&amp</a>`} {
		if _, err := ParseString(src); err == nil {
			t.Errorf("ParseString(%q) succeeded, want error", src)
		}
	}
}

func TestParseCDATA(t *testing.T) {
	doc := mustParse(t, `<a><![CDATA[<not> & parsed]]></a>`)
	if got := doc.Root.Text(); got != "<not> & parsed" {
		t.Errorf("text = %q", got)
	}
}

func TestParseCommentsAndPIs(t *testing.T) {
	doc := mustParse(t, `<?xml version="1.0"?><!-- c --><a><!-- inner --><?pi data?><b/></a><!-- after -->`)
	if len(doc.Root.ChildElements()) != 1 {
		t.Fatalf("child elements = %v, want [b]", doc.Root.ChildTags())
	}
}

func TestParseCommentDoubleDashRejected(t *testing.T) {
	if _, err := ParseString(`<a><!-- bad -- comment --></a>`); err == nil {
		t.Fatal("comment containing -- accepted")
	}
}

func TestParseWhitespaceHandling(t *testing.T) {
	src := "<a>\n  <b/>\n  <c/>\n</a>"
	doc := mustParse(t, src)
	if n := len(doc.Root.Children); n != 2 {
		t.Fatalf("default parse children = %d, want 2 (whitespace dropped)", n)
	}
	doc2, err := ParseWithOptions(strings.NewReader(src), Options{PreserveWhitespace: true})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(doc2.Root.Children); n != 5 {
		t.Fatalf("preserving parse children = %d, want 5", n)
	}
}

func TestParseDoctype(t *testing.T) {
	src := `<!DOCTYPE a SYSTEM "a.dtd" [
  <!ELEMENT a (b, c)>
  <!ENTITY greet "hi <b>there</b>">
]>
<a>&greet;</a>`
	doc := mustParse(t, src)
	dt := doc.Doctype
	if dt == nil {
		t.Fatal("no doctype parsed")
	}
	if dt.Name != "a" || dt.SystemID != "a.dtd" {
		t.Errorf("doctype = %+v", dt)
	}
	if !strings.Contains(dt.InternalSubset, "<!ELEMENT a (b, c)>") {
		t.Errorf("internal subset = %q", dt.InternalSubset)
	}
	// The general entity from the subset expands in content. Entity
	// replacement text is inserted as character data by this parser.
	if got := doc.Root.Text(); got != "hi <b>there</b>" {
		t.Errorf("expanded entity text = %q", got)
	}
}

func TestParseDoctypePublic(t *testing.T) {
	doc := mustParse(t, `<!DOCTYPE html PUBLIC "-//W3C//DTD XHTML 1.0//EN" "http://x/dtd"><html/>`)
	if doc.Doctype.PublicID != "-//W3C//DTD XHTML 1.0//EN" || doc.Doctype.SystemID != "http://x/dtd" {
		t.Errorf("doctype = %+v", doc.Doctype)
	}
}

func TestParseDoctypeSubsetWithBracketInLiteral(t *testing.T) {
	src := `<!DOCTYPE a [ <!ENTITY e "va]ue"> ]><a>&e;</a>`
	doc := mustParse(t, src)
	if got := doc.Root.Text(); got != "va]ue" {
		t.Errorf("text = %q, want va]ue", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"empty", ""},
		{"text only", "hello"},
		{"mismatched tags", "<a></b>"},
		{"unterminated", "<a><b></a>"},
		{"content after root", "<a/><b/>"},
		{"two roots", "<a></a><b></b>"},
		{"bad name", "<1a/>"},
		{"unterminated comment", "<a><!-- x</a>"},
		{"unterminated cdata", "<a><![CDATA[x</a>"},
		{"attr without value", `<a x/>`},
		{"unquoted attr", `<a x=1/>`},
		{"stray close", "</a>"},
		{"unterminated doctype", "<!DOCTYPE a [<!ELEMENT a (b)>"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseString(tc.src); err == nil {
				t.Errorf("ParseString(%q) succeeded, want error", tc.src)
			}
		})
	}
}

func TestParseErrorPosition(t *testing.T) {
	_, err := ParseString("<a>\n  <b></c>\n</a>")
	perr, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type = %T (%v), want *ParseError", err, err)
	}
	if perr.Line != 2 {
		t.Errorf("error line = %d, want 2", perr.Line)
	}
	// Reference errors in text point at the '&'; a literal cut off by the
	// end of input points just past its last byte.
	for _, tc := range []struct {
		src       string
		line, col int
	}{
		{`<a>&undefined;</a>`, 1, 4},
		{`<a>&#xZZ;</a>`, 1, 4},
		{`<a x="v`, 1, 7},
		{`<!DOCTYPE a [<!ENTITY e "&e;">]><a>&e;</a>`, 1, 36},
	} {
		_, err := ParseString(tc.src)
		perr, ok := err.(*ParseError)
		if !ok {
			t.Errorf("%q: error type = %T (%v), want *ParseError", tc.src, err, err)
			continue
		}
		if perr.Line != tc.line || perr.Column != tc.col {
			t.Errorf("%q: error at %d:%d, want %d:%d", tc.src, perr.Line, perr.Column, tc.line, tc.col)
		}
	}
}

func TestParseDepthLimit(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 50; i++ {
		b.WriteString("<a>")
	}
	for i := 0; i < 50; i++ {
		b.WriteString("</a>")
	}
	if _, err := ParseWithOptions(strings.NewReader(b.String()), Options{MaxDepth: 10}); err == nil {
		t.Fatal("depth limit not enforced")
	}
	if _, err := ParseWithOptions(strings.NewReader(b.String()), Options{MaxDepth: 100}); err != nil {
		t.Fatalf("parse under limit: %v", err)
	}
}

func TestParseBOM(t *testing.T) {
	doc := mustParse(t, "\xef\xbb\xbf<a/>")
	if doc.Root.Name != "a" {
		t.Fatalf("root = %v", doc.Root)
	}
}

func TestParseUTF8Content(t *testing.T) {
	doc := mustParse(t, `<città><名前>値</名前></città>`)
	if doc.Root.Name != "città" {
		t.Errorf("root = %q", doc.Root.Name)
	}
	if doc.Root.ChildElements()[0].Name != "名前" {
		t.Errorf("child = %q", doc.Root.ChildElements()[0].Name)
	}
}

// TestParseReleasesTree checks that a streamer back in the pool holds no
// reference to the document it built: the tree must be collectable while
// the streamer itself is still alive.
func TestParseReleasesTree(t *testing.T) {
	s := new(Streamer)
	src := `<!DOCTYPE a [<!ENTITY e "v">]><a x="1"><b>&e;</b>` + strings.Repeat("t", 2*maxPooledText) + `</a>`
	doc, err := s.parseTree(strings.NewReader(src), Options{})
	if err != nil {
		t.Fatal(err)
	}
	collected := make(chan struct{})
	runtime.SetFinalizer(doc.Root.Children[0], func(*Node) { close(collected) })
	doc = nil
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-collected:
			if s.tree.root != nil || s.doctype != nil || s.in != nil || cap(s.textBuf) > maxPooledText {
				t.Errorf("released streamer still holds parse state: %+v", s.tree)
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the parsed tree is still reachable from the streamer that built it")
}
