package dtd

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestParsePaperFigure2DTD(t *testing.T) {
	// Figure 2(c) of the paper.
	src := `
<!ELEMENT a (b, c)>
<!ELEMENT b (#PCDATA)>
<!ELEMENT c (d)>
<!ELEMENT d (#PCDATA)>`
	d, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(d.Elements); got != 4 {
		t.Fatalf("elements = %d, want 4", got)
	}
	a := d.Elements["a"]
	if a.Kind != Seq || len(a.Children) != 2 ||
		a.Children[0].Name != "b" || a.Children[1].Name != "c" {
		t.Errorf("a = %s, want (b, c)", a)
	}
	if d.Elements["b"].Kind != PCDATA {
		t.Errorf("b = %s, want (#PCDATA)", d.Elements["b"])
	}
	if c := d.Elements["c"]; c.Kind != Name || c.Name != "d" {
		t.Errorf("c = %s, want (d)", c)
	}
	// Paper: αβ(a) = {b, c}, independent of operators.
	if got := a.Labels(); !reflect.DeepEqual(got, []string{"b", "c"}) {
		t.Errorf("αβ(a) = %v, want [b c]", got)
	}
	// Figure 2(d) tree representation: AND with children b, c.
	want := "AND\n  b\n  c\n"
	if got := a.TreeString(); got != want {
		t.Errorf("tree =\n%s\nwant:\n%s", got, want)
	}
	if !reflect.DeepEqual(d.Order, []string{"a", "b", "c", "d"}) {
		t.Errorf("order = %v", d.Order)
	}
}

func TestParseContentModels(t *testing.T) {
	cases := []struct {
		src  string
		want string // canonical String() rendering
	}{
		{"EMPTY", "EMPTY"},
		{"ANY", "ANY"},
		{"(#PCDATA)", "(#PCDATA)"},
		{"(#PCDATA)*", "(#PCDATA)"},
		{"(#PCDATA | b | c)*", "(#PCDATA | b | c)*"},
		{"(a)", "(a)"},
		{"(a)?", "(a)?"},
		{"(a, b)", "(a, b)"},
		{"(a | b)", "(a | b)"},
		{"(a, b?, c*)", "(a, b?, c*)"},
		{"(a, (b | c)+, d)", "(a, (b | c)+, d)"},
		{"((a, b) | (c, d))*", "((a, b) | (c, d))*"},
		{"( a , b )", "(a, b)"},
		{"(a,b,c,d,e)", "(a, b, c, d, e)"},
		{"(a+)", "(a)+"},
	}
	for _, tc := range cases {
		t.Run(tc.src, func(t *testing.T) {
			m, err := ParseContentModel(tc.src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			got := m.String()
			if got != tc.want {
				t.Errorf("String() = %q, want %q", got, tc.want)
			}
			// Whatever we print must reparse to an equal model.
			m2, err := ParseContentModel(got)
			if err != nil {
				t.Fatalf("reparse %q: %v", got, err)
			}
			if !m.Equal(m2) {
				t.Errorf("round trip changed model: %s vs %s", m, m2)
			}
		})
	}
}

func TestParseMixedRepresentation(t *testing.T) {
	m, err := ParseContentModel("(#PCDATA | em | strong)*")
	if err != nil {
		t.Fatal(err)
	}
	if !m.IsMixed() {
		t.Error("IsMixed = false")
	}
	if m.Kind != Star || m.Children[0].Kind != Choice {
		t.Fatalf("structure = %s", m.TreeString())
	}
	if got := m.Labels(); !reflect.DeepEqual(got, []string{"em", "strong"}) {
		t.Errorf("labels = %v", got)
	}
	plain, _ := ParseContentModel("(#PCDATA)")
	if !plain.IsMixed() {
		t.Error("(#PCDATA) IsMixed = false")
	}
	elems, _ := ParseContentModel("(a, b)")
	if elems.IsMixed() {
		t.Error("(a, b) IsMixed = true")
	}
}

func TestParseMixedErrors(t *testing.T) {
	for _, src := range []string{
		"(#PCDATA | a)",  // missing *
		"(#PCDATA, a)*",  // ',' not allowed
		"(a | #PCDATA)*", // #PCDATA must come first
	} {
		if _, err := ParseContentModel(src); err == nil {
			t.Errorf("ParseContentModel(%q) succeeded, want error", src)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"<!ELEMENT a>",            // missing content spec
		"<!ELEMENT a (b,>",        // truncated group
		"<!ELEMENT a (b | c, d)>", // mixed separators
		"<!ELEMENT a (b))>",       // extra paren
		"<!ELEMENT (b)>",          // missing name
		"<!ELEMENT a (b) extra>",  // junk before '>'
		"<!BOGUS a (b)>",          // unknown declaration
		"<!ELEMENT a (b)",         // unterminated
	}
	for _, src := range cases {
		if _, err := ParseString(src); err == nil {
			t.Errorf("ParseString(%q) succeeded, want error", src)
		}
	}
}

func TestParseDuplicateElementRejected(t *testing.T) {
	if _, err := ParseString("<!ELEMENT a (b)> <!ELEMENT a (c)>"); err == nil {
		t.Fatal("duplicate element declaration accepted")
	}
}

func TestParseParameterEntities(t *testing.T) {
	src := `
<!ENTITY % inline "(#PCDATA | em)*">
<!ENTITY % heading "title, subtitle?">
<!ELEMENT para %inline;>
<!ELEMENT doc (%heading;, para+)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT subtitle (#PCDATA)>
<!ELEMENT em (#PCDATA)>`
	d, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Elements["para"].String(); got != "(#PCDATA | em)*" {
		t.Errorf("para = %q", got)
	}
	doc := d.Elements["doc"]
	if got := doc.String(); got != "(title, subtitle?, para+)" {
		t.Errorf("doc = %q", got)
	}
}

// TestParseRecursiveParameterEntity: a parameter entity referenced from
// its own replacement text, directly or through another, is an error, not
// an endless expansion; a reference after the text ends is not recursive.
func TestParseRecursiveParameterEntity(t *testing.T) {
	for _, src := range []string{
		`<!ENTITY % p "( %p;)"> <!ELEMENT a %p;>`,
		`<!ENTITY % p "(%q;)"> <!ENTITY % q "a | %p;"> <!ELEMENT a %p;>`,
	} {
		if _, err := ParseString(src); err == nil || !strings.Contains(err.Error(), "recursive") {
			t.Errorf("ParseString(%q) = %v, want a recursive-reference error", src, err)
		}
	}
	d, err := ParseString(`<!ENTITY % p "b"> <!ENTITY % q "(%p;, %p;)"> <!ELEMENT a %q;> <!ELEMENT c (%p;)>`)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Elements["a"].String() + d.Elements["c"].String(); got != "(b, b)(b)" {
		t.Errorf("a, c = %s", got)
	}
}

func TestParseUndeclaredParameterEntity(t *testing.T) {
	if _, err := ParseString("<!ELEMENT a (%nope;)>"); err == nil {
		t.Fatal("undeclared parameter entity accepted")
	}
}

func TestParseAttlist(t *testing.T) {
	src := `
<!ELEMENT a (b)>
<!ELEMENT b EMPTY>
<!ATTLIST a
  id ID #REQUIRED
  lang CDATA #IMPLIED
  version CDATA #FIXED "1.0"
  kind (x | y) "x">`
	d, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	atts := d.Attlists["a"]
	if len(atts) != 4 {
		t.Fatalf("attlist a = %+v, want 4 defs", atts)
	}
	if atts[0] != (AttDef{Name: "id", Type: "ID", Mode: "#REQUIRED"}) {
		t.Errorf("atts[0] = %+v", atts[0])
	}
	if atts[2].Mode != "#FIXED" || atts[2].Default != "1.0" {
		t.Errorf("atts[2] = %+v", atts[2])
	}
	if atts[3].Type != "(x | y)" || atts[3].Default != "x" {
		t.Errorf("atts[3] = %+v", atts[3])
	}
}

func TestParseCommentsAndPIs(t *testing.T) {
	src := `<!-- a comment --> <?pi stuff?> <!ELEMENT a EMPTY> <!NOTATION n SYSTEM "x">`
	d, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Elements) != 1 {
		t.Fatalf("elements = %v", d.Order)
	}
}

func TestParseExternalEntitySkipped(t *testing.T) {
	src := `<!ENTITY chap SYSTEM "chap.xml"> <!ELEMENT a EMPTY>`
	if _, err := ParseString(src); err != nil {
		t.Fatalf("external entity declaration should parse: %v", err)
	}
}

func TestDTDStringRoundTrip(t *testing.T) {
	src := `
<!ELEMENT catalog (product+)>
<!ELEMENT product (name, price?, (tag | category)*)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT price (#PCDATA)>
<!ELEMENT tag (#PCDATA)>
<!ELEMENT category (#PCDATA)>
<!ATTLIST product sku CDATA #REQUIRED>`
	d, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	out := d.String()
	d2, err := ParseString(out)
	if err != nil {
		t.Fatalf("reparse of:\n%s\nerror: %v", out, err)
	}
	if !d.Equal(d2) {
		t.Errorf("round trip changed DTD:\n%s\nvs\n%s", d, d2)
	}
	if !strings.Contains(out, "<!ATTLIST product sku CDATA #REQUIRED>") {
		t.Errorf("attlist lost: %s", out)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse did not panic on bad input")
		}
	}()
	MustParse("<!ELEMENT broken")
}

// TestAttlistDefaultsRoundTrip: printing a DTD and parsing the text back
// keeps every attribute default, including backslashes, quotes and the
// empty default, so print → parse → print is a fixed point.
func TestAttlistDefaultsRoundTrip(t *testing.T) {
	defaults := []string{`p\q`, `C:\dir\`, `say "hi"`, `it's`, `a\"b`, `1.0`, ``}
	d := NewDTD("a")
	d.Declare("a", NewEmpty())
	for i, v := range defaults {
		d.Attlists["a"] = append(d.Attlists["a"], AttDef{Name: fmt.Sprintf("x%d", i), Type: "CDATA", Default: v})
	}
	d.Attlists["a"] = append(d.Attlists["a"],
		AttDef{Name: "f", Type: "CDATA", Mode: "#FIXED", Default: `q\"`},
		AttDef{Name: "g", Type: "CDATA", Mode: "#FIXED"},
		AttDef{Name: "h", Type: "CDATA", Mode: "#IMPLIED"})
	text := d.String()
	back, err := ParseString(text)
	if err != nil {
		t.Fatalf("parsing printed DTD: %v\n%s", err, text)
	}
	if got, want := len(back.Attlists["a"]), len(d.Attlists["a"]); got != want {
		t.Fatalf("parsed back %d attributes, want %d", got, want)
	}
	for i, att := range back.Attlists["a"] {
		if want := d.Attlists["a"][i]; att != want {
			t.Errorf("attribute %d: printed and parsed back as %+v, want %+v", i, att, want)
		}
	}
	if again := back.String(); again != text {
		t.Errorf("print → parse → print changed the text:\n%s\nvs\n%s", text, again)
	}
}
