package xsd

import (
	"strings"
	"testing"

	"dtdevolve/internal/dtd"
	"dtdevolve/internal/evolve"
	"dtdevolve/internal/validate"
	"dtdevolve/internal/xmltree"
)

const bookDTDSrc = `
<!ELEMENT book (title, author+, (price | offer)?, keywords)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT price (#PCDATA)>
<!ELEMENT offer (#PCDATA)>
<!ELEMENT keywords (kw*)>
<!ELEMENT kw (#PCDATA)>
<!ATTLIST book isbn CDATA #REQUIRED lang CDATA #IMPLIED>`

func bookDTD(t *testing.T) *dtd.DTD {
	t.Helper()
	d := dtd.MustParse(bookDTDSrc)
	d.Name = "book"
	return d
}

func TestFromDTDBasics(t *testing.T) {
	s := FromDTD(bookDTD(t))
	if s.Root != "book" {
		t.Errorf("root = %q", s.Root)
	}
	book := s.Elements["book"]
	if book == nil || book.Type == nil || book.Type.Particle == nil {
		t.Fatalf("book = %+v", book)
	}
	p := book.Type.Particle
	if p.Kind != Sequence || len(p.Children) != 4 {
		t.Fatalf("book particle = %+v", p)
	}
	if p.Children[1].Ref != "author" || p.Children[1].MaxOccurs != Unbounded || p.Children[1].MinOccurs != 1 {
		t.Errorf("author particle = %+v", p.Children[1])
	}
	if p.Children[2].Kind != Choice || p.Children[2].MinOccurs != 0 {
		t.Errorf("choice particle = %+v", p.Children[2])
	}
	if s.Elements["title"].Type != nil || s.Elements["title"].Any {
		t.Errorf("title should be a simple xs:string element")
	}
	// Attributes carried over.
	if atts := book.Type.Attributes; len(atts) != 2 || atts[0].Use != "required" {
		t.Errorf("attributes = %+v", atts)
	}
}

func TestDTDSchemaRoundTrip(t *testing.T) {
	d := bookDTD(t)
	s := FromDTD(d)
	back, notes := ToDTD(s)
	if len(notes) != 0 {
		t.Errorf("unexpected approximation notes: %v", notes)
	}
	for name, model := range d.Elements {
		got := back.Elements[name]
		if got == nil || !validate.Equivalent(model, got) {
			t.Errorf("element %s changed: %s -> %v", name, model, got)
		}
	}
	if len(back.Attlists["book"]) != 2 {
		t.Errorf("attlist lost: %+v", back.Attlists["book"])
	}
}

func TestXSDSerializeParseRoundTrip(t *testing.T) {
	s := FromDTD(bookDTD(t))
	out := s.String()
	if !strings.Contains(out, `xmlns:xs="http://www.w3.org/2001/XMLSchema"`) {
		t.Errorf("missing namespace: %s", out)
	}
	parsed, err := ParseString(out)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, out)
	}
	if !s.Equal(parsed) {
		t.Errorf("round trip changed schema:\n%s\nvs\n%s", s.Summary(), parsed.Summary())
	}
}

func TestParseHandwrittenXSD(t *testing.T) {
	src := `<?xml version="1.0"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="note">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="to" type="xs:string"/>
        <xs:element name="body" type="xs:string" minOccurs="0" maxOccurs="3"/>
      </xs:sequence>
      <xs:attribute name="id" type="xs:ID" use="required"/>
    </xs:complexType>
  </xs:element>
</xs:schema>`
	s, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	// Local declarations hoist to globals.
	if s.Elements["to"] == nil || s.Elements["body"] == nil {
		t.Fatalf("local elements not hoisted: %v", s.Names())
	}
	note := s.Elements["note"]
	if note.Type.Particle.Children[1].MaxOccurs != 3 {
		t.Errorf("maxOccurs lost: %+v", note.Type.Particle.Children[1])
	}
	// Conversion to DTD approximates maxOccurs=3 and reports it.
	d, notes := ToDTD(s)
	if len(notes) != 1 || !strings.Contains(notes[0], "approximated") {
		t.Errorf("notes = %v", notes)
	}
	if got := d.Elements["note"].String(); got != "(to, body*)" {
		t.Errorf("note = %s", got)
	}
	if d.Attlists["note"][0].Type != "ID" {
		t.Errorf("attribute type = %+v", d.Attlists["note"])
	}
}

func TestParseMixedAndAny(t *testing.T) {
	src := `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="p">
    <xs:complexType mixed="true">
      <xs:choice minOccurs="0" maxOccurs="unbounded">
        <xs:element name="em" type="xs:string"/>
      </xs:choice>
    </xs:complexType>
  </xs:element>
  <xs:element name="blob" type="xs:anyType"/>
</xs:schema>`
	s, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Elements["p"].Type.Mixed {
		t.Error("mixed lost")
	}
	if !s.Elements["blob"].Any {
		t.Error("anyType lost")
	}
	d, _ := ToDTD(s)
	if got := d.Elements["p"].String(); got != "(#PCDATA | em)*" {
		t.Errorf("p = %s", got)
	}
	if d.Elements["blob"].Kind != dtd.Any {
		t.Errorf("blob = %s", d.Elements["blob"])
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`<not-a-schema/>`,
		`<xs:schema xmlns:xs="x"><xs:bogus/></xs:schema>`,
		`<xs:schema xmlns:xs="x"><xs:element/></xs:schema>`, // no name
		`<xs:schema xmlns:xs="x"><xs:element name="a"><xs:complexType><xs:sequence><xs:element/></xs:sequence></xs:complexType></xs:element></xs:schema>`,
		`<xs:schema xmlns:xs="x"><xs:element name="a"><xs:complexType><xs:sequence><xs:element ref="b" minOccurs="2" maxOccurs="1"/></xs:sequence></xs:complexType></xs:element></xs:schema>`,
		`<xs:schema xmlns:xs="x"><xs:element name="a"><xs:complexType><xs:sequence/><xs:choice/></xs:complexType></xs:element></xs:schema>`,
	}
	for _, src := range cases {
		if _, err := ParseString(src); err == nil {
			t.Errorf("ParseString(%q) succeeded, want error", src)
		}
	}
}

func TestSchemaEvolve(t *testing.T) {
	// The paper's §6 scenario at the XSD level: an article schema meets
	// author-bearing documents and evolves.
	d := dtd.MustParse(`
<!ELEMENT article (title, body)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT body (#PCDATA)>`)
	d.Name = "article"
	s := FromDTD(d)

	var docs []*xmltree.Document
	for i := 0; i < 10; i++ {
		doc, err := xmltree.ParseString(`<article><title>t</title><author>a</author><body>b</body></article>`)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, doc)
	}
	evolved, report, notes := Evolve(s, docs, evolve.DefaultConfig())
	if len(notes) != 0 {
		t.Errorf("notes = %v", notes)
	}
	if evolved.Elements["author"] == nil {
		t.Fatalf("author not declared:\n%s", evolved.Summary())
	}
	article := evolved.Elements["article"]
	refs := collectRefs(article.Type.Particle)
	found := false
	for _, r := range refs {
		if r == "author" {
			found = true
		}
	}
	if !found {
		t.Errorf("article particle lacks author: %s", evolved.Summary())
	}
	if len(report.Changes) == 0 {
		t.Error("empty report")
	}
	// The evolved schema serializes to parseable XSD.
	if _, err := ParseString(evolved.String()); err != nil {
		t.Fatalf("evolved schema does not reparse: %v\n%s", err, evolved)
	}
}

func TestSummary(t *testing.T) {
	s := FromDTD(bookDTD(t))
	sum := s.Summary()
	for _, want := range []string{"element book:", "author{1..unbounded}", "[attrs: isbn, lang]", "xs:string"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
}

func TestCloneAndEqual(t *testing.T) {
	s := FromDTD(bookDTD(t))
	c := s.Clone()
	if !s.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.Elements["book"].Type.Particle.Children[0].Ref = "zzz"
	if s.Equal(c) {
		t.Fatal("mutating clone affected equality")
	}
	if s.Elements["book"].Type.Particle.Children[0].Ref != "title" {
		t.Fatal("clone shares particles")
	}
}

func TestAttributeTypeMappings(t *testing.T) {
	d := dtd.MustParse(`
<!ELEMENT a EMPTY>
<!ATTLIST a
  id ID #REQUIRED
  ref IDREF #IMPLIED
  refs IDREFS #IMPLIED
  tok NMTOKEN #IMPLIED
  toks NMTOKENS #IMPLIED
  ent ENTITY #IMPLIED
  plain CDATA #IMPLIED
  choice (x | y) "x">`)
	s := FromDTD(d)
	atts := s.Elements["a"].Type.Attributes
	want := map[string]string{
		"id": "xs:ID", "ref": "xs:IDREF", "refs": "xs:IDREFS",
		"tok": "xs:NMTOKEN", "toks": "xs:NMTOKENS", "ent": "xs:ENTITY",
		"plain": "xs:string", "choice": "xs:string",
	}
	got := make(map[string]string)
	for _, a := range atts {
		got[a.Name] = a.Type
	}
	for name, typ := range want {
		if got[name] != typ {
			t.Errorf("attr %s type = %q, want %q", name, got[name], typ)
		}
	}
	// And back again.
	back, _ := ToDTD(s)
	backTypes := make(map[string]string)
	for _, a := range back.Attlists["a"] {
		backTypes[a.Name] = a.Type
	}
	for _, name := range []string{"id", "ref", "refs", "tok", "toks", "ent"} {
		if backTypes[name] == "CDATA" {
			t.Errorf("attr %s lost its type on the way back", name)
		}
	}
	if backTypes["plain"] != "CDATA" {
		t.Errorf("plain = %q", backTypes["plain"])
	}
}

func TestAnyAndEmptyElements(t *testing.T) {
	d := dtd.MustParse(`
<!ELEMENT blob ANY>
<!ELEMENT void EMPTY>
<!ELEMENT attred ANY>
<!ELEMENT textattred (#PCDATA)>
<!ATTLIST attred k CDATA #IMPLIED>
<!ATTLIST textattred k CDATA #IMPLIED>`)
	s := FromDTD(d)
	if !s.Elements["blob"].Any {
		t.Error("blob should be anyType")
	}
	if ct := s.Elements["void"].Type; ct == nil || ct.Particle != nil {
		t.Errorf("void = %+v", s.Elements["void"])
	}
	// ANY with attributes becomes a complex type with an any particle.
	attred := s.Elements["attred"]
	if attred.Any || attred.Type == nil || attred.Type.Particle.Kind != AnyParticle {
		t.Errorf("attred = %+v", attred)
	}
	// (#PCDATA) with attributes becomes mixed simple content.
	ta := s.Elements["textattred"]
	if ta.Type == nil || !ta.Type.Mixed {
		t.Errorf("textattred = %+v", ta)
	}
	// Round trips, with nothing approximated.
	back, notes := ToDTD(s)
	if len(notes) != 0 {
		t.Errorf("notes = %v", notes)
	}
	if back.Elements["blob"].Kind != dtd.Any {
		t.Errorf("blob back = %s", back.Elements["blob"])
	}
	if back.Elements["attred"].Kind != dtd.Any {
		t.Errorf("attred back = %s", back.Elements["attred"])
	}
	if back.Elements["void"].Kind != dtd.Empty {
		t.Errorf("void back = %s", back.Elements["void"])
	}
	if !back.Elements["textattred"].HasPCDATA() {
		t.Errorf("textattred back = %s", back.Elements["textattred"])
	}
	if got := s.Names(); len(got) != 4 {
		t.Errorf("names = %v", got)
	}
}

// TestXSAnyParticleBecomesDeclaredChoice: a DTD declares ANY only as a
// whole content, so an xs:any inside a group becomes a choice of the
// declared elements under the particle's own bounds, with a note, and the
// result reads back from its text.
func TestXSAnyParticleBecomesDeclaredChoice(t *testing.T) {
	src := `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="r">
    <xs:complexType>
      <xs:sequence>
        <xs:element ref="a"/>
        <xs:any minOccurs="0" maxOccurs="unbounded"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
  <xs:element name="a" type="xs:string"/>
  <xs:element name="b" type="xs:string"/>
</xs:schema>`
	s, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	d, notes := ToDTD(s)
	if got, want := d.Elements["r"].String(), "(a, (r | a | b)*)"; got != want {
		t.Errorf("r = %s, want %s", got, want)
	}
	if len(notes) != 1 || !strings.Contains(notes[0], "xs:any") {
		t.Errorf("notes = %v", notes)
	}
	back, err := dtd.ParseString(d.String())
	if err != nil || !back.Equal(d) {
		t.Errorf("DTD does not read back from its text (%v):\n%s", err, d)
	}
}

func TestWithOccursWrapsNestedRange(t *testing.T) {
	// (a?)+ — the inner particle already carries a range, so the outer
	// one wraps it in a singleton sequence rather than overwriting.
	m, err := dtd.ParseContentModel("((a?)+)")
	if err != nil {
		t.Fatal(err)
	}
	d := dtd.NewDTD("r")
	d.Declare("r", m)
	d.Declare("a", dtd.NewEmpty())
	s := FromDTD(d)
	back, _ := ToDTD(s)
	if !validate.Equivalent(back.Elements["r"], m) {
		t.Errorf("round trip changed language: %s -> %s", m, back.Elements["r"])
	}
}
