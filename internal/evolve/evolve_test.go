package evolve

import (
	"strings"
	"testing"

	"dtdevolve/internal/dtd"
	"dtdevolve/internal/record"
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

func recordDocs(t *testing.T, d *dtd.DTD, docs map[string]int) *record.Recorder {
	t.Helper()
	r := record.New(d)
	for src, n := range docs {
		for i := 0; i < n; i++ {
			r.Record(parseDoc(t, src))
		}
	}
	return r
}

// TestPaperExample5 reproduces the worked example of §4.2 / Figure 5: the
// DTD declares a with sequence (b, c); documents in D1 contain repeated
// (b, c) pairs followed by d, documents in D2 contain one (b, c) pair
// followed by e. Policy 1 binds {b, c} into (b, c)* (they form a repetition
// group), Policy 4 binds the mutually exclusive {d, e} into (d | e), and
// Policy 13 binds the two trees into the final declaration
//
//	<!ELEMENT a ((b, c)*, (d | e))>
//
// d and e are plus elements: declarations are extracted for them from the
// recorded nested structure (tree (4) of Figure 5).
func TestPaperExample5(t *testing.T) {
	d := dtd.MustParse(`
<!ELEMENT a (b, c)>
<!ELEMENT b (#PCDATA)>
<!ELEMENT c (#PCDATA)>`)
	docs := map[string]int{
		`<a><b>1</b><c>1</c><b>2</b><c>2</c><d>x</d></a>`: 3, // D1
		`<a><b>1</b><c>1</c><e>y</e></a>`:                 2, // D2
	}
	rec := recordDocs(t, d, docs)

	// Every instance of a is non-valid: a falls in the new window.
	if got := rec.Stats("a").InvalidityRatio(); got != 1 {
		t.Fatalf("I(a) = %v, want 1", got)
	}

	evolved, report := Evolve(rec, DefaultConfig())
	if got := evolved.Elements["a"].String(); got != "((b, c)*, (d | e))" {
		t.Errorf("evolved a = %s, want ((b, c)*, (d | e))", got)
	}
	// d and e carried text: their extracted declarations are (#PCDATA).
	if got := evolved.Elements["d"]; got == nil || got.String() != "(#PCDATA)" {
		t.Errorf("evolved d = %v, want (#PCDATA)", got)
	}
	if got := evolved.Elements["e"]; got == nil || got.String() != "(#PCDATA)" {
		t.Errorf("evolved e = %v, want (#PCDATA)", got)
	}
	// b and c keep their declarations.
	if got := evolved.Elements["b"].String(); got != "(#PCDATA)" {
		t.Errorf("evolved b = %s", got)
	}

	// All recorded documents are valid for the evolved DTD.
	v := validate.New(evolved)
	for src := range docs {
		if vs := v.ValidateElement(parseDoc(t, src).Root); len(vs) != 0 {
			t.Errorf("doc not valid after evolution: %v\n%s", vs, src)
		}
	}

	// Report: a rebuilt, d and e added.
	actions := make(map[string]Action)
	for _, c := range report.Changes {
		actions[c.Name] = c.Action
	}
	if actions["a"] != Rebuilt {
		t.Errorf("action[a] = %v, want rebuilt", actions["a"])
	}
	if actions["d"] != Added || actions["e"] != Added {
		t.Errorf("actions d/e = %v/%v, want added", actions["d"], actions["e"])
	}
	if actions["b"] != Unchanged {
		t.Errorf("action[b] = %v, want unchanged", actions["b"])
	}
}

func TestOldWindowRestriction(t *testing.T) {
	d := dtd.MustParse(`
<!ELEMENT a (b*, c?, d+, (x | y))>
<!ELEMENT b EMPTY> <!ELEMENT c EMPTY> <!ELEMENT d EMPTY>
<!ELEMENT x EMPTY> <!ELEMENT y EMPTY>`)
	// Twelve valid documents: b always present and repeated, c always
	// present, d never repeated, only alternative x ever used.
	rec := recordDocs(t, d, map[string]int{
		`<a><b/><b/><c/><d/><x/></a>`: 12,
	})
	if got := rec.Stats("a").InvalidityRatio(); got != 0 {
		t.Fatalf("I(a) = %v, want 0 (old window)", got)
	}
	evolved, report := Evolve(rec, DefaultConfig())
	if got := evolved.Elements["a"].String(); got != "(b+, c, d, x)" {
		t.Errorf("restricted a = %s, want (b+, c, d, x)", got)
	}
	var action Action
	for _, c := range report.Changes {
		if c.Name == "a" {
			action = c.Action
		}
	}
	if action != Restricted {
		t.Errorf("action = %v, want restricted", action)
	}
}

func TestRestrictionRequiresSamples(t *testing.T) {
	d := dtd.MustParse(`<!ELEMENT a (b*)> <!ELEMENT b EMPTY>`)
	rec := recordDocs(t, d, map[string]int{`<a><b/></a>`: 3})
	evolved, _ := Evolve(rec, DefaultConfig()) // MinRestrictSamples = 10
	if got := evolved.Elements["a"]; !got.Equal(dtd.NewStar(dtd.NewName("b"))) {
		t.Errorf("a = %s, want b* — too few samples to restrict", got)
	}
	cfg := DefaultConfig()
	cfg.MinRestrictSamples = 2
	evolved, _ = Evolve(rec, cfg)
	if got := evolved.Elements["a"].String(); got != "(b)" {
		t.Errorf("a = %s, want (b) with a low sample floor", got)
	}
}

func TestMiscWindowMergesWithOldDeclaration(t *testing.T) {
	d := dtd.MustParse(`<!ELEMENT a (b, c)> <!ELEMENT b EMPTY> <!ELEMENT c EMPTY>`)
	// Half the instances valid, half with a brand-new shape (z only):
	// I(a) = 0.5 falls in the misc window for ψ = 0.15.
	rec := recordDocs(t, d, map[string]int{
		`<a><b/><c/></a>`: 5,
		`<a><z/></a>`:     5,
	})
	evolved, report := Evolve(rec, DefaultConfig())
	model := evolved.Elements["a"]
	v := validate.New(evolved)
	for _, src := range []string{`<a><b/><c/></a>`, `<a><z/></a>`} {
		if vs := v.ValidateElement(parseDoc(t, src).Root); len(vs) != 0 {
			t.Errorf("doc not valid after misc merge (%s): %v", model, vs)
		}
	}
	var action Action
	for _, c := range report.Changes {
		if c.Name == "a" {
			action = c.Action
		}
	}
	if action != Merged {
		t.Errorf("action = %v, want merged", action)
	}
	if evolved.Elements["z"] == nil {
		t.Error("plus element z not declared")
	}
}

// TestMiscWindowMergesTextBearingDeclaration: a DTD admits text beside
// elements only in mixed content, so a misc-window merge where either side
// admits text becomes the mixed model over both sides' labels. Its text
// reads back as it, and it accepts what the old declaration and the new
// instances do.
func TestMiscWindowMergesTextBearingDeclaration(t *testing.T) {
	d := dtd.MustParse(`<!ELEMENT r (a*)> <!ELEMENT a (#PCDATA)>`)
	d.Name = "r"
	for _, tc := range []struct {
		name string
		docs map[string]int
	}{
		// (#PCDATA) | (#PCDATA | b)* is exactly (#PCDATA | b)*.
		{"mixed", map[string]int{`<r><a>t<b/></a><a>u</a></r>`: 10, `<r><a>t</a></r>`: 10}},
		// (#PCDATA) | (b?) widens to (#PCDATA | b)*, the only DTD form
		// admitting both.
		{"element content", map[string]int{`<r><a/></r>`: 6, `<r><a><b/></a></r>`: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			evolved, _ := Evolve(recordDocs(t, d, tc.docs), DefaultConfig())
			if got, want := evolved.Elements["a"].String(), "(#PCDATA | b)*"; got != want {
				t.Errorf("a = %s, want %s", got, want)
			}
			back, err := dtd.ParseString(evolved.String())
			if err != nil || !back.Equal(evolved) {
				t.Errorf("evolved DTD does not read back from its text (%v):\n%s", err, evolved)
			}
			v := validate.New(evolved)
			for src := range tc.docs {
				if vs := v.ValidateDocument(parseDoc(t, src)); len(vs) != 0 {
					t.Errorf("%s invalid after the merge: %v", src, vs)
				}
			}
		})
	}
}

func TestEvolveLocalityOfModifications(t *testing.T) {
	// Only the drifting element changes; everything else stays untouched.
	d := dtd.MustParse(`
<!ELEMENT r (head, body)>
<!ELEMENT head (title)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT body (p+)>
<!ELEMENT p (#PCDATA)>`)
	// Nine documents: below the restriction sample floor, so valid
	// declarations (r, body) stay literally unchanged while head evolves.
	rec := recordDocs(t, d, map[string]int{
		`<r><head><title>t</title><author>a</author></head><body><p>x</p></body></r>`: 9,
	})
	evolved, _ := Evolve(rec, DefaultConfig())
	if got := evolved.Elements["r"].String(); got != "(head, body)" {
		t.Errorf("r changed: %s", got)
	}
	if got := evolved.Elements["body"]; !got.Equal(d.Elements["body"]) {
		t.Errorf("body changed: %s", got)
	}
	head := evolved.Elements["head"].String()
	if !strings.Contains(head, "author") {
		t.Errorf("head did not gain author: %s", head)
	}
	if evolved.Elements["author"] == nil {
		t.Error("author not declared")
	}
}

func TestEvolveKeepsElementsWithoutData(t *testing.T) {
	d := dtd.MustParse(`<!ELEMENT a (b)> <!ELEMENT b EMPTY> <!ELEMENT unused (a)>`)
	rec := recordDocs(t, d, map[string]int{`<a><b/></a>`: 2})
	evolved, report := Evolve(rec, DefaultConfig())
	if got := evolved.Elements["unused"].String(); got != "(a)" {
		t.Errorf("unused = %s", got)
	}
	for _, c := range report.Changes {
		if c.Name == "unused" && c.Action != Unchanged {
			t.Errorf("unused action = %v", c.Action)
		}
	}
}

func TestEvolveDoesNotMutateInput(t *testing.T) {
	d := dtd.MustParse(`<!ELEMENT a (b)> <!ELEMENT b EMPTY>`)
	before := d.String()
	rec := recordDocs(t, d, map[string]int{`<a><z/><z/></a>`: 10})
	_, _ = Evolve(rec, DefaultConfig())
	if d.String() != before {
		t.Error("Evolve mutated the input DTD")
	}
}

func TestActionString(t *testing.T) {
	for a, want := range map[Action]string{
		Unchanged: "unchanged", Restricted: "restricted",
		Rebuilt: "rebuilt", Merged: "merged", Added: "added",
	} {
		if a.String() != want {
			t.Errorf("Action(%d).String() = %q, want %q", int(a), a.String(), want)
		}
	}
}
