package dtd_test

// The determinism and equivalence analyses live in internal/validate, on
// the automaton the validator runs; dtd cannot import validate, so their
// tests sit in this external test package.

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"dtdevolve/internal/dtd"
	"dtdevolve/internal/validate"
)

func cm(t *testing.T, src string) *dtd.Content {
	t.Helper()
	m, err := dtd.ParseContentModel(src)
	if err != nil {
		t.Fatalf("ParseContentModel(%q): %v", src, err)
	}
	return m
}

func TestIsDeterministic(t *testing.T) {
	cases := []struct {
		model string
		want  bool
	}{
		{"EMPTY", true},
		{"ANY", true},
		{"(#PCDATA)", true},
		{"(a)", true},
		{"(a, b)", true},
		{"(a | b)", true},
		{"(a, b?, c*)", true},
		{"((a, b)+, c)", true},
		{"(#PCDATA | a | b)*", true},
		// The classic nondeterministic example: (a, b) | (a, c).
		{"((a, b) | (a, c))", false},
		// (a?, a): after seeing a, is it the first or the second?
		{"(a?, a)", false},
		// (a*, a) likewise.
		{"(a*, a)", false},
		// ((a | b)*, a): after a, loop back or finish?
		{"((a | b)*, a)", false},
		// Deterministic reformulation of (a,b)|(a,c).
		{"(a, (b | c))", true},
		// Repetition with a clear boundary is fine.
		{"((a, b)*, c)", true},
		// Nondeterministic across a nullable boundary: (a?, (a | b)).
		{"(a?, (a | b))", false},
	}
	for _, tc := range cases {
		t.Run(tc.model, func(t *testing.T) {
			m := cm(t, tc.model)
			if got := validate.IsDeterministic(m); got != tc.want {
				t.Errorf("IsDeterministic(%s) = %v, want %v\nissues: %v",
					tc.model, got, tc.want, validate.CheckDeterminism(m))
			}
		})
	}
}

func TestCheckDeterminismMessages(t *testing.T) {
	issues := validate.CheckDeterminism(cm(t, "((a, b) | (a, c))"))
	if len(issues) == 0 {
		t.Fatal("no issues reported")
	}
	if !strings.Contains(issues[0], `element "a"`) {
		t.Errorf("issue = %q, want a mention of element a", issues[0])
	}
	if got := validate.CheckDeterminism(nil); got != nil {
		t.Errorf("nil model issues = %v", got)
	}
}

func TestDTDDeterminism(t *testing.T) {
	d := dtd.MustParse(`
<!ELEMENT ok (a, b)>
<!ELEMENT bad ((a, b) | (a, c))>
<!ELEMENT a EMPTY> <!ELEMENT b EMPTY> <!ELEMENT c EMPTY>`)
	issues := validate.DTDDeterminism(d)
	if len(issues) != 1 {
		t.Fatalf("issues = %v, want only bad", issues)
	}
	if _, ok := issues["bad"]; !ok {
		t.Errorf("issues = %v", issues)
	}
}

// The evolution's misc-window merges are the documented source of
// nondeterminism: ((headline, body) | (headline, byline, body)).
func TestMiscMergeShapeDetected(t *testing.T) {
	m := cm(t, "((headline, body) | (headline, byline, body))")
	if validate.IsDeterministic(m) {
		t.Error("merge shape should be flagged as nondeterministic")
	}
}

func TestEquivalentBasics(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"(a)", "(a)", true},
		{"(a)", "(b)", false},
		{"(a, b)", "(a, b)", true},
		{"(a, b)", "(b, a)", false},
		{"(a | b)", "(b | a)", true},
		{"(a?)", "(a | a?)", true},
		{"(a*)", "((a?)+)", true},
		{"(a+)", "(a, a*)", true},
		{"(a*)", "(a+)", false},
		{"((a, b) | (a, c))", "(a, (b | c))", true},
		{"((a | b)*)", "((a* , b*)*)", true},
		{"(a?, b?)", "(b?, a?)", false}, // ab vs ba
		{"EMPTY", "EMPTY", true},
		{"EMPTY", "(a?)", false},
		// Child-sequence level: (#PCDATA) and EMPTY both admit no child
		// elements.
		{"(#PCDATA)", "EMPTY", true},
		{"ANY", "ANY", true},
		{"ANY", "(a*)", false},
		{"(a, (b | c)*, d)", "(a, (c | b)*, d)", true},
		{"((a, b)+)", "(a, b, (a, b)*)", true},
		{"((a, b)+)", "(a, (b, a)*, b)", true}, // same language, shifted
	}
	for _, tc := range cases {
		t.Run(tc.a+" vs "+tc.b, func(t *testing.T) {
			a, b := cm(t, tc.a), cm(t, tc.b)
			if got := validate.Equivalent(a, b); got != tc.want {
				t.Errorf("Equivalent(%s, %s) = %v, want %v", tc.a, tc.b, got, tc.want)
			}
			if got := validate.Equivalent(b, a); got != tc.want {
				t.Errorf("Equivalent(%s, %s) = %v, want %v (asymmetry)", tc.b, tc.a, got, tc.want)
			}
		})
	}
}

func TestEquivalentNil(t *testing.T) {
	if !validate.Equivalent(nil, nil) {
		t.Error("nil vs nil")
	}
	if validate.Equivalent(nil, dtd.NewEmpty()) {
		t.Error("nil vs EMPTY")
	}
}

func TestEquivalentDTDs(t *testing.T) {
	a := dtd.MustParse(`<!ELEMENT r ((x, y) | (x, z))> <!ELEMENT x EMPTY> <!ELEMENT y EMPTY> <!ELEMENT z EMPTY>`)
	b := dtd.MustParse(`<!ELEMENT r (x, (y | z))> <!ELEMENT x EMPTY> <!ELEMENT y EMPTY> <!ELEMENT z EMPTY>`)
	if !validate.EquivalentDTDs(a, b) {
		t.Error("equivalent DTDs not recognized")
	}
	c := dtd.MustParse(`<!ELEMENT r (x, y)> <!ELEMENT x EMPTY> <!ELEMENT y EMPTY> <!ELEMENT z EMPTY>`)
	if validate.EquivalentDTDs(a, c) {
		t.Error("different DTDs reported equivalent")
	}
	d := dtd.MustParse(`<!ELEMENT r (x, (y | z))> <!ELEMENT x EMPTY> <!ELEMENT y EMPTY>`)
	if validate.EquivalentDTDs(a, d) {
		t.Error("DTDs with different element sets reported equivalent")
	}
}

// TestPropertyRewritePreservesLanguage is the paper's promise about the
// re-writing rules ("with the same set of valid documents"), verified
// exactly via automata equivalence on random models.
func TestPropertyRewritePreservesLanguage(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := dtd.RandomModel(r, 0)
		if m.Kind == dtd.Any {
			return true
		}
		rw := dtd.Rewrite(m)
		if rw.Kind == dtd.Any || m.HasPCDATA() != rw.HasPCDATA() {
			// PCDATA handling may move within mixed forms; skip those.
			return validate.Equivalent(m, rw) || m.HasPCDATA()
		}
		if !validate.Equivalent(m, rw) {
			t.Logf("language changed: %s -> %s", m, rw)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestEquivalentLargeAlternation(t *testing.T) {
	// Scaling check: a 12-way alternation with repetition determinizes
	// without blowup.
	var parts []string
	for i := 0; i < 12; i++ {
		parts = append(parts, string(rune('a'+i)))
	}
	src := "((" + strings.Join(parts, " | ") + ")*)"
	a, b := cm(t, src), cm(t, src)
	if !validate.Equivalent(a, b) {
		t.Error("self-equivalence failed")
	}
}
