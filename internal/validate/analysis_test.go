package validate

import (
	"math/rand/v2"
	"slices"
	"testing"

	"dtdevolve/internal/dtd"
)

// checkAnalysesAgainstLegacy fails t when the automaton's determinism
// messages for x, or its equivalence verdict on (x, y), differ from the
// Glushkov oracle's.
func checkAnalysesAgainstLegacy(t *testing.T, x, y *dtd.Content) {
	t.Helper()
	if got, want := CheckDeterminism(x), legacyCheckDeterminism(x); !slices.Equal(got, want) {
		t.Fatalf("CheckDeterminism(%s) = %q, legacy %q", x, got, want)
	}
	if got, want := Equivalent(x, y), legacyEquivalent(x, y); got != want {
		t.Fatalf("Equivalent(%s, %s) = %v, legacy %v", x, y, got, want)
	}
}

// TestAnalysesMatchLegacy checks the automaton's analyses against the
// Glushkov oracle on 100,000 random models of up to five operator levels:
// each model's determinism messages, its equivalence with its rewrite, and
// its equivalence with a small random model, which over two letters is
// often equivalent.
func TestAnalysesMatchLegacy(t *testing.T) {
	rng := rand.New(rand.NewPCG(20, 2))
	small := func(n int) int {
		if n == len(alphabet) {
			return rng.IntN(2)
		}
		return rng.IntN(n)
	}
	equal := 0
	for i := 0; i < 100000; i++ {
		m := randModel(rng.IntN, 5)
		checkAnalysesAgainstLegacy(t, m, dtd.Rewrite(m))
		x, y := randModel(small, 2), randModel(small, 2)
		checkAnalysesAgainstLegacy(t, x, y)
		if Equivalent(x, y) {
			equal++
		}
	}
	t.Logf("%d of 100,000 small random pairs equivalent", equal)
}

// TestEquivalentAgreesWithMatchModel: models Equivalent calls equal give
// the same MatchModel verdict on every sampled word. The pairs are random
// models with their rewrites, small random pairs, and random models beside
// a Go-built copy nesting ANY, which every reading takes as the empty
// sequence.
func TestEquivalentAgreesWithMatchModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(25, 1))
	small := func(n int) int {
		if n == len(alphabet) {
			return rng.IntN(2)
		}
		return rng.IntN(n)
	}
	checked := 0
	for i := 0; i < 5000; i++ {
		x := randModel(rng.IntN, 4)
		pairs := [][2]*dtd.Content{
			{x, dtd.Rewrite(x)},
			{x, dtd.NewSeq(x, dtd.NewAny())},
			{randModel(small, 2), randModel(small, 2)},
		}
		for _, p := range pairs {
			if !Equivalent(p[0], p[1]) {
				continue
			}
			checked++
			mx, my := Matcher(p[0]), Matcher(p[1])
			for k := 0; k < 16; k++ {
				if w := randTags(rng.IntN); mx(w) != my(w) {
					t.Fatalf("Equivalent(%s, %s), but MatchModel on %v reads %v and %v", p[0], p[1], w, mx(w), my(w))
				}
			}
		}
	}
	t.Logf("%d equivalent pairs agree on sampled words", checked)
}

func FuzzAnalyses(f *testing.F) {
	f.Add([]byte{1, 3, 0, 1, 4, 2, 0, 3, 1})
	f.Add([]byte{4, 3, 1, 3, 2, 0, 5, 7, 1, 1, 6})
	f.Add([]byte{0, 2, 2, 9, 0, 3, 4, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		choose := byteChooser(data)
		x := randModel(choose, 5)
		checkAnalysesAgainstLegacy(t, x, randModel(choose, 5))
		checkAnalysesAgainstLegacy(t, x, dtd.Rewrite(x))
	})
}

// TestNestedRepetitionIsDeterministic: a repetition nested in another
// reaches each occurrence along two paths, which is one occurrence, not
// two competing ones.
func TestNestedRepetitionIsDeterministic(t *testing.T) {
	for _, src := range []string{"((a | b)*)*", "((a*)*)", "((a+)+)", "((a?)*, b)"} {
		if issues := CheckDeterminism(model(t, src)); len(issues) != 0 {
			t.Errorf("CheckDeterminism(%s) = %q, want none", src, issues)
		}
	}
	if issues := CheckDeterminism(model(t, "((a*)*, a)")); len(issues) == 0 {
		t.Error("((a*)*, a) should stay nondeterministic")
	}
}
