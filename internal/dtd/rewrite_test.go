package dtd

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRewriteRules(t *testing.T) {
	cases := []struct {
		name string
		in   *Content
		want string
	}{
		{"flatten seq", NewSeq(NewSeq(NewName("a"), NewName("b")), NewName("c")), "(a, b, c)"},
		{"flatten choice", NewChoice(NewChoice(NewName("a"), NewName("b")), NewName("c")), "(a | b | c)"},
		{"unwrap single seq", NewSeq(NewName("a")), "(a)"},
		{"unwrap single choice", NewChoice(NewName("a")), "(a)"},
		{"dedupe choice", NewChoice(NewName("a"), NewName("b"), NewName("a")), "(a | b)"},
		{"dedupe structural", NewChoice(NewSeq(NewName("a"), NewName("b")), NewSeq(NewName("a"), NewName("b"))), "(a, b)"},
		{"opt opt", NewOpt(NewOpt(NewName("a"))), "(a)?"},
		{"star opt", NewStar(NewOpt(NewName("a"))), "(a)*"},
		{"plus opt", NewPlus(NewOpt(NewName("a"))), "(a)*"},
		{"opt star", NewOpt(NewStar(NewName("a"))), "(a)*"},
		{"star star", NewStar(NewStar(NewName("a"))), "(a)*"},
		{"plus star", NewPlus(NewStar(NewName("a"))), "(a)*"},
		{"opt plus", NewOpt(NewPlus(NewName("a"))), "(a)*"},
		{"star plus", NewStar(NewPlus(NewName("a"))), "(a)*"},
		{"plus plus", NewPlus(NewPlus(NewName("a"))), "(a)+"},
		{"opt of nullable seq", NewOpt(NewSeq(NewOpt(NewName("a")), NewStar(NewName("b")))), "(a?, b*)"},
		{"empty in seq", NewSeq(NewName("a"), NewEmpty(), NewName("b")), "(a, b)"},
		{"empty alternative", NewChoice(NewEmpty(), NewName("a")), "(a)?"},
		{"empty alternative multi", NewChoice(NewEmpty(), NewName("a"), NewName("b")), "(a | b)?"},
		{"empty group", NewSeq(), "EMPTY"},
		{"star of empty", NewStar(NewEmpty()), "EMPTY"},
		{"pcdata to front", NewStar(NewChoice(NewName("a"), NewPCDATA())), "(#PCDATA | a)*"},
		{"star of pcdata", NewStar(NewPCDATA()), "(#PCDATA)"},
		{"plus of optional pcdata", NewPlus(NewOpt(NewPCDATA())), "(#PCDATA)"},
		{"deep combination", NewOpt(NewSeq(NewSeq(NewStar(NewStar(NewName("a")))))), "(a)*"},
		{"untouched", NewSeq(NewName("a"), NewOpt(NewName("b")), NewPlus(NewChoice(NewName("c"), NewName("d")))), "(a, b?, (c | d)+)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Rewrite(tc.in)
			if got.String() != tc.want {
				t.Errorf("Rewrite(%s) = %s, want %s", tc.in, got, tc.want)
			}
		})
	}
}

func TestRewriteDoesNotMutateInput(t *testing.T) {
	in := NewSeq(NewSeq(NewName("a")), NewName("b"))
	before := in.String()
	_ = Rewrite(in)
	if in.String() != before {
		t.Errorf("input mutated: %s -> %s", before, in.String())
	}
}

func TestRewriteDTD(t *testing.T) {
	d := NewDTD("a")
	d.Declare("a", NewSeq(NewSeq(NewName("b"), NewName("b")), NewOpt(NewOpt(NewName("c")))))
	d.Declare("b", NewPCDATA())
	d.Declare("c", NewPCDATA())
	out := RewriteDTD(d)
	if got := out.Elements["a"].String(); got != "(b, b, c?)" {
		t.Errorf("rewritten a = %s", got)
	}
	// Original untouched.
	if got := d.Elements["a"].String(); got == "(b, b, c?)" {
		t.Error("RewriteDTD mutated its input")
	}
}

// randomModel builds a random content model for property testing.
func randomModel(r *rand.Rand, depth int) *Content {
	names := []string{"a", "b", "c", "d"}
	if depth > 3 || r.Intn(3) == 0 {
		return NewName(names[r.Intn(len(names))])
	}
	switch r.Intn(6) {
	case 0:
		return NewOpt(randomModel(r, depth+1))
	case 1:
		return NewStar(randomModel(r, depth+1))
	case 2:
		return NewPlus(randomModel(r, depth+1))
	case 3:
		n := 1 + r.Intn(3)
		kids := make([]*Content, n)
		for i := range kids {
			kids[i] = randomModel(r, depth+1)
		}
		return NewSeq(kids...)
	default:
		n := 1 + r.Intn(3)
		kids := make([]*Content, n)
		for i := range kids {
			kids[i] = randomModel(r, depth+1)
		}
		return NewChoice(kids...)
	}
}

func TestPropertyRewriteIdempotentAndSmaller(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := randomModel(r, 0)
		r1 := Rewrite(m)
		r2 := Rewrite(r1)
		if !r1.Equal(r2) {
			t.Logf("not idempotent: %s -> %s -> %s", m, r1, r2)
			return false
		}
		if r1.NodeCount() > m.NodeCount() {
			t.Logf("grew: %s (%d) -> %s (%d)", m, m.NodeCount(), r1, r1.NodeCount())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropertyRewritePreservesNullability(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := randomModel(r, 0)
		return m.Nullable() == Rewrite(m).Nullable()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropertyRewritePreservesLabels(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := randomModel(r, 0)
		a, b := m.Labels(), Rewrite(m).Labels()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
