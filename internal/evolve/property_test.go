package evolve

// Cross-seed properties of the whole evolution phase over generated
// workloads: these are the behavioral guarantees the evaluation relies on.

import (
	"fmt"
	"testing"

	"dtdevolve/internal/dtd"
	"dtdevolve/internal/gen"
	"dtdevolve/internal/metrics"
	"dtdevolve/internal/record"
)

func propertyTruth() *dtd.DTD {
	d := dtd.MustParse(`
<!ELEMENT doc (head, section+)>
<!ELEMENT head (title, meta*)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT meta EMPTY>
<!ELEMENT section (heading?, (para | list)*)>
<!ELEMENT heading (#PCDATA)>
<!ELEMENT para (#PCDATA)>
<!ELEMENT list (item+)>
<!ELEMENT item (#PCDATA)>`)
	d.Name = "doc"
	return d
}

// TestPropertyEvolutionImprovesConformance: for many random drifts, one
// evolution step must never reduce — and essentially always increase —
// conformance on the drifted population.
func TestPropertyEvolutionImprovesConformance(t *testing.T) {
	truth := propertyTruth()
	improved := 0
	const seeds = 40
	for seed := int64(1); seed <= seeds; seed++ {
		g := gen.New(gen.DefaultConfig(seed))
		drifted := g.Drift(truth, 1+int(seed%4))
		docs := g.Documents(drifted, 60)

		rec := record.New(truth)
		for _, doc := range docs {
			rec.Record(doc)
		}
		evolved, _ := Evolve(rec, DefaultConfig())

		before := metrics.Conformance(docs, truth)
		after := metrics.Conformance(docs, evolved)
		if after < before {
			t.Errorf("seed %d: conformance dropped %.3f -> %.3f\ndrifted:\n%s\nevolved:\n%s",
				seed, before, after, drifted, evolved)
		}
		if after > before {
			improved++
		}
	}
	if improved < seeds*3/4 {
		t.Errorf("evolution improved conformance in only %d/%d drifts", improved, seeds)
	}
}

// TestPropertyEvolvedDTDReparses: whatever the drift, the evolved DTD
// serializes to legal DTD syntax and reparses to an equal structure, the
// reading a source's checkpoints give it. Beside drifts of the property
// truth, it evolves 400 random DTDs from mutated and drifted documents at
// ψ ∈ {0, 0.15, 0.4, 0.5}, where misc-window merges meet text-bearing
// declarations.
func TestPropertyEvolvedDTDReparses(t *testing.T) {
	reparses := func(label string, evolved *dtd.DTD) {
		t.Helper()
		out := evolved.String()
		back, err := dtd.ParseString(out)
		if err != nil {
			t.Fatalf("%s: evolved DTD does not reparse: %v\n%s", label, err, out)
		}
		if !evolved.Equal(back) {
			t.Fatalf("%s: round trip changed evolved DTD\n%s", label, out)
		}
	}
	truth := propertyTruth()
	for seed := int64(1); seed <= 30; seed++ {
		g := gen.New(gen.DefaultConfig(seed))
		drifted := g.Drift(truth, 2)
		rec := record.New(truth)
		for _, doc := range g.MutatedDocuments(drifted, 40, 2, 0.4) {
			rec.Record(doc)
		}
		evolved, _ := Evolve(rec, DefaultConfig())
		reparses(fmt.Sprintf("seed %d", seed), evolved)
	}
	for seed := int64(1); seed <= 400; seed++ {
		gcfg := gen.DefaultConfig(seed)
		gcfg.MaxDepth = 6
		g := gen.New(gcfg)
		random := g.RandomDTD("root", 8)
		docs := append(g.MutatedDocuments(random, 10, 2, 0.5), g.MutatedDocuments(g.Drift(random, 3), 10, 1, 0.3)...)
		rec := record.New(random)
		for _, doc := range docs {
			rec.Record(doc)
		}
		for _, psi := range []float64{0, 0.15, 0.4, 0.5} {
			cfg := DefaultConfig()
			cfg.Psi = psi
			evolved, _ := Evolve(rec, cfg)
			reparses(fmt.Sprintf("random DTD seed %d, ψ %.2f", seed, psi), evolved)
		}
	}
}

// TestPropertySecondEvolutionConverges: evolving twice on a stable drifted
// population reaches a fixpoint good enough that the whole population is
// valid.
func TestPropertySecondEvolutionConverges(t *testing.T) {
	truth := propertyTruth()
	for seed := int64(1); seed <= 20; seed++ {
		g := gen.New(gen.DefaultConfig(seed))
		drifted := g.Drift(truth, 2)
		docs := g.Documents(drifted, 60)

		current := truth
		for round := 0; round < 2; round++ {
			rec := record.New(current)
			for _, doc := range docs {
				rec.Record(doc)
			}
			if !rec.ShouldEvolve(0) && round > 0 {
				break // already fully valid
			}
			current, _ = Evolve(rec, DefaultConfig())
		}
		if got := metrics.Conformance(docs, current); got < 0.95 {
			t.Errorf("seed %d: conformance after two evolutions = %.3f\ndrifted:\n%s\nreached:\n%s",
				seed, got, drifted, current)
		}
	}
}
