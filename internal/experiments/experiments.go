// Package experiments implements the evaluation harness of EXPERIMENTS.md.
//
// The paper (a workshop paper) reports no quantitative evaluation — §6
// states the authors were "currently experimentally evaluating the proposed
// approach" — so this harness is the designed evaluation documented in
// DESIGN.md §5: every experiment validates one claim the paper makes in
// prose, and each table/figure is regenerated both by cmd/evolvebench and
// by a benchmark in the repository root.
package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"dtdevolve/internal/adapt"
	"dtdevolve/internal/classify"
	"dtdevolve/internal/dtd"
	"dtdevolve/internal/evolve"
	"dtdevolve/internal/gen"
	"dtdevolve/internal/metrics"
	"dtdevolve/internal/mine"
	"dtdevolve/internal/record"
	"dtdevolve/internal/similarity"
	"dtdevolve/internal/source"
	"dtdevolve/internal/thesaurus"
	"dtdevolve/internal/validate"
	"dtdevolve/internal/xmltree"
	"dtdevolve/internal/xtract"
)

// Options controls an experiment run.
type Options struct {
	// Seed drives all randomness; the same seed reproduces the same table.
	Seed int64
	// Quick shrinks corpus sizes for tests; the published tables use the
	// full sizes.
	Quick bool
}

func (o Options) scale(full, quick int) int {
	if o.Quick {
		return quick
	}
	return full
}

// Table is one regenerated table or figure series.
type Table struct {
	ID      string
	Title   string
	Claim   string // the paper claim the experiment validates
	Columns []string
	Rows    [][]string
}

// String renders the table with aligned columns.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(&b, "claim: %s\n", t.Claim)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// All runs every experiment.
func All(o Options) []Table {
	return []Table{
		E1Classification(o),
		E2Evolution(o),
		E3Incremental(o),
		E4PsiSweep(o),
		E5SupportSweep(o),
		E6Mining(o),
		E7Throughput(o),
		E8SigmaSweep(o),
		E9AbsentAblation(o),
		E10DecaySweep(o),
		E11ThesaurusRetention(o),
		E12AdaptationQuality(o),
	}
}

// ByID returns the experiment with the given id (e1..e12), or false.
func ByID(id string, o Options) (Table, bool) {
	switch strings.ToLower(id) {
	case "e1":
		return E1Classification(o), true
	case "e2":
		return E2Evolution(o), true
	case "e3":
		return E3Incremental(o), true
	case "e4":
		return E4PsiSweep(o), true
	case "e5":
		return E5SupportSweep(o), true
	case "e6":
		return E6Mining(o), true
	case "e7":
		return E7Throughput(o), true
	case "e8":
		return E8SigmaSweep(o), true
	case "e9":
		return E9AbsentAblation(o), true
	case "e10":
		return E10DecaySweep(o), true
	case "e11":
		return E11ThesaurusRetention(o), true
	case "e12":
		return E12AdaptationQuality(o), true
	default:
		return Table{}, false
	}
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// truthDTD is the ground-truth schema used by several experiments: a
// document-centric DTD exercising every operator.
func truthDTD() *dtd.DTD {
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

// E1Classification (Table 1) — similarity classification vs the strict
// validator baseline over a heterogeneous DTD set, sweeping the mutation
// rate. The claim: requiring validity "would lead to reject a large amount
// of documents, thus resulting in a considerable loss of information".
func E1Classification(o Options) Table {
	nDTDs := 5
	docsPerRate := o.scale(200, 40)
	rates := []float64{0, 0.1, 0.2, 0.3, 0.5}

	g := gen.New(gen.DefaultConfig(o.Seed))
	dtds := make(map[string]*dtd.DTD, nDTDs)
	names := make([]string, nDTDs)
	for i := range names {
		names[i] = fmt.Sprintf("dtd%d", i+1)
		// All DTDs share the root tag and element alphabet, so
		// classification is structural, not nominal.
		d := gen.New(gen.DefaultConfig(o.Seed+int64(i)*101)).RandomDTD("doc", 8)
		dtds[names[i]] = d
	}
	simClassifier := classify.New(0.7, similarity.DefaultConfig())
	for name, d := range dtds {
		simClassifier.Set(name, d)
	}
	valClassifier := classify.NewValidator(dtds)

	table := Table{
		ID:    "E1 (Table 1)",
		Title: "Classification: similarity vs strict validation",
		Claim: "validator-based classification loses heterogeneous documents; similarity-based classification retains and routes them",
		Columns: []string{
			"mutation_rate", "sim_retained", "sim_accuracy", "val_retained", "val_accuracy",
		},
	}
	for _, rate := range rates {
		simRetained, simCorrect, valRetained, valCorrect, total := 0, 0, 0, 0, 0
		for _, name := range names {
			docs := g.MutatedDocuments(dtds[name], docsPerRate/nDTDs, 2, rate)
			for _, doc := range docs {
				total++
				if res := simClassifier.Classify(doc); res.Classified {
					simRetained++
					if res.DTDName == name {
						simCorrect++
					}
				}
				if got, ok := valClassifier.Classify(doc); ok {
					valRetained++
					if got == name {
						valCorrect++
					}
				}
			}
		}
		row := []string{
			f2(rate),
			f3(float64(simRetained) / float64(total)),
			ratioOrDash(simCorrect, simRetained),
			f3(float64(valRetained) / float64(total)),
			ratioOrDash(valCorrect, valRetained),
		}
		table.Rows = append(table.Rows, row)
	}
	return table
}

func ratioOrDash(num, den int) string {
	if den == 0 {
		return "-"
	}
	return f3(float64(num) / float64(den))
}

// E2Evolution (Table 2) — the evolution phase adapts a DTD to a drifted
// population: conformance and mean similarity before vs after, plus the
// behavioral distance to the drifted ground truth.
func E2Evolution(o Options) Table {
	nDocs := o.scale(300, 50)
	g := gen.New(gen.DefaultConfig(o.Seed))
	truth := truthDTD()
	drifted := g.Drift(truth, 3)
	docs := g.Documents(drifted, nDocs)

	rec := record.New(truth)
	for _, doc := range docs {
		rec.Record(doc)
	}
	evolved, _ := evolve.Evolve(rec, evolve.DefaultConfig())

	simCfg := similarity.DefaultConfig()
	table := Table{
		ID:    "E2 (Table 2)",
		Title: "Evolution adapts the DTD to a drifted population",
		Claim: "the evolved DTD reflects the actual structure of documents: conformance and similarity rise, distance to the drifted ground truth falls",
		Columns: []string{
			"dtd", "conformance", "mean_similarity", "dist_to_truth", "conciseness",
		},
	}
	table.Columns = append(table.Columns, "lang_equiv_truth")
	probe := gen.New(gen.DefaultConfig(o.Seed + 7))
	for _, entry := range []struct {
		name string
		d    *dtd.DTD
	}{{"original", truth}, {"evolved", evolved}, {"drifted-truth", drifted}} {
		table.Rows = append(table.Rows, []string{
			entry.name,
			f3(metrics.Conformance(docs, entry.d)),
			f3(metrics.MeanSimilarity(docs, entry.d, simCfg)),
			f3(metrics.BehavioralDistance(drifted, entry.d, probe, o.scale(200, 40))),
			fmt.Sprintf("%d", metrics.Conciseness(entry.d)),
			fmt.Sprintf("%v", validate.EquivalentDTDs(entry.d, drifted)),
		})
	}
	return table
}

// E3Incremental (Table 3) — the cost argument of §2: recording makes the
// evolution phase cheap and corpus-size independent, while a from-scratch
// inference must re-analyze every document.
func E3Incremental(o Options) Table {
	sizes := []int{100, 500, 1000, 2000, 5000}
	if o.Quick {
		sizes = []int{50, 100}
	}
	g := gen.New(gen.DefaultConfig(o.Seed))
	truth := truthDTD()
	drifted := g.Drift(truth, 3)

	table := Table{
		ID:    "E3 (Table 3)",
		Title: "Incremental evolution vs from-scratch re-inference",
		Claim: "recording at classification time makes the evolution phase fast and independent of corpus size",
		Columns: []string{
			"docs", "record_total_ms", "evolve_ms", "xtract_infer_ms",
		},
	}
	for _, n := range sizes {
		docs := g.Documents(drifted, n)
		rec := record.New(truth)
		t0 := time.Now()
		for _, doc := range docs {
			rec.Record(doc)
		}
		recordMS := time.Since(t0)

		t0 = time.Now()
		_, _ = evolve.Evolve(rec, evolve.DefaultConfig())
		evolveMS := time.Since(t0)

		t0 = time.Now()
		_, err := xtract.Infer(docs)
		xtractMS := time.Since(t0)
		if err != nil {
			panic(err)
		}
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%d", n),
			f3(float64(recordMS.Microseconds()) / 1000),
			f3(float64(evolveMS.Microseconds()) / 1000),
			f3(float64(xtractMS.Microseconds()) / 1000),
		})
	}
	return table
}

// E4PsiSweep (Figure A) — the window threshold ψ trades schema stability
// against adaptivity.
func E4PsiSweep(o Options) Table {
	nOld := o.scale(150, 30)  // documents following the old schema
	nNew := o.scale(100, 20)  // documents following the drifted schema
	nEval := o.scale(200, 40) // evaluation documents (drifted)
	g := gen.New(gen.DefaultConfig(o.Seed))
	truth := truthDTD()
	drifted := g.Drift(truth, 3)

	mixed := append(g.Documents(truth, nOld), g.Documents(drifted, nNew)...)
	evalDocs := gen.New(gen.DefaultConfig(o.Seed+13)).Documents(drifted, nEval)

	table := Table{
		ID:    "E4 (Figure A)",
		Title: "Window threshold ψ: stability vs adaptivity",
		Claim: "ψ controls how much relevance DOC_old keeps against DOC_cur: small ψ leaves declarations unchanged, large ψ rebuilds them",
		Columns: []string{
			"psi", "unchanged", "restricted", "merged", "rebuilt", "conformance_drifted", "conciseness",
		},
	}
	for _, psi := range []float64{0.05, 0.15, 0.25, 0.35, 0.45} {
		rec := record.New(truth)
		for _, doc := range mixed {
			rec.Record(doc)
		}
		cfg := evolve.DefaultConfig()
		cfg.Psi = psi
		evolved, report := evolve.Evolve(rec, cfg)
		counts := map[evolve.Action]int{}
		for _, c := range report.Changes {
			counts[c.Action]++
		}
		table.Rows = append(table.Rows, []string{
			f2(psi),
			fmt.Sprintf("%d", counts[evolve.Unchanged]),
			fmt.Sprintf("%d", counts[evolve.Restricted]),
			fmt.Sprintf("%d", counts[evolve.Merged]),
			fmt.Sprintf("%d", counts[evolve.Rebuilt]),
			f3(metrics.Conformance(evalDocs, evolved)),
			fmt.Sprintf("%d", metrics.Conciseness(evolved)),
		})
	}
	return table
}

// E5SupportSweep (Figure B) — the support threshold µ controls which
// sequences participate in rule extraction and therefore the rebuilt
// structure.
func E5SupportSweep(o Options) Table {
	nDocs := o.scale(200, 40)
	r := rand.New(rand.NewSource(o.Seed))
	// A synthetic population for one element: 60% (a, b), 25% (a, b, c),
	// 10% (d), 5% one-off noise shapes.
	shapes := []struct {
		weight float64
		tags   []string
	}{
		{0.60, []string{"a", "b"}},
		{0.25, []string{"a", "b", "c"}},
		{0.10, []string{"d"}},
	}
	host := dtd.MustParse(`<!ELEMENT r (zzz)> <!ELEMENT zzz EMPTY>`)
	rec := record.New(host)
	for i := 0; i < nDocs; i++ {
		root := xmltree.NewElement("r")
		x := r.Float64()
		acc := 0.0
		var tags []string
		for _, s := range shapes {
			acc += s.weight
			if x < acc {
				tags = s.tags
				break
			}
		}
		if tags == nil { // noise: a unique singleton tag
			tags = []string{fmt.Sprintf("noise%d", i)}
		}
		for _, tag := range tags {
			root.Children = append(root.Children, xmltree.NewElement(tag))
		}
		rec.RecordElement(root)
	}
	stats := rec.Stats("r")
	txs := mine.AugmentAll(stats.Transactions(), stats.LabelSet())

	table := Table{
		ID:    "E5 (Figure B)",
		Title: "Support threshold µ: rule base size and rebuilt structure",
		Claim: "sequences below µ are not representative and are discarded; µ trades noise immunity against structure coverage",
		Columns: []string{
			"mu", "kept_sequences", "frequent_itemsets", "conf1_rules", "model", "accepts_frequent",
		},
	}
	for _, mu := range []float64{0.02, 0.05, 0.1, 0.2, 0.4, 0.7} {
		total := 0
		for _, tx := range txs {
			total += tx.Count
		}
		kept := 0
		for _, tx := range txs {
			if float64(tx.Count)/float64(total) >= mu {
				kept++
			}
		}
		freq := mine.Apriori{}.FrequentItemsets(txs, mu, 3)
		rules := mine.GenerateRules(freq, mine.NewTable(txs), 1.0)

		cfg := evolve.DefaultConfig()
		cfg.MinSupport = mu
		model := evolve.ExtractStructure(stats, cfg)

		// Does the model accept the frequent shapes (a,b) and (a,b,c)?
		accepted := 0
		for _, tags := range [][]string{{"a", "b"}, {"a", "b", "c"}} {
			if validate.MatchModel(model, tags) {
				accepted++
			}
		}
		table.Rows = append(table.Rows, []string{
			f2(mu),
			fmt.Sprintf("%d", kept),
			fmt.Sprintf("%d", len(freq)),
			fmt.Sprintf("%d", len(rules)),
			model.String(),
			fmt.Sprintf("%d/2", accepted),
		})
	}
	return table
}

// E6Mining (Table 4) — ablation: Apriori vs FP-Growth.
func E6Mining(o Options) Table {
	sizes := []int{100, 1000, 10000, 100000}
	if o.Quick {
		sizes = []int{100, 1000}
	}
	items := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"}

	table := Table{
		ID:    "E6 (Table 4)",
		Title: "Frequent-itemset mining ablation: Apriori vs FP-Growth",
		Claim: "both miners return identical itemsets; FP-Growth wins on large, dense transaction sets",
		Columns: []string{
			"transactions", "itemsets", "apriori_ms", "fpgrowth_ms",
		},
	}
	for _, n := range sizes {
		r := rand.New(rand.NewSource(o.Seed))
		txs := make([]mine.Transaction, n)
		for i := range txs {
			var its []string
			for _, it := range items {
				if r.Intn(3) == 0 {
					its = append(its, it)
				}
			}
			if len(its) == 0 {
				its = []string{"a"}
			}
			txs[i] = mine.NewTransaction(its, 1)
		}
		t0 := time.Now()
		a := mine.Apriori{}.FrequentItemsets(txs, 0.1, 4)
		aprioriMS := time.Since(t0)
		t0 = time.Now()
		fp := mine.FPGrowth{}.FrequentItemsets(txs, 0.1, 4)
		fpMS := time.Since(t0)
		if len(a) != len(fp) {
			panic(fmt.Sprintf("miner disagreement: %d vs %d", len(a), len(fp)))
		}
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", len(a)),
			f3(float64(aprioriMS.Microseconds()) / 1000),
			f3(float64(fpMS.Microseconds()) / 1000),
		})
	}
	return table
}

// E7Throughput (Figure C) — classification + recording pipeline
// throughput against corpus size.
func E7Throughput(o Options) Table {
	sizes := []int{100, 500, 2000}
	if o.Quick {
		sizes = []int{50, 100}
	}
	g := gen.New(gen.DefaultConfig(o.Seed))
	truth := truthDTD()
	drifted := g.Drift(truth, 2)

	table := Table{
		ID:    "E7 (Figure C)",
		Title: "Classify+record pipeline throughput",
		Claim: "per-document cost is flat: the pipeline scales linearly with corpus size",
		Columns: []string{
			"docs", "avg_elems_per_doc", "total_ms", "docs_per_sec",
		},
	}
	for _, n := range sizes {
		docs := g.MutatedDocuments(drifted, n, 1, 0.3)
		elems := 0
		for _, doc := range docs {
			elems += doc.Root.CountElements()
		}
		cfg := source.DefaultConfig()
		cfg.AutoEvolve = false
		s := source.New(cfg)
		if err := s.AddDTD("doc", truth); err != nil {
			panic(err)
		}
		t0 := time.Now()
		for _, doc := range docs {
			s.Add(doc)
		}
		elapsed := time.Since(t0)
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%d", n),
			f2(float64(elems) / float64(n)),
			f3(float64(elapsed.Microseconds()) / 1000),
			f2(float64(n) / elapsed.Seconds()),
		})
	}
	return table
}

// E8SigmaSweep (Table 5) — the classification threshold σ: loss of
// information vs repository growth, and post-evolution recovery.
func E8SigmaSweep(o Options) Table {
	nDocs := o.scale(150, 30)
	g := gen.New(gen.DefaultConfig(o.Seed))
	truth := truthDTD()
	drifted := g.Drift(truth, 3)
	docs := g.Documents(drifted, nDocs)

	table := Table{
		ID:    "E8 (Table 5)",
		Title: "Classification threshold σ: retention, repository, recovery",
		Claim: "σ fixes how close classified documents are to their DTD; evolution recovers repository documents afterwards",
		Columns: []string{
			"sigma", "classified", "repository", "recovered_after_evolution",
		},
	}
	for _, sigma := range []float64{0.5, 0.6, 0.7, 0.8, 0.9, 0.95} {
		cfg := source.DefaultConfig()
		cfg.Sigma = sigma
		cfg.AutoEvolve = false
		s := source.New(cfg)
		if err := s.AddDTD("doc", truth); err != nil {
			panic(err)
		}
		classified := 0
		for _, doc := range docs {
			if res := s.Add(doc); res.Classified {
				classified++
			}
		}
		repoBefore := s.RepositorySize()
		recovered := 0
		if classified > 0 {
			_, rec, err := s.EvolveNow("doc")
			if err != nil {
				panic(err)
			}
			recovered = rec
		}
		table.Rows = append(table.Rows, []string{
			f2(sigma),
			fmt.Sprintf("%d/%d", classified, len(docs)),
			fmt.Sprintf("%d", repoBefore),
			fmt.Sprintf("%d", recovered),
		})
	}
	return table
}

// E9AbsentAblation (Table 6) — ablation of the absent-element augmentation
// (paper §4.2, Example 4): without ¬tag items the rules "the absence of
// these elements implies the presence of these elements" cannot be mined,
// so mutually exclusive subelements are never bound by OR.
func E9AbsentAblation(o Options) Table {
	nDocs := o.scale(200, 40)
	table := Table{
		ID:    "E9 (Table 6)",
		Title: "Ablation: absent-element augmentation",
		Claim: "absent elements in the sequences make it possible to determine subelements that never appear together (OR structure)",
		Columns: []string{
			"corpus", "with_augmentation", "without_augmentation",
		},
	}
	corpora := []struct {
		name   string
		shapes [][]string
	}{
		{"exclusive pair (d | e)", [][]string{{"b", "c", "d"}, {"b", "c", "e"}}},
		{"exclusive triple", [][]string{{"x"}, {"y"}, {"z"}}},
		{"plain sequence", [][]string{{"a", "b"}, {"a", "b"}}},
	}
	for _, corpus := range corpora {
		host := dtd.MustParse(`<!ELEMENT r (zzz)> <!ELEMENT zzz EMPTY>`)
		rec := record.New(host)
		for i := 0; i < nDocs; i++ {
			shape := corpus.shapes[i%len(corpus.shapes)]
			root := xmltree.NewElement("r")
			for _, tag := range shape {
				root.Children = append(root.Children, xmltree.NewElement(tag))
			}
			rec.RecordElement(root)
		}
		stats := rec.Stats("r")
		with := evolve.ExtractStructure(stats, evolve.DefaultConfig())
		cfgOff := evolve.DefaultConfig()
		cfgOff.DisableAbsentAugmentation = true
		without := evolve.ExtractStructure(stats, cfgOff)
		table.Rows = append(table.Rows, []string{
			corpus.name, with.String(), without.String(),
		})
	}
	return table
}

// E10DecaySweep (Figure D) — the level decay γ of the similarity measure:
// how much mismatches deep in the tree matter for classification.
func E10DecaySweep(o Options) Table {
	nDocs := o.scale(150, 30)
	g := gen.New(gen.DefaultConfig(o.Seed))
	truth := truthDTD()
	table := Table{
		ID:    "E10 (Figure D)",
		Title: "Level decay γ: depth sensitivity of the similarity measure",
		Claim: "contributions from deeper levels are scaled per level; γ controls how much deep deviations reduce the degree",
		Columns: []string{
			"decay", "mean_sim_shallow_mutants", "mean_sim_deep_mutants", "gap",
		},
	}
	// Shallow mutants: a novel element directly under the root. Deep
	// mutants: a novel element three levels down (inside a list item).
	mkShallow := func() *xmltree.Document {
		doc := g.Document(truth)
		doc.Root.Children = append([]*xmltree.Node{xmltree.NewElement("novel")}, doc.Root.Children...)
		return doc
	}
	mkDeep := func() *xmltree.Document {
		doc := g.Document(truth)
		// Walk to the deepest element and attach the novel element there.
		deepest := doc.Root
		maxDepth := -1
		doc.Root.Walk(func(n *xmltree.Node, d int) bool {
			if n.IsElement() && d > maxDepth {
				deepest, maxDepth = n, d
			}
			return true
		})
		deepest.Children = append(deepest.Children, xmltree.NewElement("novel"))
		return doc
	}
	for _, decay := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		cfg := similarity.DefaultConfig()
		cfg.Decay = decay
		var shallowDocs, deepDocs []*xmltree.Document
		for i := 0; i < nDocs; i++ {
			shallowDocs = append(shallowDocs, mkShallow())
			deepDocs = append(deepDocs, mkDeep())
		}
		s := metrics.MeanSimilarity(shallowDocs, truth, cfg)
		d := metrics.MeanSimilarity(deepDocs, truth, cfg)
		table.Rows = append(table.Rows, []string{
			f2(decay), f3(s), f3(d), f3(d - s),
		})
	}
	return table
}

// E11ThesaurusRetention (Table 7) — the §6 thesaurus extension quantified:
// documents using synonym tags (writer for author, cost for price) are
// lost by tag-equality classification but retained when the measure shifts
// to tag similarity.
func E11ThesaurusRetention(o Options) Table {
	nDocs := o.scale(200, 40)
	d := dtd.MustParse(`
<!ELEMENT book (title, author, price)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT price (#PCDATA)>`)
	d.Name = "book"
	th, err := thesaurus.LoadString("author = writer\nprice ~ cost : 0.9")
	if err != nil {
		panic(err)
	}

	plain := classify.New(0.8, similarity.DefaultConfig())
	plain.Set("book", d)
	simCfg := similarity.DefaultConfig()
	simCfg.TagSimilarity = th.SimilarityFunc()
	withTh := classify.New(0.8, simCfg)
	withTh.Set("book", d)

	table := Table{
		ID:    "E11 (Table 7)",
		Title: "Thesaurus extension: retention under synonym drift",
		Claim: "shifting from tag equality to tag similarity (paper §6) retains documents whose producers use synonym tags",
		Columns: []string{
			"synonym_rate", "plain_retained", "thesaurus_retained",
		},
	}
	r := rand.New(rand.NewSource(o.Seed))
	for _, rate := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		plainKept, thKept := 0, 0
		for i := 0; i < nDocs; i++ {
			author, price := "author", "price"
			if r.Float64() < rate {
				author, price = "writer", "cost"
			}
			root := xmltree.NewElement("book",
				xmltree.NewElement("title", xmltree.NewText("t")),
				xmltree.NewElement(author, xmltree.NewText("a")),
				xmltree.NewElement(price, xmltree.NewText("9")),
			)
			doc := &xmltree.Document{Root: root}
			if plain.Classify(doc).Classified {
				plainKept++
			}
			if withTh.Classify(doc).Classified {
				thKept++
			}
		}
		table.Rows = append(table.Rows, []string{
			f2(rate),
			f3(float64(plainKept) / float64(nDocs)),
			f3(float64(thKept) / float64(nDocs)),
		})
	}
	return table
}

// E12AdaptationQuality (Table 8) — the §6 open problem quantified: stored
// documents adapted to an evolved DTD become valid, while retaining almost
// all of their original content.
func E12AdaptationQuality(o Options) Table {
	nDocs := o.scale(200, 40)
	truth := truthDTD()
	table := Table{
		ID:    "E12 (Table 8)",
		Title: "Document adaptation: validity gained, content retained",
		Claim: "documents already stored in the source can be adapted to the structure prescribed by the evolved DTDs (§6), losing only the elements the schema cannot place",
		Columns: []string{
			"mutations_per_doc", "valid_before", "valid_after", "content_retained",
		},
	}
	for _, k := range []int{1, 2, 4, 8} {
		g := gen.New(gen.DefaultConfig(o.Seed + int64(k)))
		adapter := adapt.New(truth, adapt.DefaultOptions())
		v := validate.New(truth)
		validBefore, validAfter := 0, 0
		retainedSum := 0.0
		for i := 0; i < nDocs; i++ {
			doc := g.Mutate(g.Document(truth), k)
			if len(v.ValidateDocument(doc)) == 0 {
				validBefore++
			}
			out, _ := adapter.Adapt(doc)
			if len(v.ValidateDocument(out)) == 0 {
				validAfter++
			}
			before := doc.Root.CountElements()
			after := out.Root.CountElements()
			if before > 0 {
				ratio := float64(after) / float64(before)
				if ratio > 1 {
					ratio = 1 // insertions can exceed the original count
				}
				retainedSum += ratio
			}
		}
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%d", k),
			f3(float64(validBefore) / float64(nDocs)),
			f3(float64(validAfter) / float64(nDocs)),
			f3(retainedSum / float64(nDocs)),
		})
	}
	return table
}
