package dtdevolve_test

// One benchmark per experiment of the evaluation harness (DESIGN.md §5 /
// EXPERIMENTS.md), plus micro-benchmarks of the core operations. The
// corresponding tables are regenerated with cmd/evolvebench.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dtdevolve"
	"dtdevolve/internal/classify"
	"dtdevolve/internal/dtd"
	"dtdevolve/internal/evolve"
	"dtdevolve/internal/experiments"
	"dtdevolve/internal/gen"
	"dtdevolve/internal/intern"
	"dtdevolve/internal/mine"
	"dtdevolve/internal/record"
	"dtdevolve/internal/similarity"
	"dtdevolve/internal/source"
	"dtdevolve/internal/validate"
	"dtdevolve/internal/wal"
	"dtdevolve/internal/xmltree"
	"dtdevolve/internal/xtract"
)

func benchOptions() experiments.Options {
	return experiments.Options{Seed: 1, Quick: true}
}

// --- experiment benchmarks (one per table/figure) ---

func BenchmarkE1Classification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.E1Classification(benchOptions())
	}
}

func BenchmarkE2Evolution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.E2Evolution(benchOptions())
	}
}

func BenchmarkE3Incremental(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.E3Incremental(benchOptions())
	}
}

func BenchmarkE4PsiSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.E4PsiSweep(benchOptions())
	}
}

func BenchmarkE5SupportSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.E5SupportSweep(benchOptions())
	}
}

func BenchmarkE6Mining(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.E6Mining(benchOptions())
	}
}

func BenchmarkE7Throughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.E7Throughput(benchOptions())
	}
}

func BenchmarkE8SigmaSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.E8SigmaSweep(benchOptions())
	}
}

// --- micro-benchmarks of the core operations ---

var benchDTD = func() *dtd.DTD {
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
}()

func benchCorpus(n int, mutRate float64) []*dtdevolve.Document {
	g := gen.New(gen.DefaultConfig(42))
	return g.MutatedDocuments(benchDTD, n, 2, mutRate)
}

func BenchmarkParseDocument(b *testing.B) {
	src := benchCorpus(1, 0)[0].Root.String()
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dtdevolve.ParseDocumentString(src); err != nil {
			b.Fatal(err)
		}
	}
}

// eventLogDTDSrc is the log-event schema of the durable-stream workload
// (httpbench): one document carries hundreds of events.
const eventLogDTDSrc = `
<!ELEMENT log (event)*>
<!ELEMENT event (ts, level, msg, trace?)>
<!ELEMENT ts (#PCDATA)>
<!ELEMENT level (#PCDATA)>
<!ELEMENT msg (#PCDATA)>
<!ELEMENT trace (#PCDATA)>`

// logDocument is a ~60 KB log of 800 generated events (seed 42), shaped
// like the documents durable-stream ingests and replays.
func logDocument() string {
	event := dtd.MustParse(eventLogDTDSrc)
	event.Name = "event"
	g := gen.New(gen.DefaultConfig(42))
	root := xmltree.NewElement("log")
	for i := 0; i < 800; i++ {
		root.Children = append(root.Children, g.Document(event).Root)
	}
	return (&xmltree.Document{Root: root}).String()
}

// BenchmarkParseLogDocument parses logDocument: the tree parse at the size
// where per-node costs dominate.
func BenchmarkParseLogDocument(b *testing.B) {
	src := logDocument()
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dtdevolve.ParseDocumentString(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseDTD(b *testing.B) {
	src := benchDTD.String()
	for i := 0; i < b.N; i++ {
		if _, err := dtdevolve.ParseDTDString(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkValidate(b *testing.B) {
	docs := benchCorpus(100, 0.3)
	v := validate.New(benchDTD)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.ValidateDocument(docs[i%len(docs)])
	}
}

// BenchmarkSimilarityDP measures the alignment-based similarity measure —
// the cost of the flexible classification the paper proposes over boolean
// validation (compare with BenchmarkValidate).
func BenchmarkSimilarityDP(b *testing.B) {
	docs := benchCorpus(100, 0.3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := similarity.NewEvaluator(benchDTD, similarity.DefaultConfig())
		e.GlobalSim(docs[i%len(docs)].Root)
	}
}

// BenchmarkLocalSimilarity measures one steady-state local similarity
// evaluation on a reused evaluator — the per-element cost inside the
// classify → record pipeline. The interned kernel keeps this at 0 allocs/op
// (asserted by TestLocalSimSteadyStateAllocs and gated by cmd/benchgate).
func BenchmarkLocalSimilarity(b *testing.B) {
	docs := benchCorpus(100, 0.3)
	e := similarity.NewEvaluator(benchDTD, similarity.DefaultConfig())
	model := benchDTD.Elements[benchDTD.Name]
	for _, doc := range docs { // warm up memos and scratch
		e.LocalSim(doc.Root, model)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.LocalSim(docs[i%len(docs)].Root, model)
	}
}

// BenchmarkGlobalSimilarity is the whole-document variant: one pooled
// global evaluation per iteration over stamped documents, as the source's
// ingest path performs it.
func BenchmarkGlobalSimilarity(b *testing.B) {
	docs := benchCorpus(100, 0.3)
	pool := similarity.NewPool(benchDTD, similarity.DefaultConfig())
	for _, doc := range docs {
		pool.GlobalSim(doc.Root)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.GlobalSim(docs[i%len(docs)].Root)
	}
}

func BenchmarkRecordDocument(b *testing.B) {
	docs := benchCorpus(100, 0.3)
	rec := record.New(benchDTD)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Record(docs[i%len(docs)])
	}
}

// eventLogDTD is a log-event schema: one document carries hundreds of
// <event> children under a single (event)* root.
var eventLogDTD = func() *dtd.DTD {
	d := dtd.MustParse(`
<!ELEMENT log (event)*>
<!ELEMENT event (ts, level, msg, trace?)>
<!ELEMENT ts (#PCDATA)>
<!ELEMENT level (#PCDATA)>
<!ELEMENT msg (#PCDATA)>
<!ELEMENT trace (#PCDATA)>`)
	d.Name = "log"
	return d
}()

// wideLogDocument returns a valid eventLogDTD document of n events; every
// third event carries a trace.
func wideLogDocument(b *testing.B, n int) *dtdevolve.Document {
	var sb strings.Builder
	sb.WriteString("<log>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "<event><ts>%d</ts><level>info</level><msg>event %d</msg>", i, i)
		if i%3 == 0 {
			sb.WriteString("<trace>t</trace>")
		}
		sb.WriteString("</event>")
	}
	sb.WriteString("</log>")
	doc, err := dtdevolve.ParseDocumentString(sb.String())
	if err != nil {
		b.Fatal(err)
	}
	return doc
}

// BenchmarkRecordWideDocument records a 1,200-event document: its root's
// local validity is decided over 1,200 children. Gated at 0 allocs/op.
func BenchmarkRecordWideDocument(b *testing.B) {
	doc := wideLogDocument(b, 1200)
	rec := record.New(eventLogDTD)
	rec.Record(doc) // create the stat rows
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Record(doc)
	}
}

// BenchmarkRecordLogDocument tree-records logDocument (800 events, the
// shape durable-stream journals), stamped first with intern.InternDocument
// as WAL replay of a doc record does: the recording cost recovery pays per
// replayed document. Gated at 0 allocs/op.
func BenchmarkRecordLogDocument(b *testing.B) {
	d := dtd.MustParse(eventLogDTDSrc)
	d.Name = "log"
	doc, err := dtdevolve.ParseDocumentString(logDocument())
	if err != nil {
		b.Fatal(err)
	}
	tab := intern.NewTable()
	rec := record.NewWithTable(d, tab)
	intern.InternDocument(tab, doc.Root)
	rec.Record(doc) // create the stat rows
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Record(doc)
	}
}

// BenchmarkLocalValidWide decides the local validity of that 1,200-event
// root against (event)*. Gated at 0 allocs/op.
func BenchmarkLocalValidWide(b *testing.B) {
	doc := wideLogDocument(b, 1200)
	v := validate.New(eventLogDTD)
	model := eventLogDTD.Elements["log"]
	if !v.LocalValid(doc.Root, model) {
		b.Fatal("wide root is not locally valid")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.LocalValid(doc.Root, model)
	}
}

func BenchmarkEvolvePhase(b *testing.B) {
	docs := benchCorpus(500, 0.5)
	rec := record.New(benchDTD)
	for _, doc := range docs {
		rec.Record(doc)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = evolve.Evolve(rec, evolve.DefaultConfig())
	}
}

func BenchmarkXtractInfer(b *testing.B) {
	docs := benchCorpus(500, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xtract.Infer(docs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSourceAdd(b *testing.B) {
	docs := benchCorpus(200, 0.3)
	cfg := source.DefaultConfig()
	cfg.AutoEvolve = false
	s := source.New(cfg)
	s.AddDTD("doc", benchDTD)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(docs[i%len(docs)])
	}
}

// BenchmarkWALAppend measures the steady-state journal hot path under the
// service's default policy (interval fsync: the append never waits on the
// disk). The reusable frame buffer keeps it at 0 allocs/op; the benchgate
// pins that, since an allocation here is paid once per ingested document.
func BenchmarkWALAppend(b *testing.B) {
	l, err := dtdevolve.OpenWAL(b.TempDir(), dtdevolve.WALOptions{Sync: dtdevolve.SyncInterval})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	payload := []byte(`{"op":"doc","text":"<article><title>t</title><author>a</author><body>b</body></article>"}`)
	if err := l.Append(payload); err != nil { // warm up: create the segment, size the buffer
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Append(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSourceAddWAL is BenchmarkSourceAdd with journaling attached: the
// full durable ingest path (classify + journal + record) at interval fsync.
func BenchmarkSourceAddWAL(b *testing.B) {
	docs := benchCorpus(200, 0.3)
	cfg := source.DefaultConfig()
	cfg.AutoEvolve = false
	s := source.New(cfg)
	s.AddDTD("doc", benchDTD)
	l, err := dtdevolve.OpenWAL(b.TempDir(), dtdevolve.WALOptions{Sync: dtdevolve.SyncInterval})
	if err != nil {
		b.Fatal(err)
	}
	s.AttachWAL(l)
	defer s.CloseWAL()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(docs[i%len(docs)])
	}
}

// benchIngestSource registers four root-agnostic DTD variants, so every
// classification scores the document against all of them — the multi-DTD
// workload the concurrent ingest pipeline is built for.
func benchIngestSource() *source.Source {
	cfg := source.DefaultConfig()
	cfg.AutoEvolve = false
	s := source.New(cfg)
	variants := []string{
		benchDTD.String(),
		`<!ELEMENT doc (head?, section*)>
		 <!ELEMENT head (title)>
		 <!ELEMENT title (#PCDATA)>
		 <!ELEMENT section (para*)>
		 <!ELEMENT para (#PCDATA)>`,
		`<!ELEMENT doc (section+)>
		 <!ELEMENT section (heading, para+, list?)>
		 <!ELEMENT heading (#PCDATA)>
		 <!ELEMENT para (#PCDATA)>
		 <!ELEMENT list (item*)>
		 <!ELEMENT item (#PCDATA)>`,
		`<!ELEMENT doc (head, body)>
		 <!ELEMENT head (title, meta*)>
		 <!ELEMENT title (#PCDATA)>
		 <!ELEMENT meta EMPTY>
		 <!ELEMENT body (para | list)*>
		 <!ELEMENT para (#PCDATA)>
		 <!ELEMENT list (item+)>
		 <!ELEMENT item (#PCDATA)>`,
	}
	for i, src := range variants {
		d := dtd.MustParse(src)
		// No declared root: every DTD is a candidate for every document.
		d.Name = ""
		s.AddDTD(fmt.Sprintf("v%d", i), d)
	}
	return s
}

// BenchmarkSourceIngestSerial is the single-goroutine baseline over the
// multi-DTD source; compare with BenchmarkSourceIngestParallel, which
// drives the same source from GOMAXPROCS goroutines. On ≥ 4 cores the
// parallel path sustains well over 2× the serial throughput, because
// classification (the alignment-dominated phase) runs under a read lock,
// while only the cheap commit serializes.
func BenchmarkSourceIngestSerial(b *testing.B) {
	docs := benchCorpus(200, 0.3)
	s := benchIngestSource()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(docs[i%len(docs)])
	}
}

func BenchmarkSourceIngestParallel(b *testing.B) {
	docs := benchCorpus(200, 0.3)
	s := benchIngestSource()
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(next.Add(1))
			s.Add(docs[i%len(docs)])
		}
	})
}

// BenchmarkSourceIngestBatch measures the batch path: one read-lock section
// scoring a whole batch concurrently, one write-lock commit.
func BenchmarkSourceIngestBatch(b *testing.B) {
	const batchSize = 32
	docs := benchCorpus(batchSize, 0.3)
	s := benchIngestSource()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AddBatch(docs)
	}
	b.ReportMetric(float64(b.N*batchSize)/b.Elapsed().Seconds(), "docs/s")
}

// BenchmarkConcurrentAddSyncAlways is the workload synchronous durability
// is hardest on: 16 writers committing concurrently over a SyncAlways WAL,
// with group commit batching their journal appends so the group shares one
// fsync — taken off the write lock entirely (wal.Flush), so scoring and
// queue growth overlap the disk round-trip. The custom metrics report
// sustained throughput and the amortized fsync cost.
func BenchmarkConcurrentAddSyncAlways(b *testing.B) {
	const writers = 16
	docs := benchCorpus(200, 0.3)
	cfg := source.DefaultConfig()
	cfg.AutoEvolve = false
	s := source.New(cfg)
	s.AddDTD("doc", benchDTD)
	l, err := dtdevolve.OpenWAL(b.TempDir(), dtdevolve.WALOptions{Sync: dtdevolve.SyncAlways})
	if err != nil {
		b.Fatal(err)
	}
	s.AttachWAL(l)
	defer s.CloseWAL()
	start := l.Stats().Syncs
	var next atomic.Int64
	var wg sync.WaitGroup
	b.ResetTimer()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= b.N {
					return
				}
				s.Add(docs[i%len(docs)])
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "docs/s")
	b.ReportMetric(float64(l.Stats().Syncs-start)/float64(b.N), "fsyncs/doc")
}

// BenchmarkShardedConcurrentAdd is the scaling curve for DESIGN.md §13:
// the same 16-writer SyncAlways workload as BenchmarkConcurrentAddSyncAlways,
// but spread over N independent shards, each with its own lock, WAL and
// group-commit queue. With one shard this is (modulo routing overhead) the
// unsharded group-commit number; with N shards the commit sections and the
// fsyncs proceed in parallel, so on an M-core host with M ≥ N the curve
// should approach N× until the disk saturates. On a single-core runner the
// shards time-slice one CPU and the curve is flat — the per-shard
// fsyncs/doc metric still shows the queues batching independently.
func BenchmarkShardedConcurrentAdd(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			benchShardedConcurrentAdd(b, n)
		})
	}
}

func benchShardedConcurrentAdd(b *testing.B, shards int) {
	const writers = 16
	docs := benchCorpus(200, 0.3)
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("doc-%d", i)
	}
	cfg := source.DefaultConfig()
	cfg.AutoEvolve = false
	r, _, err := dtdevolve.RecoverShardRouter(cfg, b.TempDir(),
		dtdevolve.WALOptions{Sync: dtdevolve.SyncAlways},
		dtdevolve.ShardOptions{Shards: shards})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	if err := r.AddDTD("doc", benchDTD); err != nil {
		b.Fatal(err)
	}
	syncs := func() int64 {
		var total int64
		for i := 0; i < r.Shards(); i++ {
			total += r.Shard(i).WAL().Stats().Syncs
		}
		return total
	}
	start := syncs()
	ctx := context.Background()
	var next atomic.Int64
	var wg sync.WaitGroup
	b.ResetTimer()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= b.N {
					return
				}
				if _, err := r.AddDocument(ctx, keys[i%len(keys)], docs[i%len(docs)]); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "docs/s")
	b.ReportMetric(float64(syncs()-start)/float64(b.N), "fsyncs/doc")
}

func BenchmarkApriori(b *testing.B) {
	txs := benchTransactions(2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mine.Apriori{}.FrequentItemsets(txs, 0.1, 4)
	}
}

func BenchmarkFPGrowth(b *testing.B) {
	txs := benchTransactions(2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mine.FPGrowth{}.FrequentItemsets(txs, 0.1, 4)
	}
}

func benchTransactions(n int) []mine.Transaction {
	items := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	txs := make([]mine.Transaction, n)
	for i := range txs {
		var its []string
		for j, it := range items {
			if (i+j)%3 == 0 {
				its = append(its, it)
			}
		}
		if len(its) == 0 {
			its = []string{"a"}
		}
		txs[i] = mine.NewTransaction(its, 1)
	}
	return txs
}

func BenchmarkE9AbsentAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.E9AbsentAblation(benchOptions())
	}
}

func BenchmarkE10DecaySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.E10DecaySweep(benchOptions())
	}
}

// BenchmarkEquivalence measures the automata-based language-equivalence
// check used to compare evolved DTDs against ground truths.
func BenchmarkEquivalence(b *testing.B) {
	x, err := dtd.ParseContentModel("(a, (b | c)*, (d, e)+, f?)")
	if err != nil {
		b.Fatal(err)
	}
	y, err := dtd.ParseContentModel("(a, (c | b)*, (d, e), (d, e)*, f?)")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !validate.Equivalent(x, y) {
			b.Fatal("should be equivalent")
		}
	}
}

// BenchmarkAdapt measures document adaptation to an evolved DTD.
func BenchmarkAdapt(b *testing.B) {
	docs := benchCorpus(100, 1.0)
	a := dtdevolve.NewAdapter(benchDTD, dtdevolve.DefaultAdaptOptions())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Adapt(docs[i%len(docs)])
	}
}

func BenchmarkE11ThesaurusRetention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.E11ThesaurusRetention(benchOptions())
	}
}

func BenchmarkE12AdaptationQuality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.E12AdaptationQuality(benchOptions())
	}
}

// BenchmarkClassifyManyDTDs measures classification against a 1000-DTD
// registry shaped like a real schema registry (DESIGN.md §12): 900 DTDs
// with distinct roots (the root gate handles those), 94 unrelated
// vocabularies that happen to share the generic root tag the documents use
// (the inverted index must see through the shared root), and a family of 6
// drifted versions of the documents' actual schema (genuine competitors
// the upper bound cannot and must not prune). Pruned is the default exact
// mode; Exhaustive bypasses the index and is the paper's score-everything
// behavior. The alignments/doc metric is the mean number of DP alignments
// per classification, from the classifier's own counters.
func BenchmarkClassifyManyDTDs(b *testing.B) {
	build := func() (*classify.Classifier, []*xmltree.Document) {
		c := classify.New(0.7, similarity.DefaultConfig())
		return c, manyDTDRegistry(c.Set)
	}
	b.Run("Pruned", func(b *testing.B) {
		c, docs := build()
		b.ResetTimer()
		start := c.Stats()
		for i := 0; i < b.N; i++ {
			c.Classify(docs[i%len(docs)])
		}
		st := c.Stats()
		b.ReportMetric(float64(st.Scored-start.Scored)/float64(b.N), "alignments/doc")
	})
	b.Run("Exhaustive", func(b *testing.B) {
		c, docs := build()
		b.ResetTimer()
		start := c.Stats()
		for i := 0; i < b.N; i++ {
			c.ClassifyExhaustive(docs[i%len(docs)])
		}
		st := c.Stats()
		b.ReportMetric(float64(st.Scored-start.Scored)/float64(b.N), "alignments/doc")
	})
}

// manyDTDRegistry registers the 1,000-DTD registry of
// BenchmarkClassifyManyDTDs through set and returns its 32 documents,
// mutated instances of the version family's first schema.
func manyDTDRegistry(set func(name string, d *dtd.DTD)) []*xmltree.Document {
	g := gen.New(gen.DefaultConfig(11))
	for i := 0; i < 900; i++ {
		set(fmt.Sprintf("solo%03d", i), g.RandomDTD(fmt.Sprintf("s%03d", i), 6))
	}
	// Unrelated same-root DTDs: distinct element vocabularies under one
	// generic root tag.
	for i := 0; i < 94; i++ {
		d := g.RandomDTD(fmt.Sprintf("h%02d", i), 6)
		old := d.Name
		d.Elements["hub"] = d.Elements[old]
		delete(d.Elements, old)
		for j, n := range d.Order {
			if n == old {
				d.Order[j] = "hub"
			}
		}
		d.Name = "hub"
		set(fmt.Sprintf("hub%02d", i), d)
	}
	// A version family: the documents' schema and five drifted
	// successors, all plausible matches.
	family := g.RandomDTD("hub", 6)
	set("family00", family)
	for i, d := 1, family; i < 6; i++ {
		d = g.Drift(d, 2)
		set(fmt.Sprintf("family%02d", i), d)
	}
	return g.MutatedDocuments(family, 32, 2, 0.5)
}

// BenchmarkRegisterManyDTDs measures DTD registration: each iteration
// registers the BenchmarkClassifyManyDTDs registry's 1,000 DTDs, generated
// outside the timer, into a fresh Source through AddDTD. Registration
// parses each DTD's text, interns its labels and compiles its recorder,
// classifier entry and evaluator pool, so its cost per DTD should not grow
// with the symbols the Source already holds.
func BenchmarkRegisterManyDTDs(b *testing.B) {
	type named struct {
		name string
		d    *dtd.DTD
	}
	var dtds []named
	manyDTDRegistry(func(name string, d *dtd.DTD) { dtds = append(dtds, named{name, d}) })
	cfg := source.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := source.New(cfg)
		for _, n := range dtds {
			if err := s.AddDTD(n.name, n.d); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkRecoverManyDTDs measures the recovery path that WAL recovery
// and followers share, on the BenchmarkClassifyManyDTDs registry: outside
// the timer it checkpoints the registry and journals 256 of its family
// documents (with whatever evolutions they fire); each iteration restores
// the checkpoint and applies the journal through ApplyWALRecord. records/s
// is the rate of the apply alone; alignments/record is the DP alignments
// it ran per record, from the source's own counters: 0 when every record
// carries its classification decision.
func BenchmarkRecoverManyDTDs(b *testing.B) {
	cfg := source.DefaultConfig()
	live := source.New(cfg)
	docs := manyDTDRegistry(func(name string, d *dtd.DTD) {
		if err := live.AddDTD(name, d); err != nil {
			b.Fatal(err)
		}
	})
	ckpt, err := live.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	l, err := dtdevolve.OpenWAL(dir, dtdevolve.WALOptions{Sync: dtdevolve.SyncOff})
	if err != nil {
		b.Fatal(err)
	}
	live.AttachWAL(l)
	for i := 0; i < 256; i++ {
		live.Add(docs[i%len(docs)])
	}
	if err := live.CloseWAL(); err != nil {
		b.Fatal(err)
	}
	var records [][]byte
	if _, err := wal.Replay(dir, func(p []byte) error {
		records = append(records, append([]byte(nil), p...))
		return nil
	}); err != nil {
		b.Fatal(err)
	}

	var apply time.Duration
	var scored int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := source.Restore(cfg, ckpt)
		if err != nil {
			b.Fatal(err)
		}
		s.SetReplica(true)
		start := time.Now()
		for _, p := range records {
			if err := s.ApplyWALRecord(p); err != nil {
				b.Fatal(err)
			}
		}
		apply += time.Since(start)
		scored += s.Metrics().ClassifyScored
	}
	n := float64(b.N * len(records))
	b.ReportMetric(n/apply.Seconds(), "records/s")
	b.ReportMetric(float64(scored)/n, "alignments/record")
}
