package dtdevolve_test

// Benchmarks and the memory-bound proof of the streaming one-pass ingest
// (DESIGN.md §15): a synthetic document generated as a stream — never held
// in memory by the test either — flows through Source.AddStream, and peak
// HeapAlloc must stay bounded by the open-element path, not the document
// size.

import (
	"bytes"
	"io"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dtdevolve"
	"dtdevolve/internal/classify"
	"dtdevolve/internal/dtd"
	"dtdevolve/internal/intern"
	"dtdevolve/internal/similarity"
	"dtdevolve/internal/source"
	"dtdevolve/internal/stream"
)

const logDTDSrc = `
<!ELEMENT log (entry)*>
<!ELEMENT entry (#PCDATA)>`

func logDTD() *dtd.DTD {
	d := dtd.MustParse(logDTDSrc)
	d.Name = "log"
	return d
}

// synthEntryText is the payload of one synthetic <entry>; with markup each
// entry contributes ~1 KiB to the stream.
var synthEntryText = strings.Repeat("x", 1000)

// synthReader streams "<log><entry>x…x</entry>…</log>" with n entries,
// generating each chunk on demand: the document as a whole never exists in
// the test process, so the ingest's heap is all there is to measure.
type synthReader struct {
	entries int // entries still to emit
	stage   int // 0 header, 1 entries, 2 footer, 3 done
	chunk   []byte
	off     int
}

func (r *synthReader) reset(entries int) {
	r.entries, r.stage, r.off = entries, 0, 0
	r.chunk = r.chunk[:0]
}

func (r *synthReader) Read(p []byte) (int, error) {
	for r.off == len(r.chunk) {
		r.chunk, r.off = r.chunk[:0], 0
		switch r.stage {
		case 0:
			r.chunk = append(r.chunk, "<log>"...)
			r.stage = 1
		case 1:
			if r.entries == 0 {
				r.stage = 2
				continue
			}
			r.entries--
			r.chunk = append(r.chunk, "<entry>"...)
			r.chunk = append(r.chunk, synthEntryText...)
			r.chunk = append(r.chunk, "</entry>"...)
		case 2:
			r.chunk = append(r.chunk, "</log>"...)
			r.stage = 3
		case 3:
			return 0, io.EOF
		}
	}
	n := copy(p, r.chunk[r.off:])
	r.off += n
	return n, nil
}

// TestStreamIngestBoundedHeap is the tentpole's memory claim: a ~256 MiB
// document ingests through the bounded streaming path (no WAL, no store —
// no spool) with peak HeapAlloc under 64 MiB, and still classifies
// perfectly.
func TestStreamIngestBoundedHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("256 MiB ingest")
	}
	cfg := source.DefaultConfig()
	src := source.New(cfg)
	src.AddDTD("log", logDTD())

	// ~1015 bytes per entry; 265k entries ≈ 256 MiB.
	const entries = 265_000
	var rd synthReader
	rd.reset(entries)

	runtime.GC()
	var peak atomic.Uint64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak.Load() {
				peak.Store(ms.HeapAlloc)
			}
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
		}
	}()

	res, err := src.AddStream(&rd)
	close(stop)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if !res.Classified || res.DTDName != "log" || res.Similarity != 1.0 {
		t.Fatalf("synthetic log misclassified: %+v", res)
	}
	if m := src.Metrics(); m.StreamBytes < 256<<20 {
		t.Fatalf("streamed only %d bytes, want >= 256 MiB", m.StreamBytes)
	}
	const heapBudget = 64 << 20
	p := peak.Load()
	t.Logf("streamed %d MiB with peak HeapAlloc %.1f MiB", src.Metrics().StreamBytes>>20, float64(p)/(1<<20))
	if p >= heapBudget {
		t.Errorf("peak HeapAlloc = %d MiB, want < 64 MiB", p>>20)
	}
}

// BenchmarkStreamIngest measures the full streaming ingest of a ~128 KiB
// synthetic document through Source.AddStream (bounded mode: classify +
// record, no journal), reporting document throughput alongside the usual
// per-op allocations.
func BenchmarkStreamIngest(b *testing.B) {
	cfg := source.DefaultConfig()
	src := source.New(cfg)
	src.AddDTD("log", logDTD())
	const entries = 128
	var size synthReader
	size.reset(entries)
	var counted int64
	buf := make([]byte, 32<<10)
	for {
		n, err := size.Read(buf)
		counted += int64(n)
		if err != nil {
			break
		}
	}
	b.SetBytes(counted)
	var rd synthReader
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		rd.reset(entries)
		res, err := src.AddStream(&rd)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Classified {
			b.Fatal("misclassified")
		}
	}
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "docs/s")
}

// BenchmarkStreamIngestLog streams logDocument — 800 events, three element
// levels — through Source.AddStream (bounded mode, no journal): the shape
// of durable-stream's documents. BenchmarkStreamIngest's flat text entries
// hide per-element recording costs that this document exposes.
func BenchmarkStreamIngestLog(b *testing.B) {
	d := dtd.MustParse(eventLogDTDSrc)
	d.Name = "log"
	src := source.New(source.DefaultConfig())
	src.AddDTD("log", d)
	doc := logDocument()
	rd := strings.NewReader(doc)
	// Warm the pools (parser buffers, evaluator and recorder frames), so
	// a run's allocations do not depend on how many iterations share them.
	if _, err := src.AddStream(rd); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(doc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(doc)
		res, err := src.AddStream(rd)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Classified {
			b.Fatal("misclassified")
		}
	}
}

// BenchmarkStreamIngestLogWAL is BenchmarkStreamIngestLog made durable: a
// SyncInterval WAL and the group-commit queue, durable-stream's commit path
// minus the fsync. The spool, the journal record and the group queue are what it
// adds per document.
func BenchmarkStreamIngestLogWAL(b *testing.B) {
	d := dtd.MustParse(eventLogDTDSrc)
	d.Name = "log"
	src := source.New(source.DefaultConfig())
	l, err := dtdevolve.OpenWAL(b.TempDir(), dtdevolve.WALOptions{Sync: dtdevolve.SyncInterval})
	if err != nil {
		b.Fatal(err)
	}
	src.AttachWAL(l)
	defer src.CloseWAL()
	src.AddDTD("log", d)
	doc := logDocument()
	rd := strings.NewReader(doc)
	if _, err := src.AddStream(rd); err != nil { // warm the pools
		b.Fatal(err)
	}
	b.SetBytes(int64(len(doc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(doc)
		res, err := src.AddStream(rd)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Classified {
			b.Fatal("misclassified")
		}
	}
}

// chainDTDSrc admits arbitrarily deep <s><t>x</t><s>…</s></s> chains.
const chainDTDSrc = `<!ELEMENT s (t, s?)> <!ELEMENT t (#PCDATA)>`

// chainDocument is a valid chain of depth s elements under chainDTDSrc,
// each with one <t> child: 2 × depth elements.
func chainDocument(depth int) string {
	return strings.Repeat("<s><t>x</t>", depth) + strings.Repeat("</s>", depth)
}

// perElement is the best of five timings of AddStream(doc), in nanoseconds
// per element; each timing repeats the ingest for at least 20ms. The
// document must classify, with similarity 1 when valid is set.
func perElement(t *testing.T, src *source.Source, doc string, elements int, valid bool) float64 {
	t.Helper()
	rd := strings.NewReader(doc)
	best := -1.0
	for trial := 0; trial < 5; trial++ {
		calls := 0
		start := time.Now()
		for time.Since(start) < 20*time.Millisecond {
			rd.Reset(doc)
			res, err := src.AddStream(rd)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Classified || valid && res.Similarity != 1.0 {
				t.Fatalf("chain misclassified: %+v", res)
			}
			calls++
		}
		if d := float64(time.Since(start)) / float64(calls*elements); best < 0 || d < best {
			best = d
		}
	}
	return best
}

// TestStreamIngestDepthLinear pins streaming ingest at linear cost in
// depth: a valid chain costs the same per element at depth 100 and at
// depth 1,000 (near the parser's default depth limit, so any ?stream=1
// client can send it). Folding every element's nested nil-record into its
// parent made it quadratic.
func TestStreamIngestDepthLinear(t *testing.T) {
	d := dtd.MustParse(chainDTDSrc)
	d.Name = "s"
	src := source.New(source.DefaultConfig())
	src.AddDTD("s", d)
	shallow, deep := chainDocument(100), chainDocument(1000)
	perElement(t, src, shallow, 200, true) // warm up
	a, b := perElement(t, src, shallow, 200, true), perElement(t, src, deep, 2000, true)
	ratio := b / a
	t.Logf("per element: %.0fns at depth 100, %.0fns at depth 1,000 (ratio %.2f)", a, b, ratio)
	if ratio >= 3 {
		t.Errorf("per-element cost grows %.1fx from depth 100 to 1,000, want < 3", ratio)
	}
}

// plusChainDTDSrc declares a with the one child b, so every x of
// <a><x><x>…</x></x></a> is a plus element nested in the one above it.
const plusChainDTDSrc = `<!ELEMENT a (b)> <!ELEMENT b EMPTY>`

// plusChainDocument nests depth x elements under a: depth + 1 elements.
// With combed set, every level's x first holds a small <x><x/></x>, so a
// level's record meets a record already held under the same label.
func plusChainDocument(depth int, combed bool) (doc string, elements int) {
	open := "<x>"
	if combed {
		open = "<x><x><x/></x>"
	}
	doc = "<a>" + strings.Repeat(open, depth) + strings.Repeat("</x>", depth) + "</a>"
	return doc, strings.Count(doc, "<x") + 1
}

// TestStreamIngestPlusChainLinear pins streaming ingest at linear cost
// along a chain of plus elements: the root's invalid instance records the
// whole chain as nested statistics. Folding each level's record into its
// parent by copy made the plain chain quadratic, and so would adding the
// larger record into the smaller on the combed one. The chains classify
// at σ = 0, and their committed statistics must equal the tree path's.
func TestStreamIngestPlusChainLinear(t *testing.T) {
	d := dtd.MustParse(plusChainDTDSrc)
	d.Name = "a"
	cfg := source.DefaultConfig()
	cfg.Sigma = 0
	cfg.AutoEvolve = false
	newSource := func() *source.Source {
		src := source.New(cfg)
		src.AddDTD("a", d)
		return src
	}
	for _, combed := range []bool{false, true} {
		src := newSource()
		shallow, m := plusChainDocument(100, combed)
		deep, n := plusChainDocument(1000, combed)
		perElement(t, src, shallow, m, false) // warm up
		a, b := perElement(t, src, shallow, m, false), perElement(t, src, deep, n, false)
		ratio := b / a
		t.Logf("combed %v, per element: %.0fns at depth 100, %.0fns at depth 1,000 (ratio %.2f)", combed, a, b, ratio)
		if ratio >= 3 {
			t.Errorf("combed %v: per-element cost grows %.1fx from depth 100 to 1,000, want < 3", combed, ratio)
		}

		tree, streamed := newSource(), newSource()
		doc, err := dtdevolve.ParseDocumentString(deep)
		if err != nil {
			t.Fatal(err)
		}
		if res := tree.Add(doc); !res.Classified {
			t.Fatalf("combed %v: tree path did not classify the chain: %+v", combed, res)
		}
		if _, err := streamed.AddStream(strings.NewReader(deep)); err != nil {
			t.Fatal(err)
		}
		ts, err := tree.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		ss, err := streamed.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ts, ss) {
			t.Errorf("combed %v: streamed chain statistics differ from the tree path's\ntree:   %.2000s\nstream: %.2000s", combed, ts, ss)
		}
	}
}

// BenchmarkBufferedIngest is the tree-path comparator for
// BenchmarkStreamIngest — the same synthetic document, parsed to a tree
// and ingested with Add. Not in the benchgate baseline: it exists to show
// the streaming path's relative cost, not to gate it.
func BenchmarkBufferedIngest(b *testing.B) {
	cfg := source.DefaultConfig()
	src := source.New(cfg)
	src.AddDTD("log", logDTD())
	var gen synthReader
	gen.reset(128)
	raw, err := io.ReadAll(&gen)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		doc, err := dtdevolve.ParseDocumentString(string(raw))
		if err != nil {
			b.Fatal(err)
		}
		if res := src.Add(doc); !res.Classified {
			b.Fatal("misclassified")
		}
	}
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "docs/s")
}

// BenchmarkStreamEventLoop isolates the steady-state per-event loop — pull
// parser, per-DTD evaluator, streaming recorder — with a reused Ingestor
// and pre-built entries, the way Source pools them. The gate pins it at 0
// allocs/op: the hot loop must not allocate per document, let alone per
// event.
func BenchmarkStreamEventLoop(b *testing.B) {
	tab := intern.NewTable()
	simCfg := similarity.DefaultConfig()
	c := classify.NewWithTable(0.7, simCfg, tab)
	c.Set("log", logDTD())
	entries := c.StreamEntries()

	var gen synthReader
	gen.reset(64)
	var doc bytes.Buffer
	buf := make([]byte, 32<<10)
	for {
		n, err := gen.Read(buf)
		doc.Write(buf[:n])
		if err != nil {
			break
		}
	}
	ing := stream.NewIngestor(tab, stream.Config{Decay: simCfg.Decay})
	rd := bytes.NewReader(doc.Bytes())
	// Warm the pools (evaluator, parser buffers, recorder lanes).
	if _, err := ing.Run(rd, entries, nil); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(doc.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(doc.Bytes())
		out, err := ing.Run(rd, entries, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(out.Scores) != 1 || out.Scores[0].Sim != 1.0 {
			b.Fatalf("bad outcome: %+v", out)
		}
	}
}
