package source

// Tests for the streaming ingest path: AddStream must be observably
// equivalent to Add(parse(r)) — same results, same snapshot bytes, same
// journal bytes — and a degraded streamed document must replay to
// bit-identical state through its journaled "sdoc" budget.

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"dtdevolve/internal/dtd"
	"dtdevolve/internal/wal"
	"dtdevolve/internal/xmltree"
)

func feedDTD(t *testing.T) *dtd.DTD {
	t.Helper()
	d, err := dtd.ParseFile(filepath.Join("..", "..", "testdata", "feeds", "feed.dtd"))
	if err != nil {
		t.Fatal(err)
	}
	d.Name = "feed"
	return d
}

func playDTD(t *testing.T) *dtd.DTD {
	t.Helper()
	d, err := dtd.ParseFile(filepath.Join("..", "..", "testdata", "plays", "play.dtd"))
	if err != nil {
		t.Fatal(err)
	}
	d.Name = "play"
	return d
}

func corpusRaw(t *testing.T) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*", "*.xml"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("globbing corpus: %v (%d)", err, len(paths))
	}
	sort.Strings(paths)
	out := make(map[string][]byte, len(paths))
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[p] = raw
	}
	return out
}

func mustSnapshot(t *testing.T, s *Source) string {
	t.Helper()
	b, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// walBytes concatenates every WAL segment in dir, in sequence order.
func walBytes(t *testing.T, dir string) []byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	var all []byte
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, b...)
	}
	return all
}

// TestAddStreamMatchesAdd pins AddStream ≡ Add over the corpus: identical
// per-document results and identical snapshot bytes (recorder statistics,
// repository contents, counters).
func TestAddStreamMatchesAdd(t *testing.T) {
	mk := func() *Source {
		s := New(DefaultConfig())
		s.cfg.AutoEvolve = false
		s.AddDTD("feed", feedDTD(t))
		s.AddDTD("play", playDTD(t))
		return s
	}
	tree, streamed := mk(), mk()
	for path, raw := range corpusRaw(t) {
		doc, err := xmltree.ParseString(string(raw))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		want := tree.Add(doc)
		got, err := streamed.AddStream(bytes.NewReader(raw))
		if err != nil {
			// Bounded mode keeps no spool: unclassified documents cannot
			// reach the repository. Mirror by checking the tree result.
			if errors.Is(err, ErrStreamRepository) && !want.Classified {
				continue
			}
			t.Fatalf("%s: AddStream: %v", path, err)
		}
		if got.DTDName != want.DTDName || got.Similarity != want.Similarity || got.Classified != want.Classified {
			t.Errorf("%s: stream (%q, %v, %v) != tree (%q, %v, %v)", path,
				got.DTDName, got.Similarity, got.Classified,
				want.DTDName, want.Similarity, want.Classified)
		}
	}
	// The corpus classifies fully, so no repository divergence is tolerated
	// in the snapshot comparison.
	if a, b := mustSnapshot(t, tree), mustSnapshot(t, streamed); a != b {
		t.Errorf("snapshot bytes diverge\ntree:   %s\nstream: %s", a, b)
	}
	ts, ss := tree.Metrics(), streamed.Metrics()
	if ts.Added != ss.Added || ts.Classified != ss.Classified {
		t.Errorf("metrics diverge: tree %+v stream %+v", ts, ss)
	}
	if ss.StreamDocs == 0 || ss.StreamBytes == 0 {
		t.Errorf("stream metrics not counted: %+v", ss)
	}
	if ts.StreamDocs != 0 {
		t.Errorf("tree path counted stream docs: %+v", ts)
	}
}

// TestAddStreamJournalBytes pins the raw-byte passthrough: a source fed
// via AddStream writes a WAL byte-identical to one fed the same documents
// via Add.
func TestAddStreamJournalBytes(t *testing.T) {
	mk := func(dir string) *Source {
		s := New(DefaultConfig())
		s.cfg.AutoEvolve = false
		w, err := wal.Open(dir, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		s.AttachWAL(w)
		s.AddDTD("feed", feedDTD(t))
		s.AddDTD("play", playDTD(t))
		return s
	}
	dirA, dirB := t.TempDir(), t.TempDir()
	tree, streamed := mk(dirA), mk(dirB)
	for path, raw := range corpusRaw(t) {
		doc, err := xmltree.ParseString(string(raw))
		if err != nil {
			t.Fatal(err)
		}
		tree.Add(doc)
		if _, err := streamed.AddStream(bytes.NewReader(raw)); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	if err := tree.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	if err := streamed.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	a, b := walBytes(t, dirA), walBytes(t, dirB)
	if !bytes.Equal(a, b) {
		t.Errorf("WAL bytes diverge: tree %d bytes, stream %d bytes", len(a), len(b))
	}
}

// TestAddStreamDegradedReplay checks the "sdoc" record: a document that
// degrades under MaxChildren journals its budget, and recovery replays it
// through the streaming path to bit-identical state.
func TestAddStreamDegradedReplay(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.AutoEvolve = false
	cfg.Sigma = 0.1
	cfg.MaxChildren = 4
	s := New(cfg)
	w, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.AttachWAL(w)
	d, err := dtd.ParseString(`<!ELEMENT r (a, b)><!ELEMENT a EMPTY><!ELEMENT b EMPTY>`)
	if err != nil {
		t.Fatal(err)
	}
	d.Name = "r"
	s.AddDTD("r", d)

	raw := "<r>" + strings.Repeat("<a/>", 6) + "<b/></r>"
	res, err := s.AddStream(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Classified {
		t.Fatalf("wide doc not classified: %+v", res)
	}
	live := mustSnapshot(t, s)
	if err := s.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	recovered, info, err := Recover(cfg, nil, dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Replayed != 2 { // "dtd" + "sdoc"
		t.Errorf("replayed %d records, want 2", info.Replayed)
	}
	if got := mustSnapshot(t, recovered); got != live {
		t.Errorf("replayed state diverges\nlive:     %s\nreplayed: %s", live, got)
	}

	// Sanity: the degraded record must NOT equal what the tree path would
	// have recorded (otherwise "sdoc" is pointless here).
	treeSrc := New(cfg)
	treeSrc.AddDTD("r", d.Clone())
	doc, err := xmltree.ParseString(raw)
	if err != nil {
		t.Fatal(err)
	}
	treeSrc.Add(doc)
	if mustSnapshot(t, treeSrc) == live {
		t.Errorf("degraded stream state equals tree state; budget had no effect")
	}
}

// TestAddStreamBoundedErrors checks the bounded-mode refusals: oversize
// input is rejected with SizeError (and counted), an unclassifiable
// document without a spool returns ErrStreamRepository.
func TestAddStreamBoundedErrors(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxDocBytes = 64
	s := New(cfg)
	s.AddDTD("feed", feedDTD(t))

	big := "<feed>" + strings.Repeat("<entry/>", 100) + "</feed>"
	_, err := s.AddStream(strings.NewReader(big))
	var se *xmltree.SizeError
	if !errors.As(err, &se) || se.Limit != 64 {
		t.Fatalf("want SizeError{64}, got %v", err)
	}
	if m := s.Metrics(); m.StreamRejectedOversize != 1 {
		t.Errorf("rejected-oversize counter: %+v", m)
	}

	if _, err := s.AddStream(strings.NewReader(`<nope/>`)); !errors.Is(err, ErrStreamRepository) {
		t.Fatalf("want ErrStreamRepository, got %v", err)
	}
	if s.RepositorySize() != 0 {
		t.Errorf("repository grew in bounded mode")
	}
	if got := s.Metrics().Added; got != 0 {
		t.Errorf("refused documents counted as added: %d", got)
	}
}

// TestAddStreamGatedWinnerFallback drives the degenerate σ ≤ 0 corner: the
// fold crowns a root-gated DTD at similarity 0, whose lane was never
// recorded, and the source must fall back to the spooled tree path — still
// equivalent to Add.
func TestAddStreamGatedWinnerFallback(t *testing.T) {
	mk := func() *Source {
		cfg := DefaultConfig()
		cfg.Sigma = 0
		cfg.AutoEvolve = false
		s := New(cfg)
		if err := s.EnableStore(""); err != nil {
			t.Fatal(err)
		}
		s.AddDTD("feed", feedDTD(t))
		return s
	}
	tree, streamed := mk(), mk()
	raw := `<nosuchroot><x/></nosuchroot>`
	doc, err := xmltree.ParseString(raw)
	if err != nil {
		t.Fatal(err)
	}
	want := tree.Add(doc)
	got, err := streamed.AddStream(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got.DTDName != want.DTDName || got.Similarity != want.Similarity || got.Classified != want.Classified {
		t.Errorf("stream %+v != tree %+v", got, want)
	}
	if a, b := mustSnapshot(t, tree), mustSnapshot(t, streamed); a != b {
		t.Errorf("snapshot bytes diverge after gated-winner fallback")
	}
}

// TestAddStreamStoreRaw checks the docstore passthrough: a streamed
// classified document lands in the store byte-identical to the tree path.
func TestAddStreamStoreRaw(t *testing.T) {
	mk := func() *Source {
		cfg := DefaultConfig()
		cfg.AutoEvolve = false
		s := New(cfg)
		if err := s.EnableStore(""); err != nil {
			t.Fatal(err)
		}
		s.AddDTD("feed", feedDTD(t))
		s.AddDTD("play", playDTD(t))
		return s
	}
	tree, streamed := mk(), mk()
	for path, raw := range corpusRaw(t) {
		doc, err := xmltree.ParseString(string(raw))
		if err != nil {
			t.Fatal(err)
		}
		tree.Add(doc)
		if _, err := streamed.AddStream(bytes.NewReader(raw)); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	for _, name := range tree.Names() {
		a, b := tree.StoredDocs(name), streamed.StoredDocs(name)
		if len(a) != len(b) {
			t.Fatalf("%s: stored %d vs %d docs", name, len(a), len(b))
		}
		for i := range a {
			if a[i].String() != b[i].String() {
				t.Errorf("%s[%d]: stored bytes diverge", name, i)
			}
		}
	}
}

// TestAddStreamRepositoryReplaysSymbols: the pull parser interns every tag
// it reads, so a streamed document that lands in the repository adds its
// names to the symbol table live. Replaying its "doc" record must intern
// the same names in the same order: the recovered snapshot is
// byte-identical to the live one.
func TestAddStreamRepositoryReplaysSymbols(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig()
	s := New(cfg)
	w, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.AttachWAL(w)
	s.AddDTD("feed", feedDTD(t))
	res, err := s.AddStream(strings.NewReader(`<zebra><quux/><gnu>x</gnu></zebra>`))
	if err != nil {
		t.Fatal(err)
	}
	if res.Classified {
		t.Fatalf("stray document classified: %+v", res)
	}
	live := mustSnapshot(t, s)
	if err := s.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	recovered, _, err := Recover(cfg, nil, dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.CloseWAL()
	if got := mustSnapshot(t, recovered); got != live {
		t.Errorf("recovered snapshot diverges\nlive:      %s\nrecovered: %s", live, got)
	}
}

// TestAddStreamFailedParseInternsNothing: a streamed document that fails to
// parse is never journaled, so it must leave no symbols behind either — the
// pass resolves names through an overlay and interns them only at commit.
// The recovered snapshot then equals the live one.
func TestAddStreamFailedParseInternsNothing(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig()
	s := New(cfg)
	w, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.AttachWAL(w)
	s.AddDTD("feed", feedDTD(t))
	before := s.Metrics().InternedSymbols
	if _, err := s.AddStream(strings.NewReader(`<zebra><quux/>`)); err == nil {
		t.Fatal("truncated document parsed")
	}
	if got := s.Metrics().InternedSymbols; got != before {
		t.Errorf("failed parse interned %d symbols", got-before)
	}
	if _, err := s.AddStream(strings.NewReader(`<zebra><gnu/></zebra>`)); err != nil {
		t.Fatal(err)
	}
	live := mustSnapshot(t, s)
	if err := s.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	recovered, _, err := Recover(cfg, nil, dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.CloseWAL()
	if got := mustSnapshot(t, recovered); got != live {
		t.Errorf("recovered snapshot diverges\nlive:      %s\nrecovered: %s", live, got)
	}
}

// interleaveStreams streams document A, which brings the new names alpha
// and xname, through a pipe, holding it open after those names while
// document B, which brings beta and yname, streams and commits. A then
// finishes and commits: in the opposite order to the parse of their names.
// It returns A's outcome.
func interleaveStreams(t *testing.T, s *Source) (AddResult, error) {
	t.Helper()
	pr, pw := io.Pipe()
	type outcome struct {
		res AddResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := s.AddStream(pr)
		pr.Close() // a failed stream fails the writes below instead of hanging them
		done <- outcome{res, err}
	}()
	write := func(text string) {
		if _, err := pw.Write([]byte(text)); err != nil {
			t.Fatal(err)
		}
	}
	write(`<article><title>a</title><alpha/><xname/>`)
	// An empty write returns once the parser reads again, so it has
	// resolved every name before it.
	write("")
	if _, err := s.AddStream(strings.NewReader(`<article><title>b</title><beta/><yname/><body>b</body></article>`)); err != nil {
		t.Fatalf("document B: %v", err)
	}
	write(`<body>a</body></article>`)
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	o := <-done
	return o.res, o.err
}

// symbolTail returns the last n interned symbols of s, in ID order.
func symbolTail(s *Source, n int) string {
	names := s.tab.Names()
	return strings.Join(names[len(names)-n:], ",")
}

// TestAddStreamCommitOrderInterning: two streams committed in the opposite
// order to the parse of their new names intern them in commit order, the
// journal's, so the recovered snapshot equals the live one.
func TestAddStreamCommitOrderInterning(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.Sigma = 0.3
	s := New(cfg)
	w, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.AttachWAL(w)
	s.AddDTD("article", articleDTD())
	res, err := interleaveStreams(t, s)
	if err != nil {
		t.Fatalf("document A: %v", err)
	}
	if !res.Classified {
		t.Fatalf("document A not classified: %+v", res)
	}
	if got, want := symbolTail(s, 4), "beta,yname,alpha,xname"; got != want {
		t.Errorf("live symbols end %s, want %s", got, want)
	}
	live := mustSnapshot(t, s)
	if err := s.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	recovered, _, err := Recover(cfg, nil, dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.CloseWAL()
	if got := mustSnapshot(t, recovered); got != live {
		t.Errorf("recovered snapshot diverges\nlive:      %s\nrecovered: %s", live, got)
	}
}

// TestAddStreamBoundedNewNames: in bounded mode (no WAL, no store) a
// stream whose new names another commit interned ahead of them still
// commits, as any stream scored under the current DTD set does: its delta
// is relabelled to the IDs the table gave its names, so the source ends
// exactly as if both documents had been added as trees in commit order.
func TestAddStreamBoundedNewNames(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Sigma = 0.3
	s := New(cfg)
	s.AddDTD("article", articleDTD())
	res, err := interleaveStreams(t, s)
	if err != nil {
		t.Fatalf("document A: %v", err)
	}
	if !res.Classified {
		t.Fatalf("document A not classified: %+v", res)
	}
	if got, want := symbolTail(s, 4), "beta,yname,alpha,xname"; got != want {
		t.Errorf("symbols end %s, want %s", got, want)
	}
	ref := New(cfg)
	ref.AddDTD("article", articleDTD())
	ref.Add(parseDoc(t, `<article><title>b</title><beta/><yname/><body>b</body></article>`))
	ref.Add(parseDoc(t, `<article><title>a</title><alpha/><xname/><body>a</body></article>`))
	if got, want := mustSnapshot(t, s), mustSnapshot(t, ref); got != want {
		t.Errorf("streamed state diverges from the tree adds in commit order\nstream: %s\ntree:   %s", got, want)
	}
}

// TestAddStreamRescoredDegradedJournalsDoc: a degraded stream the fold
// sends to the repository queues as a tree request. When the DTD set moves
// before it commits and the re-score classifies it, it is recorded from
// the tree at full fidelity, so it must journal as "doc", not as an
// "sdoc" that replays the degraded statistics: recovery equals the live
// state.
func TestAddStreamRescoredDegradedJournalsDoc(t *testing.T) {
	dir := t.TempDir()
	fs := &holdFS{entered: make(chan struct{}), release: make(chan struct{})}
	w, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.MaxChildren = 2
	s := New(cfg)
	s.AttachWAL(w)
	s.AddDTD("article", articleDTD())
	reportDTD, err := dtd.ParseString(`<!ELEMENT report (x, y, z)><!ELEMENT x EMPTY><!ELEMENT y EMPTY><!ELEMENT z EMPTY>`)
	if err != nil {
		t.Fatal(err)
	}
	reportDTD.Name = "report"

	// The first document leads a group and holds its fsync, outside the
	// write lock; the degraded report queues behind it.
	fs.armed.Store(true)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.AddStream(strings.NewReader(`<article><title>t</title><body>b</body></article>`)); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-fs.entered:
	case <-time.After(10 * time.Second):
		close(fs.release)
		t.Fatal("the first document never reached its fsync")
	}
	var res AddResult
	wg.Add(1)
	go func() {
		defer wg.Done()
		var err error
		if res, err = s.AddStream(strings.NewReader(`<report><x/><y/><z/></report>`)); err != nil {
			t.Error(err)
		}
	}()
	for deadline := time.Now().Add(5 * time.Second); s.metrics.Snapshot().CommitQueueDepth < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			close(fs.release)
			t.Fatal("the degraded document never queued")
		}
	}
	s.AddDTD("report", reportDTD)
	close(fs.release)
	wg.Wait()
	if !res.Classified || res.DTDName != "report" {
		t.Fatalf("re-scored document: %+v, want classified in report", res)
	}
	for _, o := range journalOps(t, dir) {
		if o.Class == "report" && o.Op != "doc" {
			t.Errorf("the full-fidelity document journaled as %q", o.Op)
		}
	}
	live := mustSnapshot(t, s)
	if err := s.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	recovered, _, err := Recover(cfg, nil, dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.CloseWAL()
	if got := mustSnapshot(t, recovered); got != live {
		t.Errorf("recovered snapshot diverges\nlive:      %s\nrecovered: %s", live, got)
	}
}

// TestKillAtEveryOffsetStream is the crash property for streamed
// documents: a live source ingests through AddStream — classified
// documents, one sent to the repository, and one degraded under
// MaxChildren (an "sdoc" record) — and every cut of its journal recovers
// to the state the journaled prefix leads to.
func TestKillAtEveryOffsetStream(t *testing.T) {
	cfg := testConfig()
	cfg.MaxChildren = 4
	cfg.Sigma = 0.3 // the degraded document still classifies
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{Sync: wal.SyncOff, SegmentSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	live := New(cfg)
	live.AttachWAL(w)
	live.AddDTD("article", articleDTD())
	docs := []string{
		`<article><title>t</title><body>b</body></article>`,
		`<article><title>t</title><author>a</author><body>b</body></article>`,
		`<alien><x/><y/></alien>`,
		`<article><title>u</title><author>a</author><body>c</body></article>`,
		`<article><title>w</title><body>e</body><ref/><ref/><ref/></article>`,
		`<article><title>v</title><author>a</author><body>d</body></article>`,
		`<article><title>x</title><author>a</author><body>f</body></article>`,
	}
	for i, doc := range docs {
		if _, err := live.AddStream(strings.NewReader(doc)); err != nil {
			t.Fatalf("document %d: %v", i, err)
		}
	}
	if err := live.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, o := range journalOps(t, dir) {
		kinds[o.Op+" "+o.Class]++
	}
	if kinds["sdoc article"] != 1 || kinds["doc "] != 1 || kinds["doc article"] != len(docs)-2 {
		t.Fatalf("journal holds %v, want one sdoc and %d doc records in article, one doc in the repository", kinds, len(docs)-2)
	}
	killAtEveryOffset(t, cfg, dir)
}
