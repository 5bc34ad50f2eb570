package source

// Tests for the streaming ingest path: AddStream must be observably
// equivalent to Add(parse(r)) — same results, same snapshot bytes, same
// journal bytes — and a degraded streamed document must replay to
// bit-identical state through its journaled "sdoc" budget.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

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
