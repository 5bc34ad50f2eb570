package source

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dtdevolve/internal/wal"
	"dtdevolve/internal/xmltree"
)

// TestGroupCommitMatchesSerialAdds checks a group of many requests is
// observably identical to the same documents committed one per group,
// evolutions included: one AddBatch, whose documents all score before the
// group's first evolution and re-score when they commit after it, against
// the same documents added one at a time.
func TestGroupCommitMatchesSerialAdds(t *testing.T) {
	shapes := []string{
		`<article><title>t</title><body>b</body></article>`,
		`<article><title>t</title><author>a</author><body>b</body></article>`,
		`<invoice><total>3</total></invoice>`,
		`<article><title>u</title><author>a</author><body>c</body></article>`,
	}
	var srcs []string
	for i := 0; i < 20; i++ {
		srcs = append(srcs, shapes[i%len(shapes)])
	}
	serial, grouped := New(testConfig()), New(testConfig())
	serial.AddDTD("article", articleDTD())
	grouped.AddDTD("article", articleDTD())

	batch := grouped.AddBatch(parseDocs(t, srcs))
	for i, src := range srcs {
		a, b := serial.Add(parseDoc(t, src)), batch[i]
		if a.Classified != b.Classified || a.DTDName != b.DTDName ||
			a.Similarity != b.Similarity || a.Evolved != b.Evolved {
			t.Errorf("doc %d: serial %+v, grouped %+v", i, a, b)
		}
	}
	if m := grouped.Metrics(); m.Evolutions == 0 || m.WALGroups != 1 {
		t.Fatalf("grouped run: %d evolutions in %d groups, want some in one group", m.Evolutions, m.WALGroups)
	}
	if got, want := snapshotOf(t, grouped), snapshotOf(t, serial); !reflect.DeepEqual(got, want) {
		t.Errorf("group-committed state diverges:\n got: %v\nwant: %v", got, want)
	}
}

// TestGroupCommitBatchSingleFsync pins the whole point of the feature: a
// batch committed through the group queue journals as one WAL batch and
// costs one fsync under SyncAlways, not one per document.
func TestGroupCommitBatchSingleFsync(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	s := New(testConfig())
	s.AttachWAL(w)
	s.AddDTD("article", articleDTD())

	const n = 10
	srcs := make([]string, n)
	for i := range srcs {
		srcs[i] = `<article><title>t</title><body>b</body></article>`
	}
	syncs0 := w.Stats().Syncs
	s.AddBatch(parseDocs(t, srcs))
	if got := w.Stats().Syncs - syncs0; got != 1 {
		t.Errorf("syncs for a %d-document group = %d, want 1", n, got)
	}
	m := s.Metrics()
	if m.WALGroups != 1 || m.WALGroupSizeMin != n || m.WALGroupSizeMax != n || m.WALGroupSizeMean != n {
		t.Errorf("group metrics = groups %d min %d mean %v max %d, want one group of %d",
			m.WALGroups, m.WALGroupSizeMin, m.WALGroupSizeMean, m.WALGroupSizeMax, n)
	}
	if m.FsyncsPerDoc >= 0.25 {
		t.Errorf("fsyncs_per_doc = %v, want < 0.25", m.FsyncsPerDoc)
	}
	if err := s.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	// The journaled group replays like any serial history.
	recovered, info, err := Recover(testConfig(), nil, dir, wal.Options{Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.CloseWAL()
	if info.Replayed != n+1 { // dtd + documents
		t.Errorf("replayed %d records, want %d", info.Replayed, n+1)
	}
	if m := recovered.Metrics(); m.WALGroups != 0 {
		t.Errorf("replay reported %d WAL groups, want none", m.WALGroups)
	}
	if got, want := snapshotOf(t, recovered), snapshotOf(t, s); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered state diverges:\n got: %v\nwant: %v", got, want)
	}
}

// TestGroupCommitMaxGroupSplitsBatches checks the leader honors
// DefaultMaxGroup: an oversized batch commits as bounded WAL groups, one
// fsync each under SyncAlways.
func TestGroupCommitMaxGroupSplitsBatches(t *testing.T) {
	w, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	s := New(testConfig())
	s.AttachWAL(w)
	defer s.CloseWAL()
	s.AddDTD("article", articleDTD())
	srcs := make([]string, 2*DefaultMaxGroup+2)
	for i := range srcs {
		srcs[i] = `<article><title>t</title><body>b</body></article>`
	}
	syncs0 := w.Stats().Syncs
	res := s.AddBatch(parseDocs(t, srcs))
	if len(res) != len(srcs) {
		t.Fatalf("got %d results, want %d", len(res), len(srcs))
	}
	if got := w.Stats().Syncs - syncs0; got != 3 {
		t.Errorf("a %d-document batch took %d fsyncs, want 3", len(srcs), got)
	}
	m := s.Metrics()
	if m.WALGroups != 3 || m.WALGroupSizeMax != DefaultMaxGroup || m.WALGroupSizeMin != 2 {
		t.Errorf("groups = %d (min %d max %d), want 3 groups of %d+%d+2",
			m.WALGroups, m.WALGroupSizeMin, m.WALGroupSizeMax, DefaultMaxGroup, DefaultMaxGroup)
	}
}

// TestKillAtEveryOffsetGroupCommit is the crash-mid-group durability
// property: cut the byte stream a group-committed source produced at every
// record boundary (and densely in between), recover, and check the state
// equals a serial reference run of exactly the journaled prefix — a torn
// group never applies partially-recovered state beyond its durable records.
func TestKillAtEveryOffsetGroupCommit(t *testing.T) {
	shapes := []string{
		`<article><title>t</title><body>b</body></article>`,
		`<article><title>t</title><author>a</author><body>b</body></article>`,
		`<invoice><total>3</total></invoice>`,
		`<article><title>u</title><author>a</author><body>c</body></article>`,
	}
	var srcs []string
	for i := 0; i < 14; i++ {
		srcs = append(srcs, shapes[i%len(shapes)])
	}
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{Sync: wal.SyncOff, SegmentSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	live := New(testConfig())
	live.AttachWAL(w)
	live.AddDTD("article", articleDTD())
	// Two batches → two multi-record WAL batches (and a segment rotation
	// between them), journaled in batch order.
	live.AddBatch(parseDocs(t, srcs[:8]))
	live.AddBatch(parseDocs(t, srcs[8:]))
	if err := live.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	// The journal holds the dtd op, then the documents in enqueue (= batch)
	// order with auto-evolution decisions interleaved where they fired; a
	// torn group must recover exactly its durable prefix.
	killAtEveryOffset(t, testConfig(), dir)
}

// TestGroupCommitConcurrentAddSyncAlways is the -race stress of the
// leader/follower protocol: 16 writers under SyncAlways, every Add a
// separate transaction, concurrent readers and DTD churn. Afterwards the
// counters must balance and the journal must replay deterministically.
func TestGroupCommitConcurrentAddSyncAlways(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Sigma = 0.6
	s := New(cfg)
	s.AttachWAL(w)
	s.AddDTD("article", articleDTD())

	const (
		writers   = 16
		perWriter = 8
	)
	shapes := []string{
		`<article><title>t</title><body>b</body></article>`,
		`<article><title>t</title><author>a</author><body>b</body></article>`,
		`<article><title>t</title><ref/><ref/><body>b</body></article>`,
		`<alien><x/><y/></alien>`,
	}
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				s.Add(parseDoc(t, shapes[(g+i)%len(shapes)]))
			}
		}(g)
	}
	wg.Add(1)
	go func() { // readers race the leader hand-offs
		defer wg.Done()
		for i := 0; i < 40; i++ {
			s.Metrics()
			s.Status()
			s.RepositorySize()
		}
	}()
	wg.Wait()

	m := s.Metrics()
	if m.Added != writers*perWriter {
		t.Errorf("metrics.Added = %d, want %d", m.Added, writers*perWriter)
	}
	if m.Classified+m.Repository != m.Added {
		t.Errorf("counters unbalanced: %d + %d != %d", m.Classified, m.Repository, m.Added)
	}
	if m.WALGroups == 0 || m.WALGroupSizeMax < 1 {
		t.Errorf("no groups observed: %+v", m)
	}
	if s.Degraded() != nil {
		t.Fatalf("degraded: %v", s.Degraded())
	}
	if err := s.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	// WAL order is commit order: replay must reproduce the final state.
	recovered, info, err := Recover(cfg, nil, dir, wal.Options{Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.CloseWAL()
	counts := journalOpCounts(t, dir)
	if counts["doc"] != writers*perWriter || counts["dtd"] != 1 {
		t.Errorf("journal holds %d doc + %d dtd records, want %d + 1",
			counts["doc"], counts["dtd"], writers*perWriter)
	}
	if want := journalRecordCount(t, dir); info.Replayed != want {
		t.Errorf("replayed %d, want all %d journaled records", info.Replayed, want)
	}
	if got, want := snapshotOf(t, recovered), snapshotOf(t, s); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered state diverges from group-committed run:\n got: %v\nwant: %v", got, want)
	}
}

// holdFS is the real filesystem, except that once armed, the next Sync of
// any of its files signals entered and blocks until release closes: a
// group-commit leader's fsync stays in flight while other commits queue.
type holdFS struct {
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (h *holdFS) Create(path string) (wal.File, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return holdFile{f, h}, nil
}

func (h *holdFS) Remove(path string) error { return os.Remove(path) }

type holdFile struct {
	*os.File
	h *holdFS
}

func (f holdFile) Sync() error {
	if f.h.armed.CompareAndSwap(true, false) {
		close(f.h.entered)
		<-f.h.release
	}
	return f.File.Sync()
}

// TestGroupCommitStreamsShareFsync: streamed documents ride the group
// queue. With the first streamed document's fsync held, n more queue
// behind it and commit as one group: 2 fsyncs for n+1 documents.
func TestGroupCommitStreamsShareFsync(t *testing.T) {
	fs := &holdFS{entered: make(chan struct{}), release: make(chan struct{})}
	w, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncAlways, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.AutoEvolve = false
	s := New(cfg)
	s.AttachWAL(w)
	defer s.CloseWAL()
	s.AddDTD("feed", feedDTD(t))
	raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", "feeds", "feed1.xml"))
	if err != nil {
		t.Fatal(err)
	}
	syncs := w.Stats().Syncs
	fs.armed.Store(true)

	const n = 8
	var wg sync.WaitGroup
	add := func() {
		defer wg.Done()
		if _, err := s.AddStream(bytes.NewReader(raw)); err != nil {
			t.Error(err)
		}
	}
	wg.Add(1)
	go add()
	select {
	case <-fs.entered:
	case <-time.After(10 * time.Second):
		close(fs.release)
		t.Fatal("the first streamed document never reached its fsync")
	}
	wg.Add(n)
	for i := 0; i < n; i++ {
		go add()
	}
	// The counters are atomics: reading them takes no lock a commit holds.
	for deadline := time.Now().Add(5 * time.Second); s.metrics.Snapshot().CommitQueueDepth < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Errorf("%d of %d streamed documents queued behind the held fsync", s.metrics.Snapshot().CommitQueueDepth, n)
			break
		}
	}
	close(fs.release)
	wg.Wait()

	m := s.Metrics()
	if got := w.Stats().Syncs - syncs; got != 2 {
		t.Errorf("%d documents took %d fsyncs, want 2", n+1, got)
	}
	if m.WALGroupSizeMean <= 1 {
		t.Errorf("group size mean %v, want > 1", m.WALGroupSizeMean)
	}
	if m.StreamDocs != n+1 {
		t.Errorf("stream_docs = %d, want %d", m.StreamDocs, n+1)
	}
}

// TestGroupCommitPanicReachesItsCaller: a commit step that panics raises
// the panic on the goroutine whose request it was, after the group it
// shared with another caller's request was journaled, flushed and
// acknowledged; the lock, the leadership and the queue are free again.
// Two callers queue behind a held fsync; the first leads their group, and
// the second's document lands in a DTD whose recorder was taken away.
func TestGroupCommitPanicReachesItsCaller(t *testing.T) {
	dir := t.TempDir()
	fs := &holdFS{entered: make(chan struct{}), release: make(chan struct{})}
	w, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.AutoEvolve = false
	s := New(cfg)
	// No deferred CloseWAL: should the lock stay held, it would block the
	// test from reporting.
	s.AttachWAL(w)
	s.AddDTD("article", articleDTD())
	s.AddDTD("list", listDTD("(item+)"))
	s.mu.Lock()
	s.entries["list"].rec = nil
	s.mu.Unlock()
	const article = `<article><title>t</title><body>b</body></article>`

	// add runs one Add, reporting its result or the panic it raised.
	type outcome struct {
		res      AddResult
		panicked any
	}
	add := func(doc *xmltree.Document) <-chan outcome {
		out := make(chan outcome, 1)
		go func() {
			var o outcome
			defer func() {
				o.panicked = recover()
				out <- o
			}()
			o.res = s.Add(doc)
		}()
		return out
	}
	recv := func(c <-chan outcome, who string) outcome {
		select {
		case o := <-c:
			return o
		case <-time.After(10 * time.Second):
			t.Fatalf("%s never returned", who)
			return outcome{}
		}
	}
	queued := func(n int64) {
		for deadline := time.Now().Add(5 * time.Second); s.metrics.Snapshot().CommitQueueDepth < n; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				close(fs.release)
				t.Fatalf("%d of %d documents queued", s.metrics.Snapshot().CommitQueueDepth, n)
			}
		}
	}

	syncs := w.Stats().Syncs
	fs.armed.Store(true)
	first := add(parseDoc(t, article))
	select {
	case <-fs.entered:
	case <-time.After(10 * time.Second):
		close(fs.release)
		t.Fatal("the first document never reached its fsync")
	}
	leader := add(parseDoc(t, article))
	queued(1)
	victim := add(parseDoc(t, `<list><item>i</item></list>`))
	queued(2)
	close(fs.release)

	if o := recv(first, "the first caller"); o.panicked != nil {
		t.Errorf("the first caller panicked: %v", o.panicked)
	}
	if o := recv(leader, "the group's leader"); o.panicked != nil || o.res.DTDName != "article" {
		t.Errorf("the group's leader: %+v, panic %v; want classified in article, no panic", o.res, o.panicked)
	}
	if o := recv(victim, "the panicking caller"); o.panicked == nil {
		t.Errorf("the panicking request returned %+v without its panic", o.res)
	}
	if got := w.Stats().Syncs - syncs; got != 2 {
		t.Errorf("two groups took %d fsyncs, want 2", got)
	}
	if m := s.Metrics(); m.WALGroups != 2 || m.WALGroupSizeMax != 2 {
		t.Errorf("groups = %d (max %d), want the two callers in one group after the first", m.WALGroups, m.WALGroupSizeMax)
	}
	names := make(chan []string, 1)
	go func() { names <- s.Names() }()
	select {
	case <-names:
	case <-time.After(2 * time.Second):
		t.Fatal("Names is still blocked after the panic")
	}
	if o := recv(add(parseDoc(t, article)), "an Add after the panic"); o.panicked != nil || !o.res.Classified {
		t.Errorf("an Add after the panic: %+v, panic %v", o.res, o.panicked)
	}
	if err := s.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	if got := journalOpCounts(t, dir)["doc"]; got != 4 {
		t.Errorf("journal holds %d documents, want 4", got)
	}
}

// TestGroupCommitAllocs is the queue's allocation budget: a request
// classified and encoded off the lock commits through the queue and the
// WAL without allocating, once the queue and the leader's buffers have
// grown.
func TestGroupCommitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	w, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncOff, SegmentSize: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.AutoEvolve = false
	s := New(cfg)
	s.AttachWAL(w)
	defer s.CloseWAL()
	s.AddDTD("article", articleDTD())
	doc := parseDoc(t, `<article><title>t</title><body>b</body></article>`)
	s.mu.RLock()
	r := newReq(doc, s.classifier.Classify(doc), s.gen)
	s.mu.RUnlock()
	defer freeReq(r)
	r.encode()
	s.commit(r) // warm: interns the names, grows the queue and the buffers
	if !r.res.Classified {
		t.Fatalf("the document did not classify: %+v", r.res)
	}
	allocs := testing.AllocsPerRun(100, func() { s.commit(r) })
	if allocs != 0 {
		t.Errorf("a queued commit allocates %.1f objects, want 0", allocs)
	}
}
