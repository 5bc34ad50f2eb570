package source

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"dtdevolve/internal/dtd"
	"dtdevolve/internal/wal"
	"dtdevolve/internal/wal/faultfs"
	"dtdevolve/internal/xmltree"
)

// testConfig is a config that evolves quickly, for short op sequences.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.MinDocs = 5
	return cfg
}

// op drives one source mutation; the same script runs against the
// journaled source and the reference source.
type op struct {
	kind string // "dtd", "doc", "trigger", "evolve", "reclassify"
	text string
}

var durabilityScript = []op{
	{"dtd", "article"},
	{"doc", `<article><title>t</title><body>b</body></article>`},
	{"doc", `<article><title>t</title><author>a</author><body>b</body></article>`},
	{"trigger", "on article when docs >= 4 and check_ratio > 0.1 do evolve"},
	{"doc", `<invoice><total>3</total></invoice>`},
	{"doc", `<article><title>u</title><author>a</author><body>c</body></article>`},
	{"doc", `<article><title>v</title><author>a</author><body>d</body></article>`},
	{"doc", `<article><title>w</title><author>a</author><body>e</body></article>`},
	{"evolve", "article"},
	{"doc", `<article><title>x</title><author>a</author><body>f</body></article>`},
	{"reclassify", ""},
	{"doc", `<alien><x/><y/></alien>`},
}

func runScript(t *testing.T, s *Source, script []op) {
	t.Helper()
	for i, o := range script {
		switch o.kind {
		case "dtd":
			s.AddDTD(o.text, articleDTD())
		case "doc":
			s.Add(parseDoc(t, o.text))
		case "trigger":
			if err := s.AddTriggerRule(o.text); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		case "evolve":
			if _, _, err := s.EvolveNow(o.text); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		case "reclassify":
			s.ReclassifyRepository()
		default:
			t.Fatalf("op %d: unknown kind %q", i, o.kind)
		}
	}
}

// snapshotOf unmarshals a snapshot for deep comparison, zeroing the WAL
// position (a recovered source checkpoints at a different offset than a
// never-persisted reference).
func snapshotOf(t *testing.T, s *Source) map[string]any {
	t.Helper()
	data, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return decodeSnapshot(t, data)
}

func decodeSnapshot(t *testing.T, data []byte) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "wal_seq")
	return m
}

// journalOpCounts decodes dir's journaled stream and tallies records by
// operation.
func journalOpCounts(t *testing.T, dir string) map[string]int {
	t.Helper()
	counts := map[string]int{}
	if _, err := wal.Replay(dir, func(p []byte) error {
		var o walOp
		if err := json.Unmarshal(p, &o); err != nil {
			return err
		}
		counts[o.Op]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return counts
}

func journalRecordCount(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	for _, c := range journalOpCounts(t, dir) {
		n += c
	}
	return n
}

// journalPrefixRefs derives reference snapshots from the journaled stream
// itself: refs[i] is the state after applying the first i records through
// a replica-mode source. Auto-evolution decisions journal as their own
// records, so record prefixes — not script-op prefixes — are the
// crash-equivalence points.
func journalPrefixRefs(t *testing.T, cfg Config, dir string) []map[string]any {
	t.Helper()
	ref := New(cfg)
	ref.SetReplica(true)
	refs := []map[string]any{snapshotOf(t, ref)}
	if _, err := wal.Replay(dir, func(p []byte) error {
		if err := ref.ApplyWALRecord(p); err != nil {
			return err
		}
		refs = append(refs, snapshotOf(t, ref))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return refs
}

// TestRecoverFromWALOnly runs a script against a journaled source, "kills"
// it (never closing gracefully beyond the log flush), recovers from the WAL
// alone, and checks the recovered state equals the reference run.
func TestRecoverFromWALOnly(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	live := New(testConfig())
	live.AttachWAL(w)
	runScript(t, live, durabilityScript)
	if err := live.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	recovered, info, err := Recover(testConfig(), nil, dir, wal.Options{Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.CloseWAL()
	// The journal holds one record per script op plus one per journaled
	// auto-evolution decision; the stream itself is the authority.
	records := journalRecordCount(t, dir)
	if records < len(durabilityScript) {
		t.Errorf("journal holds %d records, want >= %d (one per script op)", records, len(durabilityScript))
	}
	if info.SnapshotRestored || info.Replayed != records || info.Truncated || info.Corrupted {
		t.Errorf("info = %+v, want %d replayed clean records", info, records)
	}
	if got, want := snapshotOf(t, recovered), snapshotOf(t, live); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered state diverges:\n got: %v\nwant: %v", got, want)
	}
	if got, want := recovered.TriggerRules(), live.TriggerRules(); !reflect.DeepEqual(got, want) {
		t.Errorf("trigger rules = %v, want %v", got, want)
	}
}

// TestCheckpointThenTailReplay checkpoints mid-script, continues mutating,
// crashes, and recovers from snapshot + WAL tail. The WAL history covered
// by the checkpoint must be truncated, and replay must apply only the tail.
func TestCheckpointThenTailReplay(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(t.TempDir(), "checkpoint.json")
	w, err := wal.Open(dir, wal.Options{Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	live := New(testConfig())
	live.AttachWAL(w)

	cut := 7
	runScript(t, live, durabilityScript[:cut])
	if err := live.Checkpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	runScript(t, live, durabilityScript[cut:])
	if err := live.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	snapData, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	recovered, info, err := Recover(testConfig(), snapData, dir, wal.Options{Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.CloseWAL()
	if !info.SnapshotRestored {
		t.Error("snapshot not restored")
	}
	if want := len(durabilityScript) - cut; info.Replayed != want {
		t.Errorf("replayed %d operations, want %d (checkpoint-covered history must not re-apply)", info.Replayed, want)
	}
	if got, want := snapshotOf(t, recovered), snapshotOf(t, live); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered state diverges:\n got: %v\nwant: %v", got, want)
	}
	if m := recovered.Metrics(); m.Added != 0 {
		// Ingest counters are process-local, not part of durable state;
		// only the replayed tail moves them.
		t.Logf("recovered metrics.Added = %d (tail only, informational)", m.Added)
	}
}

// TestRecoverCheckpointRecoverKeepsTail is the regression for the restart
// sequence checkpoint → process restart → mutate → process restart: the
// checkpoint removes every segment it covers, so the second process's WAL
// numbering must resume above the checkpoint's position — otherwise its
// records land in "covered" segment numbers and the third process silently
// drops them.
func TestRecoverCheckpointRecoverKeepsTail(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(t.TempDir(), "checkpoint.json")

	// Process 1: ingest, checkpoint (truncates all history), crash.
	w, err := wal.Open(dir, wal.Options{Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	live := New(testConfig())
	live.AttachWAL(w)
	live.AddDTD("article", articleDTD())
	live.Add(parseDoc(t, `<article><title>t</title><body>b</body></article>`))
	if err := live.Checkpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	if err := live.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	// Process 2: recover, ingest one more document, crash.
	snap, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	s2, _, err := Recover(testConfig(), snap, dir, wal.Options{Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	s2.Add(parseDoc(t, `<article><title>u</title><body>c</body></article>`))
	if err := s2.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	// Process 3: the tail document must survive.
	s3, info, err := Recover(testConfig(), snap, dir, wal.Options{Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.CloseWAL()
	if info.Replayed != 1 {
		t.Errorf("replayed %d records, want the 1 post-checkpoint document", info.Replayed)
	}
	if got, want := snapshotOf(t, s3), snapshotOf(t, s2); !reflect.DeepEqual(got, want) {
		t.Errorf("state diverges after checkpoint+restart+mutate+restart:\n got: %v\nwant: %v", got, want)
	}
}

// TestKillAtEveryOffsetSourceState is the end-to-end durability property:
// cut the journaled byte stream at every offset, recover, and check the
// state equals a reference source that ran exactly the durable prefix of
// operations.
func TestKillAtEveryOffsetSourceState(t *testing.T) {
	// Small scripts keep the quadratic (offsets × replays) cost down.
	script := durabilityScript
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{Sync: wal.SyncOff, SegmentSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	live := New(testConfig())
	live.AttachWAL(w)
	runScript(t, live, script)
	if err := live.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	killAtEveryOffset(t, testConfig(), dir)
}

// killAtEveryOffset cuts the journal in dir at every record boundary and
// densely in between, recovers each cut, and requires the state a
// reference source reaches by applying exactly the recovered prefix of
// records (journalPrefixRefs): auto-evolution decisions are records of
// their own, so record prefixes, not script-op prefixes, are the
// crash-equivalence points.
func killAtEveryOffset(t *testing.T, cfg Config, dir string) {
	t.Helper()
	refs := journalPrefixRefs(t, cfg, dir)
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	var stream []byte
	for _, p := range segs {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, data...)
	}

	// The WAL-level suite (internal/wal/fault_test.go) already cuts at every
	// single byte; here the per-cut cost includes a full source replay, so
	// sample offsets densely and always include every record boundary.
	stride := 7
	if testing.Short() {
		stride = 97
	}
	offsets := map[int]bool{0: true, len(stream): true}
	for cut := 1; cut < len(stream); cut += stride {
		offsets[cut] = true
	}
	boundary := 0
	if _, err := wal.Replay(dir, func(p []byte) error {
		boundary += 8 + len(p)
		offsets[boundary] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	for cut := range offsets {
		sub := t.TempDir()
		remaining := cut
		for _, p := range segs {
			if remaining <= 0 {
				break
			}
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if len(data) > remaining {
				data = data[:remaining]
			}
			remaining -= len(data)
			if err := os.WriteFile(filepath.Join(sub, filepath.Base(p)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		recovered, info, err := Recover(cfg, nil, sub, wal.Options{Sync: wal.SyncOff})
		if err != nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		got := snapshotOf(t, recovered)
		recovered.CloseWAL()
		if info.Replayed >= len(refs) {
			t.Fatalf("cut %d: replayed %d > %d journaled records", cut, info.Replayed, len(refs)-1)
		}
		if want := refs[info.Replayed]; !reflect.DeepEqual(got, want) {
			t.Fatalf("cut %d (replayed %d): recovered state != reference prefix state\n got: %v\nwant: %v",
				cut, info.Replayed, got, want)
		}
	}
}

// TestDegradedModeOnWALFailure checks that a dying disk flips the source to
// degraded (sticky) while in-memory serving continues.
func TestDegradedModeOnWALFailure(t *testing.T) {
	fs := faultfs.New()
	w, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncOff, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	s := New(testConfig())
	s.AttachWAL(w)
	s.AddDTD("article", articleDTD())
	if err := s.Degraded(); err != nil {
		t.Fatalf("healthy source degraded: %v", err)
	}
	fs.FailWritesAfter(0)
	res := s.Add(parseDoc(t, `<article><title>t</title><body>b</body></article>`))
	if !res.Classified {
		t.Error("in-memory ingest must keep working through the failed append")
	}
	if s.Degraded() == nil {
		t.Fatal("Degraded() = nil after WAL write failure")
	}
	fs.Heal()
	if s.Degraded() == nil {
		t.Error("degraded state must be sticky (a healed disk does not un-lose the dropped record)")
	}
	if m := s.Metrics(); m.WALErrors == 0 {
		t.Errorf("metrics.WALErrors = 0, want > 0")
	}
	s.CloseWAL()
}

// TestCrashDuringConcurrentAddBatch kills the WAL mid-append under
// concurrent batch ingest (run with -race), then recovers and checks the
// recovered state is exactly the reference replay of the durable prefix.
func TestCrashDuringConcurrentAddBatch(t *testing.T) {
	dir := t.TempDir()
	fs := faultfs.New()
	w, err := wal.Open(dir, wal.Options{Sync: wal.SyncOff, SegmentSize: 2048, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Sigma = 0.6
	s := New(cfg)
	s.AttachWAL(w)
	s.AddDTD("article", articleDTD())

	shapes := []string{
		`<article><title>t</title><body>b</body></article>`,
		`<article><title>t</title><author>a</author><body>b</body></article>`,
		`<article><title>t</title><ref/><ref/><body>b</body></article>`,
		`<alien><x/><y/></alien>`,
	}
	fs.FailWritesAfter(3000) // the disk dies partway through the stream
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for b := 0; b < 6; b++ {
				docs := make([]*xmltree.Document, 5)
				for i := range docs {
					docs[i] = parseDoc(t, shapes[(g+b+i)%len(shapes)])
				}
				s.AddBatch(docs)
			}
		}(g)
	}
	wg.Wait()
	if s.Degraded() == nil {
		t.Fatal("source not degraded after mid-append crash")
	}
	s.CloseWAL()

	// Recover from the torn log: every durable record must replay, and the
	// recovered state must equal a serial re-run of those journaled ops.
	recovered, info, err := Recover(cfg, nil, dir, wal.Options{Sync: wal.SyncOff})
	if err != nil {
		t.Fatalf("recovery after crash: %v", err)
	}
	defer recovered.CloseWAL()
	if !info.Truncated && !info.Corrupted {
		t.Errorf("crash signature not reported: %+v", info)
	}
	if info.Replayed == 0 {
		t.Error("nothing replayed; expected a durable prefix")
	}
	// The journaled commit order is the single source of truth: replaying
	// the recovered WAL into a second fresh source must reproduce the same
	// state (determinism of the logical log).
	again, info2, err := Recover(cfg, nil, dir, wal.Options{Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer again.CloseWAL()
	if info2.Replayed != info.Replayed {
		t.Errorf("second recovery replayed %d, want %d", info2.Replayed, info.Replayed)
	}
	if got, want := snapshotOf(t, again), snapshotOf(t, recovered); !reflect.DeepEqual(got, want) {
		t.Errorf("recovery is not deterministic:\n got: %v\nwant: %v", got, want)
	}
	counts := journalOpCounts(t, dir)
	m := recovered.Metrics()
	if m.Added != int64(counts["doc"]) {
		t.Errorf("recovered Added = %d, want the %d journaled documents", m.Added, counts["doc"])
	}
}

// TestAddBatchContextCancellation checks a cancelled context aborts the
// batch before the commit phase.
func TestAddBatchContextCancellation(t *testing.T) {
	s := New(testConfig())
	s.AddDTD("article", articleDTD())
	docs := parseDocs(t, []string{
		`<article><title>t</title><body>b</body></article>`,
		`<article><title>u</title><body>c</body></article>`,
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.AddBatchContext(ctx, docs); err == nil {
		t.Fatal("cancelled batch returned nil error")
	}
	if m := s.Metrics(); m.Added != 0 {
		t.Errorf("cancelled batch committed %d documents, want 0", m.Added)
	}
	// An un-cancelled context behaves exactly like AddBatch.
	res, err := s.AddBatchContext(context.Background(), docs)
	if err != nil || len(res) != 2 || !res[0].Classified {
		t.Errorf("live batch: %v %v", res, err)
	}
}

// TestCheckpointerBackground runs the background checkpointer against live
// ingest and checks checkpoints land and truncate history.
func TestCheckpointerBackground(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(t.TempDir(), "checkpoint.json")
	w, err := wal.Open(dir, wal.Options{Sync: wal.SyncOff, SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	s := New(testConfig())
	s.AttachWAL(w)
	s.AddDTD("article", articleDTD())
	stop := s.StartCheckpointer(ckpt, 5*time.Millisecond, func(err error) { t.Errorf("checkpoint: %v", err) })
	for i := 0; i < 40; i++ {
		s.Add(parseDoc(t, `<article><title>t</title><body>b</body></article>`))
	}
	stop()
	stop() // idempotent
	if m := s.Metrics(); m.Checkpoints == 0 {
		t.Error("no checkpoints recorded")
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatalf("checkpoint file: %v", err)
	}
	s.CloseWAL()
	recovered, _, err := Recover(testConfig(), data, dir, wal.Options{Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.CloseWAL()
	if got, want := snapshotOf(t, recovered), snapshotOf(t, s); !reflect.DeepEqual(got, want) {
		t.Errorf("state after checkpointed recovery diverges:\n got: %v\nwant: %v", got, want)
	}
}

// TestRecoverHTMLEscapedJournal replays a journal written with HTML
// escaping (every < of a document as \u003c), the encoding older segments
// carry: it must recover to the same snapshot as the unescaped journal of
// the same operations.
func TestRecoverHTMLEscapedJournal(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	live := New(testConfig())
	live.AttachWAL(w)
	runScript(t, live, durabilityScript)
	if err := live.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	escapedDir := t.TempDir()
	escaped, err := wal.Open(escapedDir, wal.Options{Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wal.Replay(dir, func(p []byte) error {
		if bytes.Contains(p, []byte(`\u003c`)) {
			t.Errorf("journal record is HTML-escaped: %s", p)
		}
		var o walOp
		if err := json.Unmarshal(p, &o); err != nil {
			return err
		}
		old, err := json.Marshal(o)
		if err != nil {
			return err
		}
		return escaped.Append(old)
	}); err != nil {
		t.Fatal(err)
	}
	if err := escaped.Close(); err != nil {
		t.Fatal(err)
	}
	if raw := walBytes(t, escapedDir); !bytes.Contains(raw, []byte(`\u003c`)) {
		t.Fatal("escaped journal holds no \\u003c escape")
	}

	want := mustSnapshot(t, recoverFrom(t, dir))
	if got := mustSnapshot(t, recoverFrom(t, escapedDir)); got != want {
		t.Errorf("escaped journal recovers to a different snapshot\nunescaped: %s\nescaped:   %s", want, got)
	}
}

func recoverFrom(t *testing.T, dir string) *Source {
	t.Helper()
	s, _, err := Recover(testConfig(), nil, dir, wal.Options{Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.CloseWAL() })
	return s
}

// TestRecoverKeepsAttributeDefaults: the journal and the checkpoint carry
// DTDs as printed text, so an attribute default holding a backslash or a
// quote must survive print → parse unchanged through both.
func TestRecoverKeepsAttributeDefaults(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(t.TempDir(), "checkpoint.json")
	w, err := wal.Open(dir, wal.Options{Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	live := New(testConfig())
	live.AttachWAL(w)
	mk := func(root string) *dtd.DTD {
		d := dtd.MustParse(`<!ELEMENT ` + root + ` (#PCDATA)>
<!ATTLIST ` + root + ` path CDATA "C:\dir\x" quote CDATA 'say "hi"' fixed CDATA #FIXED "it's \">`)
		d.Name = root
		return d
	}
	live.AddDTD("snap", mk("snap"))
	if err := live.Checkpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	live.AddDTD("tail", mk("tail"))
	if err := live.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	recovered, _, err := Recover(testConfig(), snap, dir, wal.Options{Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.CloseWAL()
	for _, name := range []string{"snap", "tail"} {
		got, want := recovered.DTD(name).Attlists[name], mk(name).Attlists[name]
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: recovered attribute list %+v, want %+v", name, got, want)
		}
	}
}
