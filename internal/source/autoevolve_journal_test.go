package source

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"

	"dtdevolve/internal/wal"
	"dtdevolve/internal/wal/faultfs"
)

// driftWorkload drives a source through a workload that fires both an
// automatic threshold evolution and a trigger (evolve + reclassify): a DTD,
// a trigger rule, unclassified repository documents, then enough drifted
// articles to cross MinDocs and τ. With batch, the documents commit as one
// AddBatch, one group, so the decisions are journaled mid-group; without,
// each commits on its own.
func driftWorkload(t *testing.T, s *Source, batch bool) {
	t.Helper()
	s.AddDTD("article", articleDTD())
	if err := s.AddTriggerRule("on article when docs >= 4 and check_ratio > 0.1 do evolve, reclassify"); err != nil {
		t.Fatal(err)
	}
	srcs := []string{`<invoice><total>3</total></invoice>`, `<invoice><total>4</total></invoice>`}
	for i := 0; i < 8; i++ {
		srcs = append(srcs, `<article><title>t</title><author>a</author><body>b</body></article>`)
	}
	if batch {
		s.AddBatch(parseDocs(t, srcs))
		return
	}
	for _, src := range srcs {
		s.Add(parseDoc(t, src))
	}
}

// TestAutoEvolutionJournaledAndReplayed pins the auto-evolution journaling
// gap (DESIGN.md §14): decisions the check phase or a trigger makes during
// ingest are journaled as logical records of their own ("autoevolve",
// "autoreclassify"), and replay applies the recorded decisions rather than
// re-deriving them — so recovery reproduces the live state exactly, and a
// replay that skips the decision records derives nothing on its own. The
// "serial" mode commits one document at a time; "group-commit" commits the
// documents as one group, with the decisions journaled inside it.
func TestAutoEvolutionJournaledAndReplayed(t *testing.T) {
	for _, grouped := range []bool{false, true} {
		name := "serial"
		if grouped {
			name = "group-commit"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			w, err := wal.Open(dir, wal.Options{Sync: wal.SyncOff})
			if err != nil {
				t.Fatal(err)
			}
			live := New(testConfig())
			live.AttachWAL(w)
			driftWorkload(t, live, grouped)
			// Reclassified can stay 0 — the repository's invoices never
			// classify as articles — but the trigger still ran reclassify,
			// which the journal-count assertions below pin.
			if m := live.Metrics(); m.Evolutions == 0 {
				t.Fatalf("workload fired no auto-evolution (metrics %+v); test is vacuous", m)
			}
			if err := live.CloseWAL(); err != nil {
				t.Fatal(err)
			}

			counts := journalOpCounts(t, dir)
			if counts["autoevolve"] == 0 {
				t.Errorf("no autoevolve records journaled: %v", counts)
			}
			if counts["autoreclassify"] == 0 {
				t.Errorf("no autoreclassify records journaled: %v", counts)
			}

			// Replay reproduces the live state, decisions included.
			recovered, info, err := Recover(testConfig(), nil, dir, wal.Options{Sync: wal.SyncOff})
			if err != nil {
				t.Fatal(err)
			}
			defer recovered.CloseWAL()
			if want := journalRecordCount(t, dir); info.Replayed != want {
				t.Errorf("replayed %d records, want %d", info.Replayed, want)
			}
			if got, want := snapshotOf(t, recovered), snapshotOf(t, live); !reflect.DeepEqual(got, want) {
				t.Errorf("recovered state diverges:\n got: %v\nwant: %v", got, want)
			}

			// A replay that skips the decision records must not re-derive
			// them: the check phase stays suppressed in replica mode, so the
			// decisions live only in the journal.
			bare := New(testConfig())
			bare.SetReplica(true)
			if _, err := wal.Replay(dir, func(p []byte) error {
				var o walOp
				if err := json.Unmarshal(p, &o); err != nil {
					return err
				}
				if o.Op == "autoevolve" || o.Op == "autoreclassify" {
					return nil
				}
				return bare.ApplyWALRecord(p)
			}); err != nil {
				t.Fatal(err)
			}
			if bm := bare.Metrics(); bm.Evolutions != 0 || bm.Reclassified != 0 {
				t.Errorf("replay re-derived decisions (evolutions %d, reclassified %d); they must come from the journal alone",
					bm.Evolutions, bm.Reclassified)
			}
		})
	}
}

// TestCheckpointWALGCErrorSurfaced checks a failed checkpoint-time WAL
// truncation is observable: the wal_gc_errors counter moves and the
// installed GC logger sees the error, while the checkpoint itself (the
// snapshot) still succeeds.
func TestCheckpointWALGCErrorSurfaced(t *testing.T) {
	fs := faultfs.New()
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{Sync: wal.SyncOff, SegmentSize: 256, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	s := New(testConfig())
	s.AttachWAL(w)
	var gcErrs []error
	s.SetWALGCLogger(func(err error) { gcErrs = append(gcErrs, err) })
	s.AddDTD("article", articleDTD())
	for i := 0; i < 6; i++ {
		s.Add(parseDoc(t, `<article><title>t</title><body>b</body></article>`))
	}
	before, err := wal.ListSegments(dir)
	if err != nil || len(before) < 2 {
		t.Fatalf("want multiple segments to truncate, have %v (%v)", before, err)
	}

	// Removals fail from here on; sealing the active segment (Sync+Close)
	// still works, so the checkpoint itself lands.
	fs.FailOps()
	ckpt := filepath.Join(t.TempDir(), "checkpoint.json")
	if err := s.Checkpoint(ckpt); err != nil {
		t.Fatalf("checkpoint must survive a GC failure, got %v", err)
	}
	if m := s.Metrics(); m.WALGCErrors == 0 {
		t.Error("metrics.WALGCErrors = 0 after failed truncation")
	}
	if len(gcErrs) == 0 {
		t.Error("GC logger never called")
	}

	// Healing the disk lets the next checkpoint truncate what the failed
	// pass left behind.
	fs.Heal()
	if err := s.Checkpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	after, err := wal.ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) >= len(before) {
		t.Errorf("healed checkpoint left %d segments, had %d before; covered history must go", len(after), len(before))
	}
	s.CloseWAL()
}

// TestWALRetentionFloorPinsSegments checks the replication retention hook:
// while the floor names a low segment, checkpoints keep every segment at or
// above it (GC never outruns shipping); clearing the hook lets the next
// checkpoint truncate normally.
func TestWALRetentionFloorPinsSegments(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{Sync: wal.SyncOff, SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	s := New(testConfig())
	s.AttachWAL(w)
	s.SetWALRetention(func() uint64 { return 1 })
	s.AddDTD("article", articleDTD())
	for i := 0; i < 6; i++ {
		s.Add(parseDoc(t, `<article><title>t</title><body>b</body></article>`))
	}
	before, err := wal.ListSegments(dir)
	if err != nil || len(before) < 2 {
		t.Fatalf("want multiple segments, have %v (%v)", before, err)
	}

	ckpt := filepath.Join(t.TempDir(), "checkpoint.json")
	if err := s.Checkpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	pinned, err := wal.ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pinned) < len(before) {
		t.Errorf("checkpoint removed pinned segments: had %v, left %v", before, pinned)
	}

	s.SetWALRetention(nil)
	if err := s.Checkpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	free, err := wal.ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(free) >= len(pinned) {
		t.Errorf("unpinned checkpoint kept %d segments, had %d; covered history must go", len(free), len(pinned))
	}
	s.CloseWAL()
}
