package source

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"dtdevolve/internal/wal"
	"dtdevolve/internal/xmltree"
)

// TestSnapshotBytesDeterministic pins the sorted-key emission in
// snapshotLocked: two independent restores of the same snapshot must
// produce byte-identical subsequent snapshots, and a restore must
// re-emit the exact bytes it was built from. Map-order-dependent
// emission would make checkpoint bytes diverge between otherwise
// identical processes, breaking follower checkpoint comparison.
func TestSnapshotBytesDeterministic(t *testing.T) {
	s := New(testConfig())
	runScript(t, s, durabilityScript)
	data, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	a, err := Restore(testConfig(), data)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Restore(testConfig(), data)
	if err != nil {
		t.Fatal(err)
	}

	snapA, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snapB, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapA, snapB) {
		t.Errorf("two restores of the same snapshot emit different bytes:\n a: %s\n b: %s", snapA, snapB)
	}
	if !bytes.Equal(snapA, data) {
		t.Errorf("restore does not round-trip snapshot bytes:\n restored: %s\n original: %s", snapA, data)
	}
}

// TestRestoreV1SnapshotDeterministic covers the pre-v2 path: a v1
// snapshot carries no symbol table, so Restore interns labels in DTD
// iteration order — which IS symbol-ID assignment order. Before Restore
// sorted its keys, two restores of the same v1 snapshot could assign
// different IDs and their next checkpoints would diverge byte-for-byte.
func TestRestoreV1SnapshotDeterministic(t *testing.T) {
	s := New(testConfig())
	runScript(t, s, durabilityScript)
	data, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "version")
	delete(m, "symbols")
	v1, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}

	// Restore several times: with only a handful of DTDs, a map-order
	// bug still passes any single pair by luck often enough that one
	// comparison is a weak regression test.
	const restores = 8
	var first []byte
	for i := 0; i < restores; i++ {
		restored, err := Restore(testConfig(), v1)
		if err != nil {
			t.Fatalf("restore %d: %v", i, err)
		}
		snap, err := restored.Snapshot()
		if err != nil {
			t.Fatalf("restore %d snapshot: %v", i, err)
		}
		if first == nil {
			first = snap
			continue
		}
		if !bytes.Equal(snap, first) {
			t.Fatalf("restore %d of the same v1 snapshot emits different bytes:\n got:   %s\n first: %s", i, snap, first)
		}
	}
}

// pairedTagsDoc is an article carrying its own mutually implied pair of
// undeclared tags, n{g}_{i}_a and n{g}_{i}_b.
func pairedTagsDoc(t *testing.T, g, i int) *xmltree.Document {
	return parseDoc(t, fmt.Sprintf(`<article><title>t</title><n%d_%d_a/><n%d_%d_b/><body>b</body></article>`, g, i, g, i))
}

// TestEvolutionRepeatsSerially pins evolution as a function of the Add
// sequence: ten fresh sources fed the same serial Adds must evolve the
// same declarations. Each document carries its own mutually implied pair
// of undeclared tags, so policy 1 has many classes to choose from: taking
// whichever one a map iteration meets first would change the order of the
// evolved OR alternatives from run to run.
func TestEvolutionRepeatsSerially(t *testing.T) {
	run := func() string {
		s := New(testConfig())
		s.AddDTD("article", articleDTD())
		for i := 0; i < 30; i++ {
			s.Add(pairedTagsDoc(t, i%4, i))
		}
		return s.DTD("article").String()
	}
	want := run()
	for r := 1; r < 10; r++ {
		if got := run(); got != want {
			t.Fatalf("repeat %d evolved a different DTD:\n got: %s\nwant: %s", r, got, want)
		}
	}
}

// TestConcurrentAddsRecoverSameSnapshot pins symbol IDs to journal order:
// after concurrent Adds of documents with undeclared tags, the live
// snapshot must be byte-identical to the one Recover rebuilds from the
// journal. Interning before the write lock would let concurrent Adds
// interleave their new IDs, while replay assigns them in journal order.
func TestConcurrentAddsRecoverSameSnapshot(t *testing.T) {
	const writers, perWriter, trials = 4, 30, 40
	docs := make([][]*xmltree.Document, writers)
	for g := range docs {
		for i := 0; i < perWriter; i++ {
			docs[g] = append(docs[g], pairedTagsDoc(t, g, i))
		}
	}
	for trial := 0; trial < trials; trial++ {
		dir := t.TempDir()
		w, err := wal.Open(dir, wal.Options{Sync: wal.SyncOff})
		if err != nil {
			t.Fatal(err)
		}
		live := New(testConfig())
		live.AttachWAL(w)
		live.AddDTD("article", articleDTD())
		var wg sync.WaitGroup
		for g := 0; g < writers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, d := range docs[g] {
					// A fresh tree per Add: a committed document is
					// the source's from then on.
					live.Add(&xmltree.Document{Root: d.Root.Clone()})
				}
			}()
		}
		wg.Wait()
		want, err := live.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := live.CloseWAL(); err != nil {
			t.Fatal(err)
		}
		recovered := recoverFrom(t, dir)
		got, err := recovered.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: recovered snapshot differs from the live one\nlive:      %s\nrecovered: %s", trial, want, got)
		}
	}
}
