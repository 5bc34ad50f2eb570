package source

import (
	"encoding/json"
	"testing"
)

// TestSnapshotV2Shape checks the checkpoint codec carries the symbol table
// and no classification signatures: Restore rebuilds those from the DTDs
// (DESIGN.md §12).
func TestSnapshotV2Shape(t *testing.T) {
	s := New(testConfig())
	s.AddDTD("article", articleDTD())
	s.Add(parseDoc(t, `<article><title>t</title><body>b</body></article>`))
	data, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Version    int                        `json:"version"`
		Symbols    []string                   `json:"symbols"`
		Signatures map[string]json.RawMessage `json:"signatures"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Version != 2 {
		t.Errorf("version = %d, want 2", snap.Version)
	}
	if len(snap.Symbols) == 0 {
		t.Error("no symbols persisted")
	}
	if snap.Signatures != nil {
		t.Errorf("signatures = %v, want none persisted", snap.Signatures)
	}
}

// TestRestoreIgnoresPersistedSignatures restores a checkpoint in the shape
// older builds wrote, with a "signatures" field beside the symbols: the
// field is ignored, every signature is rebuilt, and the restored source
// serializes and classifies exactly like the one that wrote it.
func TestRestoreIgnoresPersistedSignatures(t *testing.T) {
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
	m["signatures"] = map[string]any{"article": map[string]any{
		"root": "article", "labels": []int{1, 2, 3}, "declared": []int{1, 2, 3},
		"children": map[string][]int{"1": {2, 3}, "2": {}, "3": {}},
		"reach":    1, "depth_cap": 64,
	}}
	old, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(testConfig(), old)
	if err != nil {
		t.Fatalf("snapshot with signatures rejected: %v", err)
	}
	if got := mustSnapshot(t, restored); got != string(data) {
		t.Errorf("restored snapshot diverges\n got: %s\nwant: %s", got, data)
	}
	probe := `<article><title>t</title><author>a</author><body>b</body></article>`
	got, want := restored.Add(parseDoc(t, probe)), s.Add(parseDoc(t, probe))
	if got.Classified != want.Classified || got.DTDName != want.DTDName || got.Similarity != want.Similarity {
		t.Errorf("probe: restored %+v, original %+v", got, want)
	}
}

// TestRestoreRoundTripKeepsSymbolsAndSignatures checks restore → snapshot
// is a fixpoint: the restored source must serialize byte-equal state
// (symbols in the same ID order; the signatures, rebuilt at restore, are
// not part of it), which is what the durability suite's DeepEqual
// comparisons rely on.
func TestRestoreRoundTripKeepsSymbolsAndSignatures(t *testing.T) {
	s := New(testConfig())
	runScript(t, s, durabilityScript)
	data, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(testConfig(), data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if gm, wm := decodeSnapshot(t, got), decodeSnapshot(t, data); !deepEqualJSON(gm, wm) {
		t.Errorf("restore round trip diverges:\n got: %v\nwant: %v", gm, wm)
	}
}

// TestRestoreV1SnapshotFallsBackToRebuild feeds Restore a pre-v2 snapshot
// (no version, no symbols — exactly what an old checkpoint file holds) and
// checks the classifier is rebuilt from the DTDs and classifies
// identically.
func TestRestoreV1SnapshotFallsBackToRebuild(t *testing.T) {
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

	restored, err := Restore(testConfig(), v1)
	if err != nil {
		t.Fatalf("v1 snapshot rejected: %v", err)
	}
	probes := []string{
		`<article><title>t</title><body>b</body></article>`,
		`<invoice><total>3</total></invoice>`,
	}
	for _, p := range probes {
		got := restored.Add(parseDoc(t, p))
		want := s.Add(parseDoc(t, p))
		if got.Classified != want.Classified || got.DTDName != want.DTDName || got.Similarity != want.Similarity {
			t.Errorf("probe %s:\n v1-restored: %+v\n original:    %+v", p, got, want)
		}
	}
	if got, want := restored.RepositorySize(), s.RepositorySize(); got != want {
		t.Errorf("repository size = %d, want %d", got, want)
	}
}

// deepEqualJSON compares two decoded JSON values.
func deepEqualJSON(a, b map[string]any) bool {
	ab, _ := json.Marshal(a)
	bb, _ := json.Marshal(b)
	return string(ab) == string(bb)
}
