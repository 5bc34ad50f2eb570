package stream

// Equivalence tests for the one-pass ingest consumer: a document streamed
// through an Ingestor must classify identically (winner, score bits,
// σ-decision, full candidate list) to the tree path, leave the winner's
// recorder in a bit-identical state, and reproduce the tree serializer's
// canonical bytes — all without materializing the tree.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dtdevolve/internal/classify"
	"dtdevolve/internal/dtd"
	"dtdevolve/internal/intern"
	"dtdevolve/internal/record"
	"dtdevolve/internal/similarity"
	"dtdevolve/internal/xmltree"
)

// corpusSetup registers every testdata DTD in one classifier and returns
// the raw bytes of every testdata document.
func corpusSetup(t *testing.T) (*classify.Classifier, map[string]*dtd.DTD, map[string][]byte) {
	t.Helper()
	tab := intern.NewTable()
	c := classify.NewWithTable(0.7, similarity.DefaultConfig(), tab)
	dtds := make(map[string]*dtd.DTD)
	dirs, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*"))
	if err != nil || len(dirs) == 0 {
		t.Fatalf("globbing testdata: %v (%d dirs)", err, len(dirs))
	}
	docs := make(map[string][]byte)
	for _, dir := range dirs {
		dpaths, _ := filepath.Glob(filepath.Join(dir, "*.dtd"))
		for _, p := range dpaths {
			d, err := dtd.ParseFile(p)
			if err != nil {
				t.Fatalf("%s: %v", p, err)
			}
			name := strings.TrimSuffix(filepath.Base(p), ".dtd")
			d.Name = name // corpus DTD files are named after their root element
			dtds[name] = d
			c.Set(name, d)
		}
		xpaths, _ := filepath.Glob(filepath.Join(dir, "*.xml"))
		for _, p := range xpaths {
			raw, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			docs[p] = raw
		}
	}
	if len(dtds) < 2 || len(docs) == 0 {
		t.Fatalf("corpus too small: %d DTDs, %d docs", len(dtds), len(docs))
	}
	return c, dtds, docs
}

func recSnapshotJSON(t *testing.T, r *record.Recorder) string {
	t.Helper()
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestIngestMatchesTreePath pins the tentpole equivalence over the corpus:
// same winner, bit-identical similarity, same σ-decision and candidate
// list as the exhaustive tree classification; the winner's recorder state
// bit-identical to Record(doc); canonical bytes equal to doc.String().
func TestIngestMatchesTreePath(t *testing.T) {
	c, dtds, docs := corpusSetup(t)
	tab := c.Table()
	ing := NewIngestor(tab, Config{Decay: similarity.DefaultConfig().Decay})
	for path, raw := range docs {
		doc, err := xmltree.ParseString(string(raw))
		if err != nil {
			t.Fatalf("%s: tree parse: %v", path, err)
		}
		want := c.ClassifyExhaustiveElement(doc.Root)

		var canon bytes.Buffer
		out, err := ing.Run(bytes.NewReader(raw), c.StreamEntries(), &canon)
		if err != nil {
			t.Fatalf("%s: stream: %v", path, err)
		}
		got := c.FoldStream(out.Scores)

		if got.DTDName != want.DTDName || got.Similarity != want.Similarity || got.Classified != want.Classified {
			t.Errorf("%s: stream fold (%q, %v, %v) != tree (%q, %v, %v)",
				path, got.DTDName, got.Similarity, got.Classified,
				want.DTDName, want.Similarity, want.Classified)
		}
		if fmt.Sprint(got.Candidates) != fmt.Sprint(want.Candidates) {
			t.Errorf("%s: candidates %v != %v", path, got.Candidates, want.Candidates)
		}
		if canon.String() != doc.String() {
			t.Errorf("%s: canonical bytes diverge from tree serialization", path)
		}
		if out.Degraded {
			t.Errorf("%s: unexpected degradation without a budget", path)
		}
		if out.Consumed != int64(len(raw)) {
			t.Errorf("%s: consumed %d of %d bytes", path, out.Consumed, len(raw))
		}

		if want.Classified {
			d := dtds[want.DTDName]
			streamRec := record.NewWithTable(d, tab)
			if _, ok := ing.CommitWinner(want.DTDName, streamRec); !ok {
				t.Fatalf("%s: winner %q not committable", path, want.DTDName)
			}
			treeRec := record.NewWithTable(d, tab)
			intern.InternDocument(tab, doc.Root)
			treeRec.Record(doc)
			if a, b := recSnapshotJSON(t, streamRec), recSnapshotJSON(t, treeRec); a != b {
				t.Errorf("%s: recorder state diverges from tree path\nstream: %s\ntree:   %s", path, a, b)
			}
		}
	}
}

// TestCommitWinnerRelabelsMovedNames: when other names are interned
// between a run and its commit, the document's new names take other IDs
// than the provisional ones its delta is keyed by. CommitWinner relabels
// the delta, so the recorder ends exactly as Record(doc) leaves it under
// the final IDs, and a later tree document merges into the same sequence,
// group and pair entries.
func TestCommitWinnerRelabelsMovedNames(t *testing.T) {
	tab := intern.NewTable()
	c := classify.NewWithTable(0.1, similarity.DefaultConfig(), tab)
	d, err := dtd.ParseString(`<!ELEMENT r (a, b)><!ELEMENT a EMPTY><!ELEMENT b EMPTY>`)
	if err != nil {
		t.Fatal(err)
	}
	d.Name = "r"
	c.Set("r", d)
	// q and p repeat twice each (a group), q's children u and v likewise,
	// and t nests s: plus elements at two levels.
	raw := `<r><a/><q><u/><u/><v/><v/></q><p/><q><v/><w/></q><b/><p/><t><s/></t></r>`
	ing := NewIngestor(tab, Config{Decay: similarity.DefaultConfig().Decay})
	if _, err := ing.Run(strings.NewReader(raw), c.StreamEntries(), nil); err != nil {
		t.Fatal(err)
	}
	// Another commit interns v, an unrelated name and p meanwhile.
	tab.InternAll([]string{"v", "zz", "p"})
	streamRec := record.NewWithTable(d, tab)
	if _, ok := ing.CommitWinner("r", streamRec); !ok {
		t.Fatal("winner not committable")
	}
	names := tab.Names()
	if got, want := strings.Join(names[len(names)-8:], ","), "v,zz,p,q,u,w,t,s"; got != want {
		t.Errorf("symbols end %s, want %s", got, want)
	}
	doc, err := xmltree.ParseString(raw)
	if err != nil {
		t.Fatal(err)
	}
	intern.InternDocument(tab, doc.Root)
	treeRec := record.NewWithTable(d, tab)
	treeRec.Record(doc)
	if a, b := recSnapshotJSON(t, streamRec), recSnapshotJSON(t, treeRec); a != b {
		t.Fatalf("relabelled delta diverges from the tree path\nstream: %s\ntree:   %s", a, b)
	}
	streamRec.Record(doc)
	treeRec.Record(doc)
	if a, b := recSnapshotJSON(t, streamRec), recSnapshotJSON(t, treeRec); a != b {
		t.Errorf("a second document keys apart from the relabelled delta\nstream: %s\ntree:   %s", a, b)
	}
}

// TestIngestRootGate checks that DTDs whose declared root cannot match are
// gated (scored 0 without a recorder lane) and that CommitWinner refuses
// them.
func TestIngestRootGate(t *testing.T) {
	c, _, _ := corpusSetup(t)
	tab := c.Table()
	ing := NewIngestor(tab, Config{Decay: similarity.DefaultConfig().Decay})
	raw := []byte(`<nosuchroot><x/></nosuchroot>`)
	out, err := ing.Run(bytes.NewReader(raw), c.StreamEntries(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range out.Scores {
		if !sc.Gated || sc.Sim != 0 {
			t.Errorf("score %+v: want gated 0", sc)
		}
	}
	res := c.FoldStream(out.Scores)
	if res.Classified || res.DTDName == "" {
		t.Errorf("fold %+v: want unclassified with min-name winner", res)
	}
	d, err := dtd.ParseString(`<!ELEMENT nosuchroot EMPTY>`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ing.CommitWinner(res.DTDName, record.NewWithTable(d, tab)); ok {
		t.Errorf("CommitWinner accepted a gated lane")
	}
}

// TestIngestDegrade checks the MaxChildren budget: an over-wide element
// flags the document Degraded, drops local validity, and two runs with the
// same budget leave bit-identical recorder state (the budget is part of
// the journaled record, so replay must reproduce it).
func TestIngestDegrade(t *testing.T) {
	tab := intern.NewTable()
	c := classify.NewWithTable(0.1, similarity.DefaultConfig(), tab)
	d, err := dtd.ParseString(`<!ELEMENT r (a, b)><!ELEMENT a EMPTY><!ELEMENT b EMPTY>`)
	if err != nil {
		t.Fatal(err)
	}
	d.Name = "r"
	c.Set("wide", d)

	// b first appears as the 7th child: past a budget of 4, so the degraded
	// recording must drop it while the full one keeps it.
	raw := []byte("<r>" + strings.Repeat("<a/>", 6) + "<b/></r>")

	run := func(maxKids int) (Outcome, string) {
		ing := NewIngestor(tab, Config{Decay: similarity.DefaultConfig().Decay, MaxChildren: maxKids})
		out, err := ing.Run(bytes.NewReader(raw), c.StreamEntries(), nil)
		if err != nil {
			t.Fatal(err)
		}
		rec := record.NewWithTable(d, tab)
		if _, ok := ing.CommitWinner("wide", rec); !ok {
			t.Fatal("winner not committable")
		}
		return out, recSnapshotJSON(t, rec)
	}

	full, fullSnap := run(0)
	if full.Degraded {
		t.Fatal("degraded without budget")
	}
	deg1, degSnap1 := run(4)
	deg2, degSnap2 := run(4)
	if !deg1.Degraded || !deg2.Degraded {
		t.Fatal("budget 4 over 7 children: want Degraded")
	}
	if degSnap1 != degSnap2 {
		t.Errorf("degraded recording not deterministic:\n%s\n%s", degSnap1, degSnap2)
	}
	if degSnap1 == fullSnap {
		t.Errorf("degraded recording equals full recording; budget had no effect")
	}
	if s := deg1.Scores[0]; s.Gated || s.Sim == full.Scores[0].Sim {
		t.Errorf("degraded sim %v vs full %v: want the set-summary escalation to show", s.Sim, full.Scores[0].Sim)
	}
}

// TestIngestErrorRecovery checks that a failed run releases its evaluators
// and the ingestor keeps working.
func TestIngestErrorRecovery(t *testing.T) {
	c, _, docs := corpusSetup(t)
	ing := NewIngestor(c.Table(), Config{Decay: similarity.DefaultConfig().Decay})
	if _, err := ing.Run(strings.NewReader("<r><unclosed></r>"), c.StreamEntries(), nil); err == nil {
		t.Fatal("want parse error")
	}
	for path, raw := range docs {
		if _, err := ing.Run(bytes.NewReader(raw), c.StreamEntries(), nil); err != nil {
			t.Fatalf("%s after failed run: %v", path, err)
		}
		break
	}
}

// TestIngestMaxBytes checks the parse-layer byte budget surfaces as
// xmltree.SizeError from the streaming path.
func TestIngestMaxBytes(t *testing.T) {
	c, _, _ := corpusSetup(t)
	ing := NewIngestor(c.Table(), Config{
		Decay: similarity.DefaultConfig().Decay,
		Parse: xmltree.Options{MaxBytes: 16},
	})
	_, err := ing.Run(strings.NewReader("<feed>"+strings.Repeat("<entry/>", 100)+"</feed>"), c.StreamEntries(), nil)
	var se *xmltree.SizeError
	if !errors.As(err, &se) || se.Limit != 16 {
		t.Fatalf("want SizeError{16}, got %v", err)
	}
}
