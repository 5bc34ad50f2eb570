package source

// Tests for journaled classification decisions: every document record
// names the DTD it was classified in (or the repository), every evolution
// and reclassification record names the repository documents it recovered,
// and replay applies them without scoring anything.

import (
	"encoding/json"
	"strings"
	"testing"

	"dtdevolve/internal/dtd"
	"dtdevolve/internal/wal"
)

// decisionConfig evolves quickly and degrades elements wider than six
// children, so the workload below journals "sdoc" records too.
func decisionConfig() Config {
	cfg := testConfig()
	cfg.Sigma = 0.6
	cfg.MaxChildren = 6
	return cfg
}

// listDTD declares root "list". Two of them, "list" and "lists", share
// the root, so a streamed <list> runs two scoring lanes live while its
// replay streams through the winner's lane alone.
func listDTD(model string) *dtd.DTD {
	d := dtd.MustParse(`<!ELEMENT list ` + model + `><!ELEMENT item (#PCDATA)><!ELEMENT note (#PCDATA)>`)
	d.Name = "list"
	return d
}

const (
	farArticle  = `<article><title>t</title><ref/><ref/><ref/><ref/><ref/><ref/><body>b</body></article>`
	mildArticle = `<article><title>t</title><ref/><ref/><body>b</body></article>`
	invoiceDoc  = `<invoice><total>3</total></invoice>`
)

// decisionWorkload drives s through every kind of decision the journal
// carries: tree, streamed and batched documents; degraded ("sdoc")
// and repository documents; and check-phase, trigger-fired and forced
// evolutions and reclassifications, some of which recover repository
// documents. It returns every document's result, for the similarities.
func decisionWorkload(t *testing.T, s *Source) []AddResult {
	t.Helper()
	var results []AddResult
	add := func(src string) { results = append(results, s.Add(parseDoc(t, src))) }
	addStream := func(src string) {
		res, err := s.AddStream(strings.NewReader(src))
		if err != nil {
			t.Fatalf("AddStream(%s): %v", src, err)
		}
		results = append(results, res)
	}
	wide := "<list>" + strings.Repeat("<item>i</item>", 9) + "</list>"
	s.AddDTD("article", articleDTD())
	s.AddDTD("list", listDTD("(item+)"))
	s.AddDTD("lists", listDTD("(item*, note)"))
	if err := s.AddTriggerRule("on list when docs >= 3 do evolve, reclassify"); err != nil {
		t.Fatal(err)
	}
	add(farArticle)
	addStream(farArticle)
	add(invoiceDoc)
	addStream("<bag>" + strings.Repeat("<x/>", 8) + "</bag>")
	for i := 0; i < 3; i++ {
		add(mildArticle)
		addStream(mildArticle)
	}
	for i := 0; i < 3; i++ {
		addStream(wide)
	}
	add(farArticle)
	add(`<list><item>i</item><note>n</note></list>`)
	if _, _, err := s.EvolveNow("article"); err != nil {
		t.Fatal(err)
	}
	add(farArticle)
	add(invoiceDoc)
	s.ReclassifyRepository()

	batch := []string{mildArticle, farArticle, mildArticle, invoiceDoc, mildArticle, mildArticle, farArticle, mildArticle, mildArticle}
	results = append(results, s.AddBatch(parseDocs(t, batch))...)
	add(`<list><item>i</item><item>j</item></list>`)
	return results
}

// liveDecisionLog runs decisionWorkload against a fresh source journaling
// to a new directory, and returns the source and the directory.
func liveDecisionLog(t *testing.T) (*Source, []AddResult, string) {
	t.Helper()
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{Sync: wal.SyncOff, SegmentSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	live := New(decisionConfig())
	live.AttachWAL(w)
	results := decisionWorkload(t, live)
	if err := live.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	return live, results, dir
}

// journalOps decodes dir's records in order.
func journalOps(t *testing.T, dir string) []walOp {
	t.Helper()
	var ops []walOp
	if _, err := wal.Replay(dir, func(p []byte) error {
		var o walOp
		if err := json.Unmarshal(p, &o); err != nil {
			return err
		}
		ops = append(ops, o)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return ops
}

// stripDecisions returns ops without their decisions, as older builds
// journaled them.
func stripDecisions(ops []walOp) []walOp {
	out := make([]walOp, len(ops))
	for i, o := range ops {
		o.Class, o.Repository, o.Recovered = "", false, nil
		out[i] = o
	}
	return out
}

// writeJournal writes ops as a fresh log in a new directory.
func writeJournal(t *testing.T, ops []walOp) string {
	t.Helper()
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range ops {
		p, err := encodeOp(o)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestRecoverScoresNothing recovers the decision workload's log with no
// snapshot: the recovered snapshot equals the live one, and the classifier
// never ran, because every record carries its decision.
func TestRecoverScoresNothing(t *testing.T) {
	live, _, dir := liveDecisionLog(t)

	// The workload must journal every kind of decision, or the test proves
	// less than it claims.
	kinds := map[string]bool{}
	recoveredSome, recoveredNone := false, false
	for _, o := range journalOps(t, dir) {
		switch o.Op {
		case "doc", "sdoc":
			if o.Class == "" && !o.Repository {
				t.Fatalf("%s record without a decision", o.Op)
			}
			kinds[o.Op+" "+o.Class] = true
		case "evolve", "autoevolve", "reclassify", "autoreclassify":
			if o.Recovered == nil {
				t.Fatalf("%s record without an outcome", o.Op)
			}
			kinds[o.Op] = true
			kinds[o.Op+" "+o.Name] = true
			recoveredSome = recoveredSome || len(*o.Recovered) > 0
			recoveredNone = recoveredNone || len(*o.Recovered) == 0
		}
	}
	// "autoevolve article" is the check phase's (no rule watches article),
	// "autoevolve list" the trigger rule's.
	for _, k := range []string{"doc article", "doc ", "sdoc list", "sdoc ", "evolve", "autoevolve article", "autoevolve list", "reclassify", "autoreclassify"} {
		if !kinds[k] {
			t.Errorf("workload journaled no %q record (have %v)", k, kinds)
		}
	}
	if !recoveredSome || !recoveredNone {
		t.Errorf("reclassifications recovered some documents: %v, none: %v; want both", recoveredSome, recoveredNone)
	}

	recovered, _, err := Recover(decisionConfig(), nil, dir, wal.Options{Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.CloseWAL()
	if m := recovered.Metrics(); m.ClassifyPossible != 0 || m.ClassifyScored != 0 {
		t.Errorf("replay classified: %d possible, %d scored alignments; want 0", m.ClassifyPossible, m.ClassifyScored)
	}
	if got, want := mustSnapshot(t, recovered), mustSnapshot(t, live); got != want {
		t.Errorf("recovered snapshot diverges\n got: %s\nwant: %s", got, want)
	}
	lm, rm := live.Metrics(), recovered.Metrics()
	if rm.Added != lm.Added || rm.Classified != lm.Classified || rm.Repository != lm.Repository {
		t.Errorf("replayed document counters %d/%d/%d, live %d/%d/%d (added/classified/repository)",
			rm.Added, rm.Classified, rm.Repository, lm.Added, lm.Classified, lm.Repository)
	}
}

// otherSigma is a σ for the reader that puts some of the workload's live
// similarities on the other side of the writer's.
func otherSigma(t *testing.T, results []AddResult) float64 {
	t.Helper()
	const sigma = 0.8
	flips := 0
	for _, r := range results {
		if r.Similarity >= decisionConfig().Sigma && r.Similarity < sigma {
			flips++
		}
	}
	if flips == 0 {
		t.Fatalf("no live similarity in [%v, %v): the σ change decides nothing differently", decisionConfig().Sigma, sigma)
	}
	return sigma
}

// TestRecoverIndependentOfScorer recovers the decision workload's log
// under a σ that would classify some of its documents differently: the
// journaled decisions win, and the recovered snapshot equals the live one
// byte for byte — through Recover, and as a replica (group commit on)
// applying records through ApplyWALRecord.
func TestRecoverIndependentOfScorer(t *testing.T) {
	live, results, dir := liveDecisionLog(t)
	want := mustSnapshot(t, live)
	cfg := decisionConfig()
	cfg.Sigma = otherSigma(t, results)

	t.Run("recover", func(t *testing.T) {
		s, _, err := Recover(cfg, nil, dir, wal.Options{Sync: wal.SyncOff})
		if err != nil {
			t.Fatal(err)
		}
		defer s.CloseWAL()
		if got := mustSnapshot(t, s); got != want {
			t.Errorf("recovered under σ=%v diverges\n got: %s\nwant: %s", cfg.Sigma, got, want)
		}
	})
	t.Run("legacy re-scores", func(t *testing.T) {
		// The same log stripped of its decisions replays through the
		// reader's σ and lands elsewhere: the σ change is not vacuous.
		s, _, err := Recover(cfg, nil, writeJournal(t, stripDecisions(journalOps(t, dir))), wal.Options{Sync: wal.SyncOff})
		if err != nil {
			t.Fatal(err)
		}
		defer s.CloseWAL()
		if mustSnapshot(t, s) == want {
			t.Errorf("legacy replay under σ=%v reproduced the live snapshot; the test cannot tell decisions from re-scoring", cfg.Sigma)
		}
	})
	t.Run("replica", func(t *testing.T) {
		s := New(cfg)
		s.SetReplica(true)
		if _, err := wal.Replay(dir, s.ApplyWALRecord); err != nil {
			t.Fatal(err)
		}
		if got := mustSnapshot(t, s); got != want {
			t.Errorf("replica under σ=%v diverges\n got: %s\nwant: %s", cfg.Sigma, got, want)
		}
	})
}

// TestRecoverGroupCommitIndependentOfScorer is the group-commit writer's
// counterpart. One batch is scored under the read lock before any of it
// commits; its mild articles then fire an evolution that lets its last,
// far article reach σ, so that document's payload, encoded off-lock with
// the repository decision, must be re-encoded. The log recovers under a
// different σ to the live snapshot.
func TestRecoverGroupCommitIndependentOfScorer(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	live := New(decisionConfig())
	live.AttachWAL(w)
	live.AddDTD("article", articleDTD())
	results := live.AddBatch(parseDocs(t, []string{farArticle, invoiceDoc}))
	if results[0].Classified {
		t.Fatalf("far article classified before any evolution: %+v", results[0])
	}
	batch := live.AddBatch(parseDocs(t, []string{mildArticle, mildArticle, mildArticle, mildArticle, mildArticle, mildArticle, farArticle}))
	if last := batch[len(batch)-1]; live.Metrics().Evolutions == 0 || !last.Classified {
		t.Fatalf("the batch's evolution did not reclassify its far article (evolutions %d, result %+v)", live.Metrics().Evolutions, last)
	}
	results = append(results, batch...)
	if err := live.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	cfg := decisionConfig()
	cfg.Sigma = otherSigma(t, results)
	s, _, err := Recover(cfg, nil, dir, wal.Options{Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer s.CloseWAL()
	if got, want := mustSnapshot(t, s), mustSnapshot(t, live); got != want {
		t.Errorf("recovered under σ=%v diverges\n got: %s\nwant: %s", cfg.Sigma, got, want)
	}
}

// TestRecoverLegacyJournal strips every decision from a live log, leaving
// the records older builds wrote: replay re-scores them and reaches the
// snapshot the live calls produced. A log that switches from legacy to
// decided records part-way does too.
func TestRecoverLegacyJournal(t *testing.T) {
	live, _, dir := liveDecisionLog(t)
	want := mustSnapshot(t, live)
	ops := journalOps(t, dir)
	legacy := stripDecisions(ops)
	for _, tc := range []struct {
		name string
		ops  []walOp
	}{
		{"legacy", legacy},
		{"switching", append(append([]walOp(nil), legacy[:len(ops)/2]...), ops[len(ops)/2:]...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, info, err := Recover(decisionConfig(), nil, writeJournal(t, tc.ops), wal.Options{Sync: wal.SyncOff})
			if err != nil {
				t.Fatal(err)
			}
			defer s.CloseWAL()
			if info.Replayed != len(ops) {
				t.Errorf("replayed %d records, want %d", info.Replayed, len(ops))
			}
			if got := mustSnapshot(t, s); got != want {
				t.Errorf("recovered snapshot diverges\n got: %s\nwant: %s", got, want)
			}
			if tc.name == "legacy" && s.Metrics().ClassifyPossible == 0 {
				t.Error("legacy records replayed without re-scoring")
			}
		})
	}
}

// TestRecoverRejectsForeignDecisions feeds replay records whose decisions
// do not fit the state they land on — as a CRC-valid record from another
// log would: a document or a recovered repository document classified in a
// DTD the source does not hold, and a recovered position past the
// repository's end. Recover and ApplyWALRecord both return an error.
func TestRecoverRejectsForeignDecisions(t *testing.T) {
	article := articleDTD()
	base := []walOp{
		{Op: "dtd", Name: "article", Root: article.Name, Text: article.String()},
		{Op: "doc", Text: invoiceDoc, Repository: true},
	}
	bad := map[string]walOp{
		"doc in unregistered DTD":       {Op: "doc", Text: `<article><title>t</title><body>b</body></article>`, Class: "nosuch"},
		"doc in two places":             {Op: "doc", Text: `<article><title>t</title><body>b</body></article>`, Class: "article", Repository: true},
		"sdoc in unregistered DTD":      {Op: "sdoc", Text: invoiceDoc, MaxChildren: 2, Class: "nosuch"},
		"recovered past the end":        {Op: "reclassify", Recovered: &[]recovery{{Pos: 1, DTD: "article"}}},
		"recovered out of order":        {Op: "reclassify", Recovered: &[]recovery{{Pos: 0, DTD: "article"}, {Pos: 0, DTD: "article"}}},
		"recovered in unregistered DTD": {Op: "evolve", Name: "article", Recovered: &[]recovery{{Pos: 0, DTD: "nosuch"}}},
	}
	for name, op := range bad {
		t.Run(name, func(t *testing.T) {
			ops := append(append([]walOp(nil), base...), op)
			if _, _, err := Recover(testConfig(), nil, writeJournal(t, ops), wal.Options{Sync: wal.SyncOff}); err == nil {
				t.Error("Recover accepted the record")
			}
			s := New(testConfig())
			s.SetReplica(true)
			for _, o := range base {
				p, _ := encodeOp(o)
				if err := s.ApplyWALRecord(p); err != nil {
					t.Fatal(err)
				}
			}
			before := mustSnapshot(t, s)
			p, _ := encodeOp(op)
			if err := s.ApplyWALRecord(p); err == nil {
				t.Error("ApplyWALRecord accepted the record")
			}
			if got := mustSnapshot(t, s); got != before {
				t.Errorf("rejected record changed state\n got: %s\nwant: %s", got, before)
			}
		})
	}
}
