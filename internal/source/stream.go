// Streaming one-pass ingest (DESIGN.md §15): AddStream classifies and
// records a document in a single pass over the reader — the pull parser
// feeds one similarity evaluator per candidate DTD and the speculative
// recorder incrementally, so peak memory is bounded by the open-element
// path and the schema-sized delta tables, never by document length.
//
// Durability reuses the tree path's journal byte-for-byte: the parser's
// canonical-serialization tap spools exactly the bytes Document.String()
// would produce, so a non-degraded streamed document journals the same
// "doc" record the tree path would, and replay through either path
// converges to identical state (the streamed statistics are bit-identical
// to Record(doc), pinned by internal/stream's equivalence tests). A
// document that hit the MaxChildren budget journals as "sdoc" carrying the
// budget, and replays through the streaming path so its degraded
// statistics are reproduced exactly. Both records carry the fold's
// decision, the same one the tree path journals, so replay records the
// document against the winner without classifying it.
//
// When neither a WAL nor a docstore is attached, no spool is kept and the
// pass runs in truly bounded memory; the price is that a document the fold
// cannot classify has no bytes left to put in the repository
// (ErrStreamRepository), and a DTD-set change mid-stream cannot be healed
// by re-scoring the spool (ErrStreamStale) — both ask the caller to
// re-send.
package source

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"dtdevolve/internal/classify"
	"dtdevolve/internal/stream"
	"dtdevolve/internal/xmltree"
)

// ErrStreamStale reports that the DTD set changed while the document
// streamed and no spool was kept to re-score it; the caller must re-send.
var ErrStreamStale = errors.New("source: DTD set changed during streaming ingest; re-send the document")

// ErrStreamRepository reports that a streamed document classified below σ
// in bounded mode (no WAL, no store): its bytes are gone, so it cannot be
// added to the repository. Nothing was recorded; the caller may re-send it
// through the tree path.
var ErrStreamRepository = errors.New("source: streamed document is unclassified and no spool was kept for the repository; re-send via the tree path")

// streamConfig builds the consumer configuration for one child budget.
func (s *Source) streamConfig(maxChildren int) stream.Config {
	return stream.Config{
		Parse:       xmltree.Options{MaxBytes: s.cfg.MaxDocBytes},
		MaxChildren: maxChildren,
		Decay:       s.cfg.Similarity.Decay,
	}
}

// AddStream ingests one document from r through the one-pass streaming
// path: classification, recording, journaling, store append and the check
// phase, equivalent to Add(parse(r)) — same winner, same similarity bits,
// same recorded statistics, same journal bytes — without materializing the
// tree. Budgets come from the source Config: MaxDocBytes rejects oversized
// input with xmltree.SizeError, MaxChildren degrades over-wide elements
// (journaled as "sdoc" so replay reproduces the degraded statistics).
func (s *Source) AddStream(r io.Reader) (AddResult, error) {
	return s.addStream(r, s.cfg.MaxChildren, true)
}

// addStream is AddStream with an explicit child budget: WAL replay of an
// "sdoc" record re-streams under the budget that shaped it, not the
// current configuration (pooled consumers carry the configured budget and
// are bypassed in that case).
func (s *Source) addStream(r io.Reader, maxChildren int, pooled bool) (AddResult, error) {
	start := time.Now() // dtdvet:allow replaydet -- wall clock feeds phase metrics only; never journaled or replayed
	s.mu.RLock()
	gen := s.gen
	// Replay keeps a spool too: a replayed "sdoc" never re-journals, but an
	// unclassified one still needs its bytes for the repository, and a
	// fallback still needs them for the tree path.
	spoolWanted := (s.wal != nil && !s.replaying && s.walErr == nil) || s.store != nil || s.replaying
	entries := s.classifier.StreamEntries()
	thesaurus := s.cfg.Similarity.TagSimilarity != nil
	s.mu.RUnlock()

	if thesaurus {
		// The streaming evaluator scores exact tag equality only; the
		// thesaurus extension falls back to the tree path, still bounded by
		// MaxDocBytes at the parse layer.
		doc, err := xmltree.ParseWithOptions(r, xmltree.Options{MaxBytes: s.cfg.MaxDocBytes})
		if err != nil {
			s.observeStreamError(err)
			return AddResult{}, err
		}
		return s.Add(doc), nil
	}

	var ing *stream.Ingestor
	if pooled {
		if v := s.streamers.Get(); v != nil {
			ing = v.(*stream.Ingestor)
		} else {
			ing = stream.NewIngestor(s.tab, s.streamConfig(maxChildren))
		}
		defer s.streamers.Put(ing)
	} else {
		ing = stream.NewIngestor(s.tab, s.streamConfig(maxChildren))
	}

	var spool *bytes.Buffer
	var canon io.Writer
	if spoolWanted {
		spool = new(bytes.Buffer)
		canon = spool
	}
	out, err := ing.Run(r, entries, canon)
	if err != nil {
		s.observeStreamError(err)
		return AddResult{}, err
	}
	fold := s.classifier.FoldStream(out.Scores)
	s.metrics.ObserveClassifyPhase(time.Since(start)) // dtdvet:allow replaydet -- metrics only

	commit := time.Now() // dtdvet:allow replaydet -- wall clock feeds phase metrics only; never journaled or replayed
	s.mu.Lock()
	res, err := s.commitStreamLocked(ing, fold, gen, maxChildren, spool, out.Degraded)
	if err == nil {
		s.fireTriggers(&res)
	}
	s.mu.Unlock()
	if err != nil {
		return AddResult{}, err
	}
	s.metrics.ObserveStream(out.Consumed)
	s.metrics.ObserveCommitPhase(time.Since(commit)) // dtdvet:allow replaydet -- metrics only
	return res, nil
}

// observeStreamError counts a failed streaming ingest (today: the byte
// budget; other parse errors are the client's).
func (s *Source) observeStreamError(err error) {
	var se *xmltree.SizeError
	if errors.As(err, &se) {
		s.metrics.ObserveStreamRejectedOversize()
	}
}

// commitStreamLocked is the write-locked half of a streamed ingest: verify
// the scores are still current, journal the document, merge the winner's
// recorded delta and run the check phase — mirroring commitLocked +
// recordLocked with the recording already done. Callers hold the write
// lock.
// dtdvet:requires mu
func (s *Source) commitStreamLocked(ing *stream.Ingestor, fold classify.Result, gen uint64, maxChildren int, spool *bytes.Buffer, degraded bool) (AddResult, error) {
	if s.gen != gen {
		// The DTD set changed while the document streamed: the scores (and
		// the speculative deltas, keyed to the old lane set) are stale.
		// Re-score the spooled canonical bytes through the tree path — its
		// journal record is byte-identical to what we would have written.
		return s.streamFallbackLocked(spool, ErrStreamStale)
	}
	if fold.Classified && !ing.Committable(fold.DTDName) {
		// Degenerate σ ≤ 0 fold: a root-gated DTD won with similarity 0, and
		// its lane was never scored or recorded. The tree path handles it.
		return s.streamFallbackLocked(spool, ErrStreamStale)
	}
	if !fold.Classified && spool == nil {
		return AddResult{}, ErrStreamRepository
	}

	// Materialize the repository copy before journaling so the journal
	// never records a commit that then fails to apply. (The spool is the
	// canonical serialization of a document that just parsed; failure here
	// is a programming error, not an input error.)
	var repoDoc *xmltree.Document
	if !fold.Classified {
		doc, err := xmltree.ParseString(spool.String())
		if err != nil {
			return AddResult{}, fmt.Errorf("source: re-parsing stream spool: %w", err)
		}
		repoDoc = doc
	}

	op := decided(walOp{Op: "doc"}, fold)
	if degraded {
		// A degraded document's statistics depend on the child budget;
		// replaying it through the tree path would record the full-fidelity
		// statistics and diverge. Journal the budget with it and replay
		// through the streaming path.
		op.Op, op.MaxChildren = "sdoc", maxChildren
	}
	if spool != nil {
		op.Text = spool.String()
	}
	s.journalLocked(op)

	s.added++
	res := AddResult{DTDName: fold.DTDName, Similarity: fold.Similarity, Classified: fold.Classified, Candidates: fold.Candidates}
	s.metrics.ObserveDocument(fold.Classified)
	if !fold.Classified {
		res.DTDName = ""
		s.repository = append(s.repository, repoDoc)
		return res, nil
	}

	e := s.entries[fold.DTDName]
	if _, ok := ing.CommitWinner(fold.DTDName, e.rec); !ok {
		// Unreachable: Committable held under the same lock generation.
		return AddResult{}, fmt.Errorf("source: streamed winner %q lost its lane", fold.DTDName)
	}
	e.docs++
	if s.store != nil {
		_ = s.store.PutRaw(fold.DTDName, spool.Bytes())
	}
	if s.cfg.AutoEvolve && !s.replaying {
		if e.docs >= s.cfg.MinDocs && e.rec.ShouldEvolve(s.cfg.Tau) {
			report, reclassified, _ := s.evolveLocked(walOp{Op: "autoevolve", Name: fold.DTDName})
			res.Evolved = true
			res.Report = &report
			res.Reclassified = reclassified
		}
	}
	return res, nil
}

// streamFallbackLocked re-parses the spooled bytes and commits through the
// tree path; without a spool it returns sentinel.
// dtdvet:requires mu
func (s *Source) streamFallbackLocked(spool *bytes.Buffer, sentinel error) (AddResult, error) {
	if spool == nil {
		return AddResult{}, sentinel
	}
	doc, err := xmltree.ParseString(spool.String())
	if err != nil {
		return AddResult{}, fmt.Errorf("source: re-parsing stream spool: %w", err)
	}
	cls := s.classifier.Classify(doc)
	return s.commitLocked(doc, cls), nil
}

// applyStreamOp replays one journaled "sdoc" record: the document is
// re-streamed under the budget that shaped it, so the degraded statistics
// land bit-identically. A decided record streams through its DTD's lane
// only, whose validity bits the recorder needs, or through none for the
// repository, and classifies nothing: a lane's statistics do not depend on
// the other lanes. A legacy record re-scores every lane, as it did when
// written.
// dtdvet:replayroot
func (s *Source) applyStreamOp(op walOp) error {
	var err error
	if op.Class == "" && !op.Repository {
		_, err = s.addStream(strings.NewReader(op.Text), op.MaxChildren, false)
	} else {
		err = s.applyDecidedStreamOp(op)
	}
	if err != nil {
		return fmt.Errorf("source: WAL streamed document: %w", err)
	}
	return nil
}

// applyDecidedStreamOp replays a decided "sdoc" record.
func (s *Source) applyDecidedStreamOp(op walOp) error {
	s.mu.RLock()
	gen := s.gen
	fold, err := s.decisionLocked(op)
	var lanes []classify.StreamEntry
	if err == nil && fold.Classified {
		for _, e := range s.classifier.StreamEntries() {
			if e.Name == fold.DTDName {
				lanes = append(lanes, e)
			}
		}
	}
	s.mu.RUnlock()
	if err != nil {
		return err
	}
	ing := stream.NewIngestor(s.tab, s.streamConfig(op.MaxChildren))
	out, err := ing.Run(strings.NewReader(op.Text), lanes, nil)
	if err != nil {
		return err
	}
	if fold.Classified && !ing.Committable(fold.DTDName) {
		return fmt.Errorf("document root is gated out of DTD %q", fold.DTDName)
	}
	s.mu.Lock()
	res, err := s.commitStreamLocked(ing, fold, gen, op.MaxChildren, bytes.NewBufferString(op.Text), out.Degraded)
	if err == nil {
		s.fireTriggers(&res)
	}
	s.mu.Unlock()
	if err != nil {
		return err
	}
	s.metrics.ObserveStream(out.Consumed)
	return nil
}
