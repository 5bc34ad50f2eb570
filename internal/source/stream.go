// Streaming one-pass ingest (DESIGN.md §15): AddStream classifies and
// records a document in a single pass over the reader. The pull parser
// feeds one similarity evaluator per candidate DTD and the speculative
// recorder, so peak memory is bounded by the open-element path and the
// schema-sized delta tables, never by document length. The pass only
// reads the symbol table: names it lacks get provisional IDs from a
// per-document intern.Overlay, relabelled at commit when other names were
// interned first.
//
// The document then commits like every other, as a commitReq through the
// one commit step (commit.go), serial or grouped, which interns its new
// names and merges the winner's lane. Its journal record is the tree
// path's, byte for byte: the parser's canonical tap spools exactly the
// bytes Document.String() would produce, and the streamed statistics are
// bit-identical to Record(doc) (internal/stream's equivalence tests). A
// document that hit the MaxChildren budget journals as "sdoc" carrying the
// budget, and replays through the streaming path.
//
// Without a WAL or a docstore no spool is kept, and the pass runs in truly
// bounded memory. The price: a document the fold sends to the repository
// has no bytes left for it (ErrStreamRepository), and a stale one cannot
// be re-scored (ErrStreamStale); both ask the caller to re-send.
package source

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"dtdevolve/internal/classify"
	"dtdevolve/internal/stream"
	"dtdevolve/internal/xmltree"
)

// ErrStreamStale reports that the DTD set changed while a document
// streamed and no spool was kept to re-score it; the caller must re-send.
var ErrStreamStale = errors.New("source: DTD set changed during streaming ingest; re-send the document")

// ErrStreamRepository reports that a streamed document classified below σ
// in bounded mode (no WAL, no store): its bytes are gone, so it cannot be
// added to the repository. Nothing was recorded; the caller may re-send it
// through the tree path.
var ErrStreamRepository = errors.New("source: streamed document is unclassified and no spool was kept for the repository; re-send via the tree path")

// ingestor borrows a pooled consumer when maxChildren is the configured
// child budget, and builds an unpooled one for another (a replayed "sdoc"
// journaled under it). putIngestor takes it back.
func (s *Source) ingestor(maxChildren int) *stream.Ingestor {
	if maxChildren == s.cfg.MaxChildren {
		if v := s.streamers.Get(); v != nil {
			return v.(*stream.Ingestor)
		}
	}
	return stream.NewIngestor(s.tab, stream.Config{
		Parse:       xmltree.Options{MaxBytes: s.cfg.MaxDocBytes},
		MaxChildren: maxChildren,
		Decay:       s.cfg.Similarity.Decay,
	})
}

// putIngestor returns a consumer borrowed for maxChildren to the pool.
func (s *Source) putIngestor(ing *stream.Ingestor, maxChildren int) {
	if maxChildren == s.cfg.MaxChildren {
		s.streamers.Put(ing)
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
	return s.addStream(r, s.cfg.MaxChildren, nil)
}

// addStream is AddStream under an explicit child budget. WAL replay of an
// "sdoc" record re-streams under the budget that shaped it, not the
// current configuration, and passes the record as dec when it carries a
// decision: the document then streams through its DTD's lane only, whose
// validity bits the recorder needs, or through none for the repository,
// and classifies nothing — a lane's statistics do not depend on the other
// lanes.
//
// A fold no lane can commit becomes a tree request here, off the lock,
// parsed from the spool: one sent to the repository, and the degenerate
// σ ≤ 0 fold crowning a root-gated DTD at similarity 0, whose lane was
// never recorded. Without a spool those return ErrStreamRepository and
// ErrStreamStale.
func (s *Source) addStream(rd io.Reader, maxChildren int, dec *walOp) (AddResult, error) {
	start := time.Now() // dtdvet:allow replaydet -- wall clock feeds phase metrics only; never journaled or replayed
	s.mu.RLock()
	gen, journal := s.gen, s.journalingLocked()
	// Replay keeps a spool too: a replayed "sdoc" never re-journals, but an
	// unclassified or stale one still needs its bytes for the tree.
	spooled := journal || s.store != nil || s.replaying
	entries := s.classifier.StreamEntries()
	thesaurus := s.cfg.Similarity.TagSimilarity != nil && dec == nil
	var cls classify.Result
	var err error
	if dec != nil {
		cls, err = s.decisionLocked(*dec)
		entries = slices.DeleteFunc(entries, func(e classify.StreamEntry) bool { return !cls.Classified || e.Name != cls.DTDName })
	}
	s.mu.RUnlock()
	if err != nil {
		return AddResult{}, err
	}

	if thesaurus {
		// The streaming evaluator scores exact tag equality only; the
		// thesaurus extension falls back to the tree path, still bounded by
		// MaxDocBytes at the parse layer.
		doc, err := xmltree.ParseWithOptions(rd, xmltree.Options{MaxBytes: s.cfg.MaxDocBytes})
		if err != nil {
			s.observeStreamError(err)
			return AddResult{}, err
		}
		return s.Add(doc), nil
	}

	ing := s.ingestor(maxChildren)
	defer s.putIngestor(ing, maxChildren)
	var spool *bytes.Buffer
	var canon io.Writer
	if spooled {
		spool = new(bytes.Buffer)
		canon = spool
	}
	out, err := ing.Run(rd, entries, canon)
	if err != nil {
		s.observeStreamError(err)
		return AddResult{}, err
	}
	if dec == nil {
		cls = s.classifier.FoldStream(out.Scores)
		s.metrics.ObserveClassifyPhase(time.Since(start)) // dtdvet:allow replaydet -- metrics only
	}
	r := newReq(nil, cls, gen)
	defer freeReq(r)
	r.ing = ing
	if spool != nil {
		r.spool = spool.Bytes()
	}
	if out.Degraded {
		// Degraded statistics depend on the child budget; replaying the
		// document through the tree path would record full-fidelity ones.
		// Journal the budget with it and replay through the streaming path.
		r.sdoc = maxChildren
	}
	if !cls.Classified || !ing.Committable(cls.DTDName) {
		switch {
		case dec != nil && cls.Classified:
			return AddResult{}, fmt.Errorf("document root is gated out of DTD %q", cls.DTDName)
		case spool == nil && !cls.Classified:
			return AddResult{}, ErrStreamRepository
		}
		if err := r.toTree(); err != nil {
			return AddResult{}, err
		}
	}
	if journal {
		r.encode()
	}
	s.commit(r)
	if r.err != nil {
		return AddResult{}, r.err
	}
	s.metrics.ObserveStream(out.Consumed)
	return r.res, nil
}

// observeStreamError counts a failed streaming ingest (today: the byte
// budget; other parse errors are the client's).
func (s *Source) observeStreamError(err error) {
	var se *xmltree.SizeError
	if errors.As(err, &se) {
		s.metrics.ObserveStreamRejectedOversize()
	}
}

// applyStreamOp replays one journaled "sdoc" record: the document is
// re-streamed under the budget that shaped it, so the degraded statistics
// land bit-identically. A legacy record, which carries no decision,
// re-scores every lane, as it did when written.
// dtdvet:replayroot
func (s *Source) applyStreamOp(op walOp) error {
	dec := &op
	if op.Class == "" && !op.Repository {
		dec = nil
	}
	if _, err := s.addStream(strings.NewReader(op.Text), op.MaxChildren, dec); err != nil {
		return fmt.Errorf("source: WAL streamed document: %w", err)
	}
	return nil
}
