// The one commit step (DESIGN.md §8): every document, tree or streamed,
// live or replayed, reaches the source's state as a commitReq through
// commitOneLocked, run by the group-commit queue (groupcommit.go).
package source

import (
	"fmt"
	"sync"

	"dtdevolve/internal/classify"
	"dtdevolve/internal/intern"
	"dtdevolve/internal/stream"
	"dtdevolve/internal/xmltree"
)

// commitReq is one document scored under the read lock at generation gen:
// a tree (doc), or a streamed document (ing) whose winner's statistics and
// new names wait in the ingestor. spool is a streamed document's canonical
// bytes (nil in bounded mode), sdoc the child budget it degraded under (0:
// it did not). payload is the journal record encoded off the lock (nil:
// the step encodes it). The step fills res, or err when the request could
// not commit; panicked holds what the step raised, if it panicked. done
// signals once the request is durable and applied; promote hands its
// waiter leadership of the group-commit queue. Each is signalled at most
// once per use and received by the request's waiter, so a pooled request
// keeps the pair, empty, across uses.
type commitReq struct {
	doc      *xmltree.Document
	ing      *stream.Ingestor
	spool    []byte
	sdoc     int
	cls      classify.Result
	gen      uint64
	payload  []byte
	res      AddResult
	err      error
	panicked any
	done     chan struct{}
	promote  chan struct{}
}

// reqPool holds commit requests: every document takes one, and commit is
// done with it when it returns, so a request costs no allocation.
var reqPool = sync.Pool{New: func() any {
	return &commitReq{done: make(chan struct{}, 1), promote: make(chan struct{}, 1)}
}}

// newReq returns a request for doc (nil for a streamed document), scored
// as cls at generation gen; freeReq takes it back once commit returned.
func newReq(doc *xmltree.Document, cls classify.Result, gen uint64) *commitReq {
	r := reqPool.Get().(*commitReq)
	r.doc, r.cls, r.gen = doc, cls, gen
	return r
}

// freeReq clears r but for its signal channels, so the pool holds on to
// no document, and pools it.
func freeReq(r *commitReq) {
	*r = commitReq{done: r.done, promote: r.promote}
	reqPool.Put(r)
}

// record is the request's journal record: the canonical text with the
// classification decision. A degraded document that merges its lane's
// statistics, or goes to the repository, journals as "sdoc" with its
// budget and replays through the streaming path. A tree recorded at full
// fidelity journals as "doc", whatever budget its pass degraded under.
func (r *commitReq) record() walOp {
	op := walOp{Op: "doc", Text: string(r.spool)}
	if r.sdoc > 0 && (r.ing != nil || !r.cls.Classified) {
		op.Op, op.MaxChildren = "sdoc", r.sdoc
	}
	if r.spool == nil {
		op.Text = r.doc.String()
	}
	return decided(op, r.cls)
}

// encode serializes the record. Marshalling a walOp (strings only) cannot
// fail; a nil payload would be encoded again in the step, whose append
// reports the failure.
func (r *commitReq) encode() { r.payload, _ = encodeOp(r.record()) }

// commit runs reqs, in order, through the commit step on the group-commit
// queue, and returns once every one of them is durable and applied. A
// panic in the step surfaces here, on the goroutine whose request raised
// it, after all of reqs committed; the queue, the lock and the other
// requests of its group carry on.
func (s *Source) commit(reqs ...*commitReq) {
	s.gc.submit(reqs)
	var p any
	for _, r := range reqs {
		s.gc.wait(r)
		if p == nil {
			p = r.panicked
		}
	}
	if p != nil {
		panic(p)
	}
}

// stepLocked runs the commit step for r, keeping a panic for r's waiter
// to raise, so the leader still journals, flushes and acknowledges the
// rest of its group and releases the lock.
// dtdvet:requires mu
func (s *Source) stepLocked(r *commitReq) {
	defer func() { r.panicked = recover() }()
	s.commitOneLocked(r)
}

// commitOneLocked is the commit step: re-score a stale request, journal
// its record (to the WAL, or to the group's sink) reusing the payload
// encoded off the lock, apply it, fire the triggers. A request is stale
// when the DTD set changed after it was scored. It re-scores as a tree, a
// streamed one parsed from its spool (without one: ErrStreamStale, and
// nothing changes), and its record is re-encoded when that changed it.
// dtdvet:requires mu
func (s *Source) commitOneLocked(r *commitReq) {
	if s.gen != r.gen {
		if r.ing != nil {
			if r.err = r.toTree(); r.err != nil {
				return
			}
		}
		cls := s.classifier.Classify(r.doc)
		if decided(walOp{}, cls) != decided(walOp{}, r.cls) {
			r.payload = nil
		}
		r.cls = cls
	}
	if s.journalingLocked() {
		if r.payload == nil {
			r.encode()
		}
		s.appendLocked(r.payload)
	}
	r.res = s.applyLocked(r)
	s.fireTriggers(&r.res)
}

// toTree turns a streamed request into a tree request, parsed from its
// spool; without one (bounded mode) it is ErrStreamStale. The spool
// serializes a document that just parsed, so a parse failure is a
// programming error. Its record is encoded afresh.
func (r *commitReq) toTree() error {
	if r.spool == nil {
		return ErrStreamStale
	}
	doc, err := xmltree.ParseString(string(r.spool))
	if err != nil {
		return fmt.Errorf("source: re-parsing stream spool: %w", err)
	}
	r.doc, r.ing, r.payload = doc, nil, nil
	return nil
}

// applyLocked applies a journaled request. The document's names are
// interned first, so new symbols get their IDs in journal order, the order
// replay assigns them. Then the document is recorded — Record(doc), or
// CommitWinner merging a streamed winner's lane — or sent to the
// repository; a classified one is kept in the docstore; and the check
// phase runs.
// dtdvet:requires mu
func (s *Source) applyLocked(r *commitReq) AddResult {
	if r.ing == nil {
		// Node IDs are atomics, so a concurrent classification of the same
		// tree (a caller reusing a document) stays race-free.
		intern.InternDocument(s.tab, r.doc.Root)
	}
	s.added++
	cls := r.cls
	res := AddResult{DTDName: cls.DTDName, Similarity: cls.Similarity, Classified: cls.Classified, Candidates: cls.Candidates}
	s.metrics.ObserveDocument(cls.Classified)
	if !cls.Classified {
		res.DTDName = ""
		s.repository = append(s.repository, r.doc)
		return res
	}
	e := s.entries[cls.DTDName]
	if r.ing != nil {
		// Cannot fail: the DTD set is the one the request was scored under,
		// and its winner has a lane.
		r.ing.CommitWinner(cls.DTDName, e.rec)
	} else {
		e.rec.Record(r.doc)
	}
	e.docs++
	if s.store != nil {
		// Persist the classified document so it can be re-validated or
		// adapted after an evolution (AdaptStored). Store failures must not
		// lose the classification; surface them via the status.
		if r.spool != nil {
			_ = s.store.PutRaw(cls.DTDName, r.spool)
		} else {
			_ = s.store.Put(cls.DTDName, r.doc)
		}
	}
	// During replay the check phase is suppressed entirely: every evolution
	// that fired live follows in the log as its own "autoevolve" record, and
	// re-deriving it here would double-apply it.
	if s.cfg.AutoEvolve && !s.replaying && e.docs >= s.cfg.MinDocs && e.rec.ShouldEvolve(s.cfg.Tau) {
		report, reclassified, _ := s.evolveLocked(walOp{Op: "autoevolve", Name: cls.DTDName})
		res.Evolved = true
		res.Report = &report
		res.Reclassified = reclassified
	}
	return res
}
