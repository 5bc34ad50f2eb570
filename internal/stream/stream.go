// Package stream is the one-pass ingest path (DESIGN.md §15): it drives
// the event stream of xmltree.StreamParse into one similarity.StreamEval
// per candidate DTD and a record.StreamRecorder, so a document is
// classified and its statistics recorded in a single pass over the reader
// with memory bounded by the open-element path — never by document size.
//
// The consumer owns only
//
//   - the open-element stacks: one weighted-size accumulator, one
//     kept-child counter and one degraded flag per open element;
//   - one streaming evaluator per non-gated DTD (O(depth × automaton
//     states) each);
//   - the streaming recorder's speculative per-DTD deltas (schema-sized);
//   - an intern.Overlay holding the names the symbol table lacked.
//
// A run only reads the symbol table. A name it lacks gets the ID it would
// receive if interned now, after the view the run began with, so the
// evaluators and the recorder key it like any other label. CommitWinner
// interns those names, in document order, before it merges the winner's
// delta, relabelling it first when other writers' interning gave the names
// other IDs meanwhile.
//
// Root gating mirrors classify.fullPlanLocked: a DTD whose declared root
// differs from the document root is pre-scored 0 without running its
// alignment, and without a recorder lane (Committable), so it can win the
// fold only in the degenerate σ ≤ 0 case.
//
// Budgets degrade instead of OOMing: an element whose kept children
// (elements and text nodes alike) exceed MaxChildren is escalated — its
// similarity triple falls back to the ANY-style set summary, its exact
// sequence statistics stop admitting new labels, and it is never counted
// locally valid. The document is flagged Degraded so the source journals
// it with the budget that shaped it, keeping replay deterministic.
package stream

import (
	"io"

	"dtdevolve/internal/classify"
	"dtdevolve/internal/dtd"
	"dtdevolve/internal/intern"
	"dtdevolve/internal/record"
	"dtdevolve/internal/similarity"
	"dtdevolve/internal/xmltree"
)

// Config holds the per-source streaming parameters; it is immutable after
// NewIngestor.
type Config struct {
	// Parse configures the pull parser (MaxDepth, MaxBytes,
	// PreserveWhitespace), exactly as the tree path's ParseWithOptions.
	Parse xmltree.Options
	// MaxChildren bounds the kept children (element and text nodes) of one
	// element before it degrades; 0 means unlimited.
	MaxChildren int
	// Decay is the similarity measure's decay, used to fold weighted sizes
	// bottom-up (weightedSize(n) = 1 + Decay·Σ children). It must equal the
	// Decay of every evaluator pool the entries carry.
	Decay float64
}

// Outcome summarizes one streamed document.
type Outcome struct {
	// Scores has one entry per candidate DTD, in StreamEntries (sorted by
	// name) order — the input classify.FoldStream expects.
	Scores []classify.StreamScore
	// Degraded reports that at least one element exceeded MaxChildren.
	Degraded bool
	// Consumed is the number of input bytes read.
	Consumed int64
}

// Ingestor streams documents against a candidate DTD set. It is not safe
// for concurrent use; callers pool ingestors (one per in-flight streaming
// ingest) and reuse them across documents to keep the parser and recorder
// buffers warm.
type Ingestor struct {
	tab *intern.Table
	cfg Config
	sr  *record.StreamRecorder
	st  *xmltree.Streamer
	// ov resolves the run's names against the table as it stood when the
	// run began; CommitWinner interns the names it found new.
	ov intern.Overlay

	// Per-run state, reused across documents.
	entries []classify.StreamEntry
	evals   []*similarity.StreamEval // parallel to entries; nil when gated
	recLane []int                    // entries index → recorder lane; -1 when gated
	dtds    []*dtd.DTD
	wsum    []float64 // per open element: Σ weighted sizes of closed children
	kids    []int     // per open element: kept children so far
	fdeg    []bool    // per open element: already degraded
	valids  []bool    // per recorder lane: validity of the closing element
	scores  []classify.StreamScore
}

// NewIngestor returns an Ingestor recording into tab's IDs. tab must be
// the table shared by the entry pools and the target recorders. A run
// only reads tab; CommitWinner writes the run's new names to it.
func NewIngestor(tab *intern.Table, cfg Config) *Ingestor {
	return &Ingestor{tab: tab, cfg: cfg, sr: record.NewStreamRecorder(tab)}
}

// Run streams one document from r against entries, returning its per-DTD
// scores and leaving the recorder's speculative deltas ready for
// CommitWinner. Names the table lacks get provisional IDs from an
// intern.Overlay over the table as it stands now; the table itself is not
// written. canon, when non-nil, receives the document's canonical
// serialization (byte-identical to Document.String() of the tree path) as
// a side effect of the parse — the source journals and stores it without
// ever materializing the tree. On error nothing is committable.
func (g *Ingestor) Run(r io.Reader, entries []classify.StreamEntry, canon io.Writer) (Outcome, error) {
	g.ov.Reset(g.tab.View())
	sopts := xmltree.StreamOptions{Options: g.cfg.Parse, Symbols: &g.ov, Canon: canon}
	if g.st == nil {
		g.st = xmltree.StreamParse(r, sopts)
	} else {
		g.st.Reset(r, sopts)
	}
	g.entries = entries
	g.evals = g.evals[:0]
	g.recLane = g.recLane[:0]
	g.wsum = g.wsum[:0]
	g.kids = g.kids[:0]
	g.fdeg = g.fdeg[:0]
	var out Outcome

	for {
		ev, err := g.st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			g.release()
			return Outcome{}, err
		}
		switch ev.Kind {
		case xmltree.StartEvent:
			if len(g.kids) == 0 {
				g.openRoot(ev.Name)
			} else {
				g.bumpChild()
			}
			for _, se := range g.evals {
				if se != nil {
					se.Start(ev.ID)
				}
			}
			g.sr.Start(ev.ID, ev.Name)
			g.wsum = append(g.wsum, 0)
			g.kids = append(g.kids, 0)
			g.fdeg = append(g.fdeg, false)
		case xmltree.TextEvent:
			g.bumpChild()
			for _, se := range g.evals {
				if se != nil {
					se.Text(ev.NonWS)
				}
			}
			g.sr.Text(ev.NonWS)
			// A text child has weighted size exactly 1.
			g.wsum[len(g.wsum)-1]++
		case xmltree.EndEvent:
			top := len(g.wsum) - 1
			w := 1 + g.cfg.Decay*g.wsum[top]
			g.wsum = g.wsum[:top]
			g.kids = g.kids[:top]
			out.Degraded = out.Degraded || g.fdeg[top]
			g.fdeg = g.fdeg[:top]
			for i, se := range g.evals {
				if se == nil {
					continue
				}
				v := se.End(w)
				if lane := g.recLane[i]; lane >= 0 {
					g.valids[lane] = v
				}
			}
			g.sr.End(g.valids)
			if top > 0 {
				g.wsum[top-1] += w
			}
		}
	}

	g.scores = g.scores[:0]
	for i, e := range g.entries {
		if se := g.evals[i]; se != nil {
			g.scores = append(g.scores, classify.StreamScore{Name: e.Name, Sim: se.Result().Global})
			e.Pool.PutStream(se)
			g.evals[i] = nil
		} else {
			g.scores = append(g.scores, classify.StreamScore{Name: e.Name, Gated: true})
		}
	}
	out.Scores = g.scores
	out.Consumed = g.st.Consumed()
	return out, nil
}

// openRoot decides root gating, binds the recorder lanes and borrows one
// streaming evaluator per live DTD. Runs once per document, on the root's
// Start event.
func (g *Ingestor) openRoot(rootName string) {
	g.dtds = g.dtds[:0]
	for _, e := range g.entries {
		if e.RootName != "" && e.RootName != rootName {
			g.evals = append(g.evals, nil)
			g.recLane = append(g.recLane, -1)
			continue
		}
		g.evals = append(g.evals, e.Pool.GetStream())
		g.recLane = append(g.recLane, len(g.dtds))
		g.dtds = append(g.dtds, e.DTD)
	}
	g.sr.SetLanes(g.dtds)
	g.sr.Begin()
	if cap(g.valids) < len(g.dtds) {
		g.valids = make([]bool, len(g.dtds))
	}
	g.valids = g.valids[:len(g.dtds)]
}

// bumpChild charges one kept child to the innermost open element,
// degrading it the moment the budget is crossed — before the overflowing
// child is registered, so the recorder's frame tables stop admitting new
// labels at exactly MaxChildren children.
// dtdvet:noalloc
func (g *Ingestor) bumpChild() {
	top := len(g.kids) - 1
	g.kids[top]++
	if g.cfg.MaxChildren > 0 && g.kids[top] > g.cfg.MaxChildren && !g.fdeg[top] {
		g.fdeg[top] = true
		for _, se := range g.evals {
			if se != nil {
				se.DegradeTop()
			}
		}
		g.sr.DegradeTop()
	}
}

// lane returns the recorder lane the last run kept for name: -1 for a
// root-gated DTD, whose delta was never accumulated, or a name not among
// the run's entries.
func (g *Ingestor) lane(name string) int {
	for i, e := range g.entries {
		if e.Name == name {
			return g.recLane[i]
		}
	}
	return -1
}

// Committable reports whether the last run kept a recorder lane for name.
func (g *Ingestor) Committable(name string) bool { return g.lane(name) >= 0 }

// CommitWinner interns the last run's new names, in order of first
// sighting (document order, as intern.InternDocument assigns them), and
// merges the named DTD's recorded delta into r, reproducing exactly the
// state the tree path's Record(doc) would have left. Names that another
// writer's interning moved off their provisional IDs are relabelled in the
// delta first. It reports false — with nothing interned or merged — when
// name has no lane (Committable).
func (g *Ingestor) CommitWinner(name string, r *record.Recorder) (record.DocResult, bool) {
	lane := g.lane(name)
	if lane < 0 {
		return record.DocResult{}, false
	}
	if m := g.ov.Commit(g.tab); m != nil {
		g.sr.Relabel(lane, m)
	}
	return g.sr.CommitTo(lane, r), true
}

// release returns borrowed evaluators after a failed run.
func (g *Ingestor) release() {
	for i, se := range g.evals {
		if se != nil {
			g.entries[i].Pool.PutStream(se)
			g.evals[i] = nil
		}
	}
}
