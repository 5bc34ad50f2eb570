// Package classify implements the paper's classification phase: an
// incoming document is matched against the DTDs of the source, and is
// associated with the DTD yielding the highest structural similarity,
// provided that similarity reaches the threshold σ; otherwise the document
// is destined for the repository of unclassified documents.
//
// The paper scores every document against every DTD — fine for a 5-DTD
// experiment, ruinous for a registry of thousands. The Classifier instead
// maintains a candidate-pruning index (DESIGN.md §12): per-DTD structural
// signatures over interned label IDs in an inverted index, so a
// classification extracts the document's signature in one cheap pass,
// ranks DTDs by signature overlap, and runs the expensive DP alignment
// only on candidates that could still win. It is provably exact: a DTD is
// skipped only when a conservative upper bound on its attainable
// similarity is below both the best confirmed score and σ.
//
// The package also provides the rigid validator-based classifier the paper
// argues against ("classification based on validators is very rigid, with a
// boolean answer"), used as the baseline of experiment E1.
package classify

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"dtdevolve/internal/dtd"
	"dtdevolve/internal/intern"
	"dtdevolve/internal/similarity"
	"dtdevolve/internal/validate"
	"dtdevolve/internal/xmltree"
)

// Candidate is one scored DTD of a classification.
type Candidate struct {
	Name       string  `json:"dtd"`
	Similarity float64 `json:"similarity"`
}

// Result is the outcome of classifying one document.
type Result struct {
	// DTDName is the best-matching DTD (empty when the set is empty).
	DTDName string
	// Similarity is the best global similarity value.
	Similarity float64
	// Classified reports whether Similarity reached the threshold σ.
	Classified bool
	// Candidates holds the DTDs the classifier actually scored, best
	// first (similarity descending, ties by name). Under the candidate
	// index this is a handful of entries, not one per registered DTD.
	Candidates []Candidate
	// All maps every registered DTD to its similarity. Classify leaves it
	// nil — materializing O(#DTDs) scores per document is exactly the cost
	// the index avoids — and only ClassifyExhaustive fills it.
	All map[string]float64
}

// Stats are cumulative classification counters, all monotone.
type Stats struct {
	// Classifications counts ClassifyElement/ClassifyExhaustive calls.
	Classifications int64
	// Possible is what exhaustive scoring would have cost: one DP
	// alignment per registered DTD per classification.
	Possible int64
	// Candidates is how many DTDs survived the signature prefilter
	// (pruned modes only).
	Candidates int64
	// Scored is how many DP alignments actually ran.
	Scored int64
	// Pruned is how many surviving candidates were skipped because their
	// upper bound was below both the best confirmed score and σ.
	Pruned int64
}

// PruneRatio is the fraction of exhaustive-mode alignments the index
// avoided, in [0, 1].
func (s Stats) PruneRatio() float64 {
	if s.Possible == 0 {
		return 0
	}
	return 1 - float64(s.Scored)/float64(s.Possible)
}

// Classifier matches documents against a set of named DTDs by structural
// similarity through the candidate-pruning index. It is safe for
// concurrent use: classification runs under a read lock and scores its
// candidates on the calling goroutine, with evaluators drawn from per-DTD
// similarity.Pools; index updates take the write lock.
type Classifier struct {
	sigma    float64
	cfg      similarity.Config
	tab      *intern.Table
	depthCap int
	// prunable: the configuration admits sound upper bounds (exact tag
	// matching, sane weights). When false every classification scores
	// exhaustively, as the pre-index classifier did.
	prunable bool
	// workspaces pools the *workspace storage of classifications.
	workspaces sync.Pool

	classifications atomic.Int64
	possible        atomic.Int64
	candidates      atomic.Int64
	scored          atomic.Int64
	pruned          atomic.Int64

	// Every registered DTD owns a dense slot, reused after Remove; heads
	// and sigs are indexed by slot, and a free slot's signature is nil.
	mu       sync.RWMutex
	slotOf   map[string]int32  // dtdvet:guarded_by mu
	heads    []slotHead        // dtdvet:guarded_by mu
	sigs     []*dtdSig         // dtdvet:guarded_by mu
	free     []int32           // dtdvet:guarded_by mu
	postings map[int32][]int32 // dtdvet:guarded_by mu -- inverted index: label ID → slots of DTDs whose alphabet has it
	minName  string            // dtdvet:guarded_by mu -- smallest registered name, the winner of an all-zero fold
}

// New returns a Classifier with threshold σ and measure configuration cfg,
// interning labels into a private symbol table.
func New(sigma float64, cfg similarity.Config) *Classifier {
	return NewWithTable(sigma, cfg, intern.NewTable())
}

// NewWithTable is New with a caller-provided symbol table, shared by the
// evaluator pools of every registered DTD. The source engine passes the
// same table to its recorders, so the label IDs it stamps on documents
// stay valid across classification and recording.
func NewWithTable(sigma float64, cfg similarity.Config, tab *intern.Table) *Classifier {
	c := &Classifier{
		sigma:    sigma,
		cfg:      cfg,
		tab:      tab,
		depthCap: cfg.DepthCap(),
		prunable: cfg.TagSimilarity == nil && cfg.CommonWeight > 0 &&
			cfg.PlusWeight >= 0 && cfg.MinusWeight >= 0 &&
			cfg.Decay > 0 && cfg.Decay <= 1,
		slotOf:   make(map[string]int32),
		postings: make(map[int32][]int32),
	}
	c.workspaces.New = func() any { return new(workspace) }
	return c
}

// Sigma returns the classification threshold.
func (c *Classifier) Sigma() float64 { return c.sigma }

// Table returns the symbol table shared by the classifier's pools.
func (c *Classifier) Table() *intern.Table { return c.tab }

// Stats returns a snapshot of the cumulative classification counters.
func (c *Classifier) Stats() Stats {
	return Stats{
		Classifications: c.classifications.Load(),
		Possible:        c.possible.Load(),
		Candidates:      c.candidates.Load(),
		Scored:          c.scored.Load(),
		Pruned:          c.pruned.Load(),
	}
}

// Set adds or replaces the DTD registered under name, precompiling its
// evaluator pool and structural signature. The DTD must not be mutated
// afterwards; to evolve it, call Set again with the replacement.
func (c *Classifier) Set(name string, d *dtd.DTD) {
	pool := similarity.NewPoolWithTable(d, c.cfg, c.tab) // precompile outside the lock
	sig := buildSig(name, d, pool)                       // and the signature too
	c.mu.Lock()
	defer c.mu.Unlock()
	c.setLocked(sig)
}

// setLocked registers g under its name, in the slot the name holds or else
// a free one, and adds one posting per alphabet label.
// dtdvet:requires mu
func (c *Classifier) setLocked(g *dtdSig) {
	slot, ok := c.slotOf[g.name]
	switch {
	case ok:
		c.unindexLocked(slot)
	case len(c.free) > 0:
		slot = c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
	default:
		slot = int32(len(c.sigs))
		c.sigs = append(c.sigs, nil)
		c.heads = append(c.heads, slotHead{})
	}
	if !ok {
		c.slotOf[g.name] = slot
		if c.minName == "" || g.name < c.minName {
			c.minName = g.name
		}
	}
	c.sigs[slot], c.heads[slot] = g, g.slotHead
	for _, id := range g.labels {
		c.postings[id] = append(c.postings[id], slot)
	}
}

// Remove deletes the DTD registered under name.
func (c *Classifier) Remove(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	slot, ok := c.slotOf[name]
	if !ok {
		return
	}
	c.unindexLocked(slot)
	delete(c.slotOf, name)
	c.sigs[slot], c.heads[slot] = nil, slotHead{}
	c.free = append(c.free, slot)
	if name == c.minName {
		c.minName = ""
		for n := range c.slotOf {
			if c.minName == "" || n < c.minName {
				c.minName = n
			}
		}
	}
}

// unindexLocked removes the postings of the DTD in slot. Swap-remove:
// order within a posting list is irrelevant, candidates are re-ranked per
// query.
// dtdvet:requires mu
func (c *Classifier) unindexLocked(slot int32) {
	for _, id := range c.sigs[slot].labels {
		list := c.postings[id]
		if i := slices.Index(list, slot); i >= 0 {
			list[i] = list[len(list)-1]
			list = list[:len(list)-1]
		}
		if len(list) == 0 {
			delete(c.postings, id)
		} else {
			c.postings[id] = list
		}
	}
}

// Names returns the registered DTD names, sorted.
func (c *Classifier) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.namesLocked()
}

// dtdvet:requires mu:r
func (c *Classifier) namesLocked() []string {
	out := make([]string, 0, len(c.slotOf))
	for name := range c.slotOf {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// DTD returns the DTD registered under name, or nil.
func (c *Classifier) DTD(name string) *dtd.DTD {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if slot, ok := c.slotOf[name]; ok {
		return c.sigs[slot].d
	}
	return nil
}

// Classify evaluates the document through the candidate index and returns
// the best match. Ties break deterministically by DTD name.
func (c *Classifier) Classify(doc *xmltree.Document) Result {
	return c.ClassifyElement(doc.Root)
}

// ClassifyElement classifies the document subtree rooted at root. In the
// exact mode (the default) the result — winner, score and classified bit —
// is identical to exhaustive scoring; only the work differs.
func (c *Classifier) ClassifyElement(root *xmltree.Node) Result {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.classifyLocked(root, false)
}

// ClassifyExhaustive scores the document against every registered DTD,
// bypassing the candidate index, and fills Result.All. It is the oracle
// the equivalence tests compare the index against, and the opt-in for
// callers that genuinely want every score.
func (c *Classifier) ClassifyExhaustive(doc *xmltree.Document) Result {
	return c.ClassifyExhaustiveElement(doc.Root)
}

// ClassifyExhaustiveElement is ClassifyExhaustive on a bare subtree.
func (c *Classifier) ClassifyExhaustiveElement(root *xmltree.Node) Result {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.classifyLocked(root, true)
}

// workspace is the working storage of one classification, pooled so that a
// classification allocates nothing per candidate: the document signature's
// buffers, the slot-indexed overlap accumulator and the plan.
type workspace struct {
	sig sigBuf
	// acc[slot] is the document weight on labels the slot's DTD knows.
	// hit marks the slots touched so far, listed in touched; acc cannot
	// mark them itself, because decay^ℓ may underflow to 0.
	acc     []float64
	hit     []bool
	touched []int32
	plan    []planEntry
}

// planEntry is one planned candidate.
type planEntry struct {
	slot   int32
	scored bool
	// ub is the similarity upper bound that admitted the candidate (1 on
	// the exhaustive path), and acc the overlap weight it came from.
	ub, acc float64
	sim     float64
}

// dtdvet:requires mu:r
func (c *Classifier) classifyLocked(root *xmltree.Node, exhaustive bool) Result {
	c.classifications.Add(1)
	c.possible.Add(int64(len(c.slotOf)))
	ws := c.workspaces.Get().(*workspace)
	defer c.workspaces.Put(ws)
	var sig *docSig // nil: score every planned entry
	if exhaustive || !c.prunable {
		c.fullPlanLocked(ws, root)
	} else {
		sig = ws.sig.extractSig(root, c.tab.View(), c.cfg.Decay, c.depthCap)
		c.candidatePlanLocked(ws, sig)
		c.candidates.Add(int64(len(ws.plan)))
	}
	c.scorePlanLocked(ws.plan, root, sig)
	return c.foldLocked(ws.plan, exhaustive)
}

// fullPlanLocked plans every registered DTD, with the declared-root gate
// the exhaustive path has always had: a DTD with a declared root only
// matches documents rooted there, scored 0 with no alignment.
// dtdvet:requires mu:r
func (c *Classifier) fullPlanLocked(ws *workspace, root *xmltree.Node) {
	ws.plan = ws.plan[:0]
	for slot, g := range c.sigs {
		if g == nil {
			continue
		}
		e := planEntry{slot: int32(slot), ub: 1}
		if !(g.d.Name == "" || root == nil || g.d.Name == root.Name) {
			e.scored = true // root mismatch: similarity 0, no alignment
		}
		ws.plan = append(ws.plan, e)
	}
}

// candidatePlanLocked ranks the DTDs structurally overlapping the
// document: the postings of every distinct document label accumulate
// overlap weight per slot, the root gates drop DTDs that would score 0
// anyway, and survivors are ordered best bound first so the confirmed
// score rises as fast as possible.
// dtdvet:requires mu:r
func (c *Classifier) candidatePlanLocked(ws *workspace, s *docSig) {
	ws.plan = ws.plan[:0]
	if s.rootID == intern.None {
		// The root tag was never interned, so no DTD declares it and every
		// similarity is 0.
		return
	}
	if n := len(c.heads) - len(ws.hit); n > 0 {
		ws.acc = append(ws.acc, make([]float64, n)...)
		ws.hit = append(ws.hit, make([]bool, n)...)
	}
	ws.touched = ws.touched[:0]
	for i, id := range s.labels {
		for _, slot := range c.postings[id] {
			if !ws.hit[slot] {
				ws.hit[slot] = true
				ws.acc[slot] = 0
				ws.touched = append(ws.touched, slot)
			}
			ws.acc[slot] += s.labelW[i]
		}
	}
	heads := c.heads
	for _, slot := range ws.touched {
		ws.hit[slot] = false
		h := &heads[slot]
		if h.gate != s.rootID && (h.gate != 0 || !c.sigs[slot].declares(s.rootID)) {
			continue // root gate: similarity 0
		}
		acc := ws.acc[slot]
		ws.plan = append(ws.plan, planEntry{slot: slot, ub: h.ubFlat(s, acc), acc: acc})
	}
	slices.SortFunc(ws.plan, func(a, b planEntry) int {
		return rank(a.ub, heads[a.slot].name, b.ub, heads[b.slot].name)
	})
}

// rank orders (value, name) pairs best first: value descending, ties by
// name.
func rank(av float64, an string, bv float64, bn string) int {
	switch {
	case av > bv:
		return -1
	case av < bv:
		return 1
	}
	return strings.Compare(an, bn)
}

// byScore orders candidates best first, the order of Result.Candidates.
func byScore(a, b Candidate) int {
	return rank(a.Similarity, a.Name, b.Similarity, b.Name)
}

// boundEps absorbs floating-point divergence between the bound's and the
// aligner's summation orders; a skip must clear it.
const boundEps = 1e-9

// scorePlanLocked runs the DP alignment, in plan order, for every planned
// entry not provably beaten; with a nil s it scores them all.
// dtdvet:requires mu:r
func (c *Classifier) scorePlanLocked(plan []planEntry, root *xmltree.Node, s *docSig) {
	best := 0.0 // the best confirmed similarity
	for i := range plan {
		e := &plan[i]
		g := c.sigs[e.slot]
		if e.scored || s != nil && c.skipEntry(e, g, s, best) {
			continue // pre-gated to 0, or provably beaten
		}
		e.sim, e.scored = g.pool.GlobalSim(root), true
		c.scored.Add(1)
		best = max(best, e.sim)
	}
}

// skipEntry reports whether e, planned for g, can be skipped without
// changing the result: its upper bound is strictly below both the best
// confirmed similarity (the winner cannot change — the best only rises)
// and σ (the classified bit cannot change). Before giving up on a skip,
// the flat bound is refined with the pair and depth profiles of the
// document's signature s.
func (c *Classifier) skipEntry(e *planEntry, g *dtdSig, s *docSig, best float64) bool {
	limit := best
	if c.sigma < limit {
		limit = c.sigma
	}
	limit -= boundEps
	if e.ub < limit || g.ubRefined(s, e.acc) < limit {
		c.pruned.Add(1)
		return true
	}
	return false
}

// foldLocked folds the scored entries into a Result. Sorted best first,
// the first candidate is the winner, ties broken toward the
// lexicographically smallest name exactly as exhaustive scoring always
// has. Every DTD attaining the maximum is guaranteed scored (a skip
// requires the bound to be strictly below the best), so folding the scored
// subset is equivalent to folding all.
// dtdvet:requires mu:r
func (c *Classifier) foldLocked(plan []planEntry, fillAll bool) Result {
	scored := plan[:0]
	for _, e := range plan {
		if e.scored {
			scored = append(scored, e)
		}
	}
	res := Result{Candidates: make([]Candidate, len(scored))}
	for i, e := range scored {
		res.Candidates[i] = Candidate{Name: c.heads[e.slot].name, Similarity: e.sim}
	}
	slices.SortFunc(res.Candidates, byScore)
	if len(res.Candidates) > 0 {
		res.DTDName, res.Similarity = res.Candidates[0].Name, res.Candidates[0].Similarity
	}
	if res.Similarity == 0 {
		// All-zero similarities: exhaustive scoring reports the first
		// registered name, whether or not the index scored it.
		res.DTDName = c.minName
	}
	res.Classified = res.DTDName != "" && res.Similarity >= c.sigma
	if fillAll {
		res.All = make(map[string]float64, len(res.Candidates))
		for _, cand := range res.Candidates {
			res.All[cand.Name] = cand.Similarity
		}
	}
	return res
}

// StreamEntry is one registered DTD exposed to the streaming ingest path:
// the pieces a stream consumer needs to score a document incrementally
// (the evaluator pool, the declared-root gate, and the DTD for the
// recorder lane).
type StreamEntry struct {
	Name     string
	RootName string // declared root ("" gates nothing)
	Pool     *similarity.Pool
	DTD      *dtd.DTD
}

// StreamEntries snapshots the registered DTDs sorted by name — the lane
// order of a streamed classification, matching foldLocked's tie-break
// order.
func (c *Classifier) StreamEntries() []StreamEntry {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]StreamEntry, 0, len(c.sigs))
	for _, name := range c.namesLocked() {
		g := c.sigs[c.slotOf[name]]
		out = append(out, StreamEntry{Name: name, RootName: g.d.Name, Pool: g.pool, DTD: g.d})
	}
	return out
}

// StreamScore is one lane's outcome of a streamed classification.
type StreamScore struct {
	Name string
	Sim  float64
	// Gated reports that the declared-root gate pre-scored the DTD to 0
	// without running the alignment.
	Gated bool
}

// FoldStream folds per-lane scores from the streaming path into a Result,
// bumping the classification counters. scores must be sorted by name (the
// StreamEntries order); the fold then reproduces foldLocked exactly — the
// winner is the highest similarity with ties toward the smallest name, an
// all-zero fold reports the smallest name, and Classified applies σ.
func (c *Classifier) FoldStream(scores []StreamScore) Result {
	c.classifications.Add(1)
	c.possible.Add(int64(len(scores)))
	var res Result
	for _, e := range scores {
		if !e.Gated {
			c.scored.Add(1)
		}
		if e.Sim > res.Similarity || res.DTDName == "" {
			res.Similarity = e.Sim
			res.DTDName = e.Name
		}
	}
	if res.Similarity == 0 && len(scores) > 0 {
		// Sorted input: the smallest name is the first entry, matching
		// the classifier's smallest registered name over the same snapshot.
		res.DTDName = scores[0].Name
	}
	res.Classified = res.DTDName != "" && res.Similarity >= c.sigma
	res.Candidates = make([]Candidate, 0, len(scores))
	for _, e := range scores {
		res.Candidates = append(res.Candidates, Candidate{Name: e.Name, Similarity: e.Sim})
	}
	slices.SortFunc(res.Candidates, byScore)
	return res
}

// ValidatorClassifier is the boolean baseline: a document is associated
// with a DTD only when it is strictly valid for it. Heterogeneous documents
// are rejected outright, which is the loss of information the paper's
// similarity-based approach avoids.
type ValidatorClassifier struct {
	names      []string
	validators map[string]*validate.Validator
}

// NewValidator returns a ValidatorClassifier over the given DTD set.
func NewValidator(dtds map[string]*dtd.DTD) *ValidatorClassifier {
	c := &ValidatorClassifier{validators: make(map[string]*validate.Validator, len(dtds))}
	for name, d := range dtds {
		c.names = append(c.names, name)
		c.validators[name] = validate.New(d)
	}
	sort.Strings(c.names)
	return c
}

// Classify returns the first DTD (in name order) for which the document is
// valid — including the root-element check — and whether any matched.
func (c *ValidatorClassifier) Classify(doc *xmltree.Document) (string, bool) {
	for _, name := range c.names {
		if len(c.validators[name].ValidateDocument(doc)) == 0 {
			return name, true
		}
	}
	return "", false
}
