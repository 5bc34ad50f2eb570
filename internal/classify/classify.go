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
// only on candidates that could still win. The default mode is provably
// exact — a DTD is skipped only when a conservative upper bound on its
// attainable similarity is below both the best confirmed score and σ — and
// an approximate mode takes a fixed top-K for latency-critical serving.
//
// The package also provides the rigid validator-based classifier the paper
// argues against ("classification based on validators is very rigid, with a
// boolean answer"), used as the baseline of experiment E1.
package classify

import (
	"math"
	"runtime"
	"sort"
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
// concurrent use: classification runs under a read lock, scores candidates
// on a bounded worker pool with evaluators drawn from per-DTD
// similarity.Pools, and index updates take the write lock.
type Classifier struct {
	sigma    float64
	cfg      similarity.Config
	tab      *intern.Table
	depthCap int
	// prunable: the configuration admits sound upper bounds (exact tag
	// matching, sane weights). When false every classification scores
	// exhaustively, as the pre-index classifier did.
	prunable bool
	// slots admits helper goroutines for candidate scoring. The budget is
	// per-classifier and shared by every concurrent classification, so a
	// GOMAXPROCS-wide ingest batch cannot fan out more than cap(slots)
	// helpers in total — the caller always scores on its own goroutine.
	slots chan struct{}

	classifications atomic.Int64
	possible        atomic.Int64
	candidates      atomic.Int64
	scored          atomic.Int64
	pruned          atomic.Int64

	mu       sync.RWMutex
	dtds     map[string]*dtd.DTD // dtdvet:guarded_by mu
	sigs     map[string]*dtdSig  // dtdvet:guarded_by mu
	postings map[int32][]*dtdSig // dtdvet:guarded_by mu -- inverted index: label ID → signatures of DTDs whose alphabet has it
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
	return &Classifier{
		sigma:    sigma,
		cfg:      cfg,
		tab:      tab,
		depthCap: cfg.DepthCap(),
		prunable: cfg.TagSimilarity == nil && cfg.CommonWeight > 0 &&
			cfg.PlusWeight >= 0 && cfg.MinusWeight >= 0 &&
			cfg.Decay > 0 && cfg.Decay <= 1,
		slots:    make(chan struct{}, runtime.GOMAXPROCS(0)),
		dtds:     make(map[string]*dtd.DTD),
		sigs:     make(map[string]*dtdSig),
		postings: make(map[int32][]*dtdSig),
	}
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
	if old, ok := c.sigs[name]; ok {
		c.unindexLocked(old)
	}
	c.dtds[name] = d
	c.sigs[name] = sig
	c.indexLocked(sig)
}

// Remove deletes the DTD registered under name.
func (c *Classifier) Remove(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.sigs[name]; ok {
		c.unindexLocked(old)
	}
	delete(c.dtds, name)
	delete(c.sigs, name)
}

// indexLocked adds one posting per alphabet label of g.
// dtdvet:requires mu
func (c *Classifier) indexLocked(g *dtdSig) {
	for _, id := range g.labels {
		c.postings[id] = append(c.postings[id], g)
	}
}

// unindexLocked removes g's postings. Swap-remove: order within a posting
// list is irrelevant, candidates are re-ranked per query.
// dtdvet:requires mu
func (c *Classifier) unindexLocked(g *dtdSig) {
	for _, id := range g.labels {
		list := c.postings[id]
		for i, e := range list {
			if e == g {
				list[i] = list[len(list)-1]
				list = list[:len(list)-1]
				break
			}
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
	out := make([]string, 0, len(c.dtds))
	for name := range c.dtds {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// DTD returns the DTD registered under name, or nil.
func (c *Classifier) DTD(name string) *dtd.DTD {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.dtds[name]
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

// scoreEntry is one planned candidate. Entries are claimed by exactly one
// scoring worker (via an atomic cursor), which is the only writer of the
// mutable fields until the pool is joined.
type scoreEntry struct {
	sig *dtdSig
	// ub is the similarity upper bound that admitted the candidate; 1 on
	// the exhaustive path.
	ub float64
	// doc/acc carry the signature context for lazy bound refinement; doc
	// is nil on the exhaustive path.
	doc     *docSig
	acc     float64
	refined bool
	scored  bool
	sim     float64
}

// dtdvet:requires mu:r
func (c *Classifier) classifyLocked(root *xmltree.Node, exhaustive bool) Result {
	c.classifications.Add(1)
	c.possible.Add(int64(len(c.sigs)))
	var plan []*scoreEntry
	prune := false
	if exhaustive || !c.prunable {
		plan = c.fullPlanLocked(root)
	} else {
		sig := extractSig(root, c.tab.View(), c.cfg.Decay, c.depthCap)
		plan = c.candidatePlanLocked(sig)
		c.candidates.Add(int64(len(plan)))
		prune = true
	}
	c.scorePlan(plan, root, prune)
	return c.foldLocked(plan, exhaustive)
}

// fullPlanLocked plans every registered DTD, with the declared-root gate
// the exhaustive path has always had: a DTD with a declared root only
// matches documents rooted there, scored 0 with no alignment.
// dtdvet:requires mu:r
func (c *Classifier) fullPlanLocked(root *xmltree.Node) []*scoreEntry {
	plan := make([]*scoreEntry, 0, len(c.sigs))
	for _, g := range c.sigs {
		e := &scoreEntry{sig: g, ub: 1}
		if !(g.rootName == "" || root == nil || g.rootName == root.Name) {
			e.scored = true // root mismatch: similarity 0, no alignment
		}
		plan = append(plan, e)
	}
	return plan
}

// candidatePlanLocked ranks the DTDs structurally overlapping the
// document: the postings of every distinct document label accumulate
// overlap weight per DTD, the root gates drop DTDs that would score 0
// anyway, and survivors are ordered best bound first so the confirmed
// score rises as fast as possible.
// dtdvet:requires mu:r
func (c *Classifier) candidatePlanLocked(s *docSig) []*scoreEntry {
	if s.rootID == intern.None {
		// The root tag was never interned, so no DTD declares it and every
		// similarity is 0.
		return nil
	}
	acc := make(map[*dtdSig]float64)
	for i, id := range s.labels {
		for _, g := range c.postings[id] {
			acc[g] += s.labelW[i]
		}
	}
	plan := make([]*scoreEntry, 0, len(acc))
	for g, w := range acc {
		if !g.declared.has(s.rootID) {
			continue // root tag undeclared by g: similarity 0
		}
		if g.rootName != "" && g.rootName != s.rootName {
			continue // declared-root gate
		}
		plan = append(plan, &scoreEntry{sig: g, ub: g.ubFlat(s, w), doc: s, acc: w})
	}
	sort.Slice(plan, func(i, j int) bool {
		if plan[i].ub != plan[j].ub {
			return plan[i].ub > plan[j].ub
		}
		return plan[i].sig.name < plan[j].sig.name
	})
	return plan
}

// boundEps absorbs floating-point divergence between the bound's and the
// aligner's summation orders; a skip must clear it.
const boundEps = 1e-9

// scorePlan runs the DP alignment for every planned entry not provably
// beaten. The caller always scores on its own goroutine; helpers join
// only as the classifier-wide slots budget admits, claiming entries in
// plan order through an atomic cursor.
func (c *Classifier) scorePlan(plan []*scoreEntry, root *xmltree.Node, prune bool) {
	if len(plan) == 0 {
		return
	}
	var cursor atomic.Int64
	cursor.Store(-1)
	var best atomic.Uint64 // Float64bits of the best confirmed similarity
	work := func() {
		for {
			i := int(cursor.Add(1))
			if i >= len(plan) {
				return
			}
			e := plan[i]
			if e.scored {
				continue // pre-gated to 0
			}
			if prune && c.skipEntry(e, &best) {
				continue
			}
			e.sim = e.sig.pool.GlobalSim(root)
			e.scored = true
			c.scored.Add(1)
			for {
				cur := best.Load()
				if e.sim <= math.Float64frombits(cur) {
					break
				}
				if best.CompareAndSwap(cur, math.Float64bits(e.sim)) {
					break
				}
			}
		}
	}
	var wg sync.WaitGroup
	for helpers := 0; helpers < len(plan)-1; helpers++ {
		select {
		case c.slots <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-c.slots }()
				work()
			}()
			continue
		default:
		}
		break
	}
	work()
	wg.Wait()
}

// skipEntry reports whether e can be skipped without changing the result:
// its upper bound is strictly below both the best confirmed similarity
// (the winner cannot change — the best only rises) and σ (the classified
// bit cannot change). Before giving up on a skip, the flat bound is
// refined once with the pair and depth profiles.
func (c *Classifier) skipEntry(e *scoreEntry, best *atomic.Uint64) bool {
	for {
		limit := math.Float64frombits(best.Load())
		if c.sigma < limit {
			limit = c.sigma
		}
		if e.ub < limit-boundEps {
			c.pruned.Add(1)
			return true
		}
		if e.refined || e.doc == nil {
			return false
		}
		e.refined = true
		if ub := e.sig.ubRefined(e.doc, e.acc); ub < e.ub {
			e.ub = ub
		}
	}
}

// foldLocked folds the scored entries into a Result in sorted name order,
// so ties break toward the lexicographically smallest name exactly as
// exhaustive scoring always has. Every DTD attaining the maximum is
// guaranteed scored (a skip requires the bound to be strictly below the
// best), so folding the scored subset is equivalent to folding all.
// dtdvet:requires mu:r
func (c *Classifier) foldLocked(plan []*scoreEntry, fillAll bool) Result {
	sort.Slice(plan, func(i, j int) bool { return plan[i].sig.name < plan[j].sig.name })
	var res Result
	for _, e := range plan {
		if !e.scored {
			continue
		}
		if e.sim > res.Similarity || res.DTDName == "" {
			res.Similarity = e.sim
			res.DTDName = e.sig.name
		}
	}
	if res.Similarity == 0 {
		// All-zero similarities: exhaustive scoring reports the first
		// registered name, whether or not the index scored it.
		res.DTDName = c.minNameLocked()
	}
	res.Classified = res.DTDName != "" && res.Similarity >= c.sigma
	res.Candidates = make([]Candidate, 0, len(plan))
	for _, e := range plan {
		if e.scored {
			res.Candidates = append(res.Candidates, Candidate{Name: e.sig.name, Similarity: e.sim})
		}
	}
	sort.Slice(res.Candidates, func(i, j int) bool {
		if res.Candidates[i].Similarity != res.Candidates[j].Similarity {
			return res.Candidates[i].Similarity > res.Candidates[j].Similarity
		}
		return res.Candidates[i].Name < res.Candidates[j].Name
	})
	if fillAll {
		res.All = make(map[string]float64, len(plan))
		for _, e := range plan {
			res.All[e.sig.name] = e.sim
		}
	}
	return res
}

// dtdvet:requires mu:r
func (c *Classifier) minNameLocked() string {
	min := ""
	for name := range c.dtds {
		if min == "" || name < min {
			min = name
		}
	}
	return min
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
		g := c.sigs[name]
		out = append(out, StreamEntry{Name: name, RootName: g.rootName, Pool: g.pool, DTD: g.d})
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
		// minNameLocked over the same snapshot.
		res.DTDName = scores[0].Name
	}
	res.Classified = res.DTDName != "" && res.Similarity >= c.sigma
	res.Candidates = make([]Candidate, 0, len(scores))
	for _, e := range scores {
		res.Candidates = append(res.Candidates, Candidate{Name: e.Name, Similarity: e.Sim})
	}
	sort.Slice(res.Candidates, func(i, j int) bool {
		if res.Candidates[i].Similarity != res.Candidates[j].Similarity {
			return res.Candidates[i].Similarity > res.Candidates[j].Similarity
		}
		return res.Candidates[i].Name < res.Candidates[j].Name
	})
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
