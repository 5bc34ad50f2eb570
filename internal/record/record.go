// Package record implements the paper's recording phase (§3): after a
// document has been classified against a DTD, compact structural statistics
// are extracted and attached to the DTD's element declarations — the
// "extended DTD" — so that the evolution phase never has to re-analyze
// documents.
//
// Per element declaration the extended DTD stores (paper §3.2):
//
//   - the number of valid instances and of documents containing valid
//     instances (local validity: the direct subelements meet the
//     declaration's operators);
//   - the number of non-valid instances;
//   - the set of labels found in non-valid instances and, per label, how
//     many non-valid instances contain it and in how many it is repeated;
//   - the set of "sequences" (αβ of each non-valid instance: child tag sets
//     disregarding order and repetitions) with multiplicities;
//   - the "groups": subsets of labels repeated the same number of times
//     within one instance, with a counter r;
//   - for labels that do not appear in the declaration (plus elements),
//     nested statistics of their subelements, from which the evolution
//     phase extracts a brand-new declaration (Example 5, tree (4)).
//
// Additionally — to support the old-window operator restriction (§4.1) —
// presence and repetition aggregates are kept over all instances, valid
// ones included, along with first-position order statistics used to order
// the children of rebuilt AND groups.
//
// Internally all statistics are keyed by interned label IDs (package
// intern), so the recording hot path — one recordInstance per element per
// document — hashes small integers instead of strings and allocates
// nothing at steady state. Strings reappear only at the edges: Stats,
// Snapshot and Restore convert between the ID-keyed tables and the
// exported, JSON-stable ElementStats view.
package record

import (
	"slices"
	"sort"
	"strings"

	"dtdevolve/internal/dtd"
	"dtdevolve/internal/intern"
	"dtdevolve/internal/mine"
	"dtdevolve/internal/validate"
	"dtdevolve/internal/xmltree"
)

// ElementStats is the extended-DTD data structure attached to one element
// declaration (or to a plus element discovered in documents). It is the
// exported, string-keyed view of the recorder's internal ID-keyed tables:
// Stats and Snapshot materialize it, Restore ingests it, and the evolution
// phase consumes it.
type ElementStats struct {
	// Name is the element tag these statistics describe.
	Name string
	// ValidInstances counts instances whose direct content met the
	// declaration (full local similarity).
	ValidInstances int
	// DocsWithValid counts documents containing at least one valid instance.
	DocsWithValid int
	// InvalidInstances counts instances with non-full local similarity.
	InvalidInstances int
	// Labels maps each tag found in non-valid instances to its statistics.
	Labels map[string]*LabelStats
	// Sequences maps the canonical key of each recorded child tag set to
	// the set and its multiplicity.
	Sequences map[string]*SeqStats
	// Groups maps the canonical key of each repetition group to its counter.
	Groups map[string]*GroupStats
	// PresentCount / RepeatCount aggregate over ALL instances (valid and
	// invalid): in how many instances each tag occurs at least once /
	// more than once. They drive the old-window operator restriction.
	PresentCount map[string]int
	RepeatCount  map[string]int
	// PosSum and PosCount accumulate the index of the first occurrence of
	// each tag among the instance's child elements, for ordering rebuilt
	// sequences by dominant document order.
	PosSum   map[string]float64
	PosCount map[string]int
	// TextInstances counts instances (valid or not) carrying non-whitespace
	// character data; a rebuilt declaration must then admit #PCDATA.
	TextInstances int
	// PairCount counts, per unordered tag pair, the instances containing
	// both tags; InterleavedCount counts those in which their occurrences
	// interleave (neither tag's occurrences all precede the other's).
	// Interleaving evidence drives the (x | y)* form during evolution.
	PairCount        map[string]int
	InterleavedCount map[string]int
}

// LabelStats records, for one tag l found in non-valid instances of an
// element e, the paper's per-label structural information.
type LabelStats struct {
	// InvalidWithLabel counts the non-valid instances of e containing l.
	InvalidWithLabel int
	// RepeatedInInvalid counts the non-valid instances of e in which l is
	// repeated more than once.
	RepeatedInInvalid int
	// Child holds nested statistics for the subelements of l when l does
	// not appear in e's declaration (a plus element); nil otherwise.
	Child *ElementStats
}

// SeqStats is one recorded sequence (a child tag set) with its multiplicity.
type SeqStats struct {
	Tags  []string
	Count int
}

// GroupStats is one recorded repetition group with the paper's counter r.
type GroupStats struct {
	Tags []string
	// Count is incremented each time the group is found in an instance.
	Count int
}

func newElementStats(name string) *ElementStats {
	return &ElementStats{
		Name:             name,
		Labels:           make(map[string]*LabelStats),
		Sequences:        make(map[string]*SeqStats),
		Groups:           make(map[string]*GroupStats),
		PresentCount:     make(map[string]int),
		RepeatCount:      make(map[string]int),
		PosSum:           make(map[string]float64),
		PosCount:         make(map[string]int),
		PairCount:        make(map[string]int),
		InterleavedCount: make(map[string]int),
	}
}

// TotalInstances returns the number of recorded instances of the element.
func (s *ElementStats) TotalInstances() int {
	return s.ValidInstances + s.InvalidInstances
}

// InvalidityRatio returns the paper's I(e) = m / n: the fraction of
// recorded instances whose local similarity was below 1. With no recorded
// instances it returns 0 (nothing suggests the declaration is wrong).
func (s *ElementStats) InvalidityRatio() float64 {
	n := s.TotalInstances()
	if n == 0 {
		return 0
	}
	return float64(s.InvalidInstances) / float64(n)
}

// LabelSet returns the paper's Label = ∪ αβ(e_di): all tags found in
// non-valid instances, sorted.
func (s *ElementStats) LabelSet() []string {
	out := make([]string, 0, len(s.Labels))
	for l := range s.Labels {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// Transactions exports the recorded sequences as mining transactions with
// multiplicities.
func (s *ElementStats) Transactions() []mine.Transaction {
	keys := make([]string, 0, len(s.Sequences))
	for k := range s.Sequences {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]mine.Transaction, 0, len(keys))
	for _, k := range keys {
		seq := s.Sequences[k]
		out = append(out, mine.NewTransaction(seq.Tags, seq.Count))
	}
	return out
}

// MeanFirstPosition returns the average first-occurrence index of the tag
// among instance children, used to order rebuilt groups; tags never seen
// sort last.
func (s *ElementStats) MeanFirstPosition(tag string) float64 {
	n := s.PosCount[tag]
	if n == 0 {
		return 1e9
	}
	return s.PosSum[tag] / float64(n)
}

// AlwaysPresent reports whether the tag occurred in every recorded instance.
func (s *ElementStats) AlwaysPresent(tag string) bool {
	return s.TotalInstances() > 0 && s.PresentCount[tag] == s.TotalInstances()
}

// EverRepeated reports whether the tag occurred more than once in any
// recorded instance.
func (s *ElementStats) EverRepeated(tag string) bool {
	return s.RepeatCount[tag] > 0
}

// EverPresent reports whether the tag occurred in any recorded instance.
func (s *ElementStats) EverPresent(tag string) bool {
	return s.PresentCount[tag] > 0
}

// Interleaved reports whether the two tags were ever observed interleaved
// within one instance. A single interleaved instance already falsifies any
// "all x before all y" form, so one observation is evidence enough for the
// (x | y)* shape.
func (s *ElementStats) Interleaved(x, y string) bool {
	return s.InterleavedCount[mine.Key([]string{x, y})] > 0
}

// elemStats is the recorder-internal, ID-keyed counterpart of ElementStats.
type elemStats struct {
	name          string
	valid         int
	docsWithValid int
	invalid       int
	textInstances int
	labels        map[int32]*labelAgg
	// seqs and groups are keyed by the packed bytes of their sorted ID set.
	seqs   map[string]*seqAgg
	groups map[string]*groupAgg
	// Aggregates over all instances: kids per child label, pairs per
	// unordered label pair. The maps index the rows, so an instance costs
	// one map operation per label and per pair.
	kids     map[int32]int32
	kidRows  []kidAgg
	pairs    map[pairKey]int32
	pairRows []pairAgg
	// validDoc is the last document (Recorder.docs+1 while it records)
	// counted in docsWithValid; tree recorder only.
	validDoc int
	// size counts the instances recorded here, nested ones included; the
	// streaming recorder merges the smaller of two nil-records into the
	// larger by it.
	size int
}

type labelAgg struct {
	invalidWith int
	repeated    int
	child       *elemStats
}

type seqAgg struct {
	ids   []int32 // sorted ascending
	count int
}

type groupAgg struct {
	ids   []int32 // sorted ascending
	count int
}

// kidAgg aggregates one child label over all instances: in how many it is
// present and repeated, and the sum and count of its first positions.
type kidAgg struct {
	id       int32
	present  int
	repeat   int
	posCount int
	posSum   float64
}

// pairKey identifies an unordered label pair; a < b.
type pairKey struct {
	a, b int32
}

type pairAgg struct {
	pairKey
	count       int
	interleaved int
}

func newElemStats(name string) *elemStats {
	return &elemStats{
		name:   name,
		labels: make(map[int32]*labelAgg),
		seqs:   make(map[string]*seqAgg),
		groups: make(map[string]*groupAgg),
		kids:   make(map[int32]int32),
		pairs:  make(map[pairKey]int32),
	}
}

// kid returns the all-instance aggregate row of child label id.
// dtdvet:noalloc
func (es *elemStats) kid(id int32) *kidAgg {
	i, ok := es.kids[id]
	if !ok {
		i = int32(len(es.kidRows))
		es.kidRows = append(es.kidRows, kidAgg{id: id})
		es.kids[id] = i
	}
	return &es.kidRows[i]
}

// pair returns the aggregate row of the unordered label pair {x, y}.
// dtdvet:noalloc
func (es *elemStats) pair(x, y int32) *pairAgg {
	k := pairKey{a: x, b: y}
	if y < x {
		k = pairKey{a: y, b: x}
	}
	i, ok := es.pairs[k]
	if !ok {
		i = int32(len(es.pairRows))
		es.pairRows = append(es.pairRows, pairAgg{pairKey: k})
		es.pairs[k] = i
	}
	return &es.pairRows[i]
}

func (es *elemStats) invalidityRatio() float64 {
	n := es.valid + es.invalid
	if n == 0 {
		return 0
	}
	return float64(es.invalid) / float64(n)
}

// Recorder accumulates extended-DTD statistics for one DTD over a stream of
// classified documents. It is not safe for concurrent use; the source
// engine serializes access.
type Recorder struct {
	d   *dtd.DTD
	v   *validate.Validator
	tab *intern.Table
	// elements is keyed by the interned ID of the declared element's name.
	elements map[int32]*elemStats
	docs     int
	// invalidMass is Σ over documents of (#non-valid elements / #elements),
	// the numerator of the paper's check-phase trigger condition.
	invalidMass float64
	// declared caches, per content model, its label IDs sorted; used to
	// detect plus elements without re-walking the model per instance.
	declared map[*dtd.Content][]int32
	// scratch is a free list of per-instance buffers: recordInstance
	// recurses into plus elements, and each level needs live buffers.
	scratch []*recScratch
}

// New returns an empty Recorder for d with a private symbol table. To share
// the table with classification pools (so document label stamps stay
// valid), use NewWithTable.
func New(d *dtd.DTD) *Recorder {
	return NewWithTable(d, intern.NewTable())
}

// NewWithTable returns an empty Recorder for d keying its statistics by
// tab's IDs.
func NewWithTable(d *dtd.DTD, tab *intern.Table) *Recorder {
	intern.InternDTD(tab, d)
	return &Recorder{
		d:        d,
		v:        validate.NewWithTable(d, tab),
		tab:      tab,
		elements: make(map[int32]*elemStats),
		declared: make(map[*dtd.Content][]int32),
	}
}

// DTD returns the DTD the recorder is attached to.
func (r *Recorder) DTD() *dtd.DTD { return r.d }

// Table returns the symbol table the recorder keys its statistics by.
func (r *Recorder) Table() *intern.Table { return r.tab }

// Docs returns the number of documents recorded since the last reset.
func (r *Recorder) Docs() int { return r.docs }

// id resolves the interned ID of a document element's tag: the node's
// cached LabelID when it verifiably belongs to this recorder's table, else
// a fresh intern.
// dtdvet:noalloc
func (r *Recorder) id(n *xmltree.Node) int32 {
	if id := n.LabelID(); id > 0 && r.tab.NameIs(id, n.Name) {
		return id
	}
	return r.tab.Intern(n.Name)
}

// DocResult summarizes the recording of one document.
type DocResult struct {
	// Elements is the number of element nodes in the document.
	Elements int
	// Invalid is the number of locally non-valid element nodes.
	Invalid int
}

// InvalidRatio is Invalid / Elements (0 for an empty document).
func (d DocResult) InvalidRatio() float64 {
	if d.Elements == 0 {
		return 0
	}
	return float64(d.Invalid) / float64(d.Elements)
}

// Record extracts the structural information of a classified document and
// merges it into the extended DTD.
// dtdvet:noalloc
func (r *Recorder) Record(doc *xmltree.Document) DocResult {
	return r.RecordElement(doc.Root)
}

// RecordElement records the document subtree rooted at root. The
// steady-state zero-allocation guarantee (alloc_test.go) holds because this
// path reuses pooled scratch buffers; the noalloc annotations keep the
// allocating constructs from creeping back in.
// dtdvet:noalloc
func (r *Recorder) RecordElement(root *xmltree.Node) DocResult {
	if root == nil {
		return DocResult{}
	}
	res := DocResult{}
	r.walk(root, &res)
	r.docs++
	r.invalidMass += res.InvalidRatio()
	return res
}

// dtdvet:noalloc
func (r *Recorder) walk(n *xmltree.Node, res *DocResult) {
	res.Elements++
	decl, ok := r.d.Elements[n.Name]
	if ok {
		stats := r.statsFor(r.id(n), n.Name)
		if r.recordInstance(stats, n, decl) {
			// Stamped with the document, so docsWithValid counts it once.
			if doc := r.docs + 1; stats.validDoc != doc {
				stats.validDoc = doc
				stats.docsWithValid++
			}
		} else {
			res.Invalid++
		}
	} else {
		// An element never declared in the DTD: it is non-valid by
		// definition; its structure is recorded under its parent's label
		// statistics (see recordInstance), not at the top level.
		res.Invalid++
	}
	for _, c := range n.Children {
		if c.Kind == xmltree.Element {
			r.walk(c, res)
		}
	}
}

// recScratch is one reusable set of per-instance buffers.
type recScratch struct {
	kids tally
	cl   closeScratch
}

func (r *Recorder) getScratch() *recScratch {
	if n := len(r.scratch); n > 0 {
		sc := r.scratch[n-1]
		r.scratch = r.scratch[:n-1]
		sc.kids.reset()
		return sc
	}
	return &recScratch{}
}

func (r *Recorder) putScratch(sc *recScratch) {
	r.scratch = append(r.scratch, sc)
}

// packIDs appends the little-endian bytes of ids to buf[:0], forming a map
// key for an ID set. Lookups use the m[string(buf)] no-copy idiom; only a
// first insertion materializes the key string.
func packIDs(buf []byte, ids []int32) []byte {
	buf = buf[:0]
	for _, id := range ids {
		buf = append(buf, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return buf
}

// recordInstance merges one instance of an element into stats and reports
// whether the instance was locally valid for decl.
func (r *Recorder) recordInstance(stats *elemStats, n *xmltree.Node, decl *dtd.Content) bool {
	sc := r.getScratch()
	defer r.putScratch(sc)

	// One pass over the element children: occurrence counts and first/last
	// positions, per label in first-occurrence order.
	t := &sc.kids
	idx := 0
	for _, c := range n.Children {
		if c.Kind != xmltree.Element {
			continue
		}
		id := r.id(c)
		if i := t.find(id); i >= 0 {
			s := &t.slots[i]
			s.count++
			s.last = idx
		} else {
			t.push(id, idx)
		}
		idx++
	}
	if decl != nil && r.v.LocalValid(n, decl) {
		mergeInstance(nil, stats, t, nil, n.HasText(), true, nil, false)
		return true
	}
	computeClose(t, &sc.cl)
	mergeInstance(nil, stats, t, &sc.cl, n.HasText(), false, r.declaredSet(decl), false)
	// Plus elements: record the structure of their instances so a
	// declaration can be deduced for them (paper §3.2, Example 5).
	for _, c := range n.Children {
		if c.Kind != xmltree.Element {
			continue
		}
		s := &t.slots[t.find(r.id(c))]
		if s.plus == nil {
			continue
		}
		if s.plus.child == nil {
			s.plus.child = newElemStats(r.tab.Name(s.id))
		}
		r.recordInstance(s.plus.child, c, nil)
	}
	return false
}

// declaredSet returns the cached, sorted label IDs referenced by decl; nil
// (matching nothing) for a nil model.
func (r *Recorder) declaredSet(decl *dtd.Content) []int32 {
	if decl == nil {
		return nil
	}
	if s, ok := r.declared[decl]; ok {
		return s
	}
	s := internLabels(r.tab, decl)
	r.declared[decl] = s
	return s
}

// internLabels returns the interned IDs of the labels decl references,
// sorted.
func internLabels(tab *intern.Table, decl *dtd.Content) []int32 {
	labels := decl.Labels()
	ids := make([]int32, len(labels))
	for i, l := range labels {
		ids[i] = tab.Intern(l)
	}
	slices.Sort(ids)
	return ids
}

// statsFor returns (creating if needed) the statistics entry for a declared
// element.
func (r *Recorder) statsFor(id int32, name string) *elemStats {
	s, ok := r.elements[id]
	if !ok {
		s = newElemStats(name)
		r.elements[id] = s
	}
	return s
}

// Stats returns the recorded statistics for the named element, or nil when
// no instance has been recorded. The returned view is materialized from the
// internal ID-keyed tables; it is a snapshot, not updated by later Records.
func (r *Recorder) Stats(name string) *ElementStats {
	es, ok := r.elements[r.tab.ID(name)]
	if !ok {
		return nil
	}
	return r.materialize(es)
}

// InvalidityRatio returns I(e) for the named element without materializing
// its statistics view (0 when nothing was recorded).
func (r *Recorder) InvalidityRatio(name string) float64 {
	if es, ok := r.elements[r.tab.ID(name)]; ok {
		return es.invalidityRatio()
	}
	return 0
}

// ElementNames returns the names of all elements with recorded statistics,
// sorted.
func (r *Recorder) ElementNames() []string {
	out := make([]string, 0, len(r.elements))
	for id := range r.elements {
		out = append(out, r.tab.Name(id))
	}
	sort.Strings(out)
	return out
}

// CheckRatio returns the paper's check-phase quantity:
//
//	Σ_D (#non-valid elements of D / #elements of D) / #Doc_T
//
// over the documents recorded since the last reset.
func (r *Recorder) CheckRatio() float64 {
	if r.docs == 0 {
		return 0
	}
	return r.invalidMass / float64(r.docs)
}

// ShouldEvolve reports whether the check-phase condition exceeds the
// activation threshold τ.
func (r *Recorder) ShouldEvolve(tau float64) bool {
	return r.docs > 0 && r.CheckRatio() > tau
}

// Reset clears all recorded statistics, e.g. after an evolution step.
func (r *Recorder) Reset() {
	r.elements = make(map[int32]*elemStats)
	r.docs = 0
	r.invalidMass = 0
}

// SetDTD swaps the recorder onto a new (evolved) DTD and clears statistics.
// The symbol table is kept (tables only ever grow): the new DTD's labels
// are interned into it.
func (r *Recorder) SetDTD(d *dtd.DTD) {
	r.d = d
	r.v = validate.NewWithTable(d, r.tab)
	r.declared = make(map[*dtd.Content][]int32)
	intern.InternDTD(r.tab, d)
	r.Reset()
}

// Snapshot is the serializable state of a Recorder (the extended DTD
// statistics), used by the source engine's checkpointing.
type Snapshot struct {
	Docs        int                      `json:"docs"`
	InvalidMass float64                  `json:"invalid_mass"`
	Elements    map[string]*ElementStats `json:"elements"`
}

// Snapshot exports the recorder's statistics, materializing the
// string-keyed view. The result shares no mutable state with the recorder.
func (r *Recorder) Snapshot() *Snapshot {
	elements := make(map[string]*ElementStats, len(r.elements))
	for id, es := range r.elements {
		elements[r.tab.Name(id)] = r.materialize(es)
	}
	return &Snapshot{Docs: r.docs, InvalidMass: r.invalidMass, Elements: elements}
}

// Restore replaces the recorder's statistics with a snapshot previously
// produced by Snapshot (typically after JSON round-tripping).
func (r *Recorder) Restore(s *Snapshot) {
	r.docs = s.Docs
	r.invalidMass = s.InvalidMass
	r.elements = make(map[int32]*elemStats, len(s.Elements))
	for name, es := range s.Elements {
		r.elements[r.tab.Intern(name)] = r.internalize(name, es)
	}
}

// materialize converts the internal ID-keyed statistics into the exported
// string-keyed view.
func (r *Recorder) materialize(es *elemStats) *ElementStats {
	out := newElementStats(es.name)
	out.ValidInstances = es.valid
	out.DocsWithValid = es.docsWithValid
	out.InvalidInstances = es.invalid
	out.TextInstances = es.textInstances
	for id, la := range es.labels {
		ls := &LabelStats{InvalidWithLabel: la.invalidWith, RepeatedInInvalid: la.repeated}
		if la.child != nil {
			ls.Child = r.materialize(la.child)
		}
		out.Labels[r.tab.Name(id)] = ls
	}
	for _, seq := range es.seqs {
		tags := r.sortedNames(seq.ids)
		out.Sequences[mine.Key(tags)] = &SeqStats{Tags: tags, Count: seq.count}
	}
	for _, g := range es.groups {
		tags := r.sortedNames(g.ids)
		out.Groups[mine.Key(tags)] = &GroupStats{Tags: tags, Count: g.count}
	}
	for _, k := range es.kidRows {
		name := r.tab.Name(k.id)
		out.PresentCount[name] = k.present
		if k.repeat > 0 {
			out.RepeatCount[name] = k.repeat
		}
		out.PosSum[name] = k.posSum
		out.PosCount[name] = k.posCount
	}
	for _, pa := range es.pairRows {
		key := mine.Key([]string{r.tab.Name(pa.a), r.tab.Name(pa.b)})
		out.PairCount[key] = pa.count
		if pa.interleaved > 0 {
			out.InterleavedCount[key] = pa.interleaved
		}
	}
	return out
}

// sortedNames resolves the IDs and sorts the names, matching the canonical
// tag-set order of the exported view.
func (r *Recorder) sortedNames(ids []int32) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = r.tab.Name(id)
	}
	sort.Strings(out)
	return out
}

// internalize converts an exported view (e.g. decoded from JSON) into the
// internal ID-keyed form, interning every tag it mentions.
func (r *Recorder) internalize(name string, s *ElementStats) *elemStats {
	if s.Name != "" {
		name = s.Name
	}
	es := newElemStats(name)
	es.valid = s.ValidInstances
	es.docsWithValid = s.DocsWithValid
	es.invalid = s.InvalidInstances
	es.textInstances = s.TextInstances
	for label, ls := range s.Labels {
		la := &labelAgg{invalidWith: ls.InvalidWithLabel, repeated: ls.RepeatedInInvalid}
		if ls.Child != nil {
			la.child = r.internalize(label, ls.Child)
		}
		es.labels[r.tab.Intern(label)] = la
	}
	for _, seq := range s.Sequences {
		ids := r.internIDs(seq.Tags)
		es.seqs[string(packIDs(nil, ids))] = &seqAgg{ids: ids, count: seq.Count}
	}
	for _, g := range s.Groups {
		ids := r.internIDs(g.Tags)
		es.groups[string(packIDs(nil, ids))] = &groupAgg{ids: ids, count: g.Count}
	}
	for tag, c := range s.PresentCount {
		es.kid(r.tab.Intern(tag)).present = c
	}
	for tag, c := range s.RepeatCount {
		es.kid(r.tab.Intern(tag)).repeat = c
	}
	for tag, sum := range s.PosSum {
		es.kid(r.tab.Intern(tag)).posSum = sum
	}
	for tag, c := range s.PosCount {
		es.kid(r.tab.Intern(tag)).posCount = c
	}
	for key, c := range s.PairCount {
		if a, b, ok := r.pairOf(key); ok {
			es.pair(a, b).count = c
		}
	}
	for key, c := range s.InterleavedCount {
		if a, b, ok := r.pairOf(key); ok {
			es.pair(a, b).interleaved = c
		}
	}
	return es
}

// internIDs interns the tags and returns their IDs sorted ascending.
func (r *Recorder) internIDs(tags []string) []int32 {
	ids := make([]int32, len(tags))
	for i, t := range tags {
		ids[i] = r.tab.Intern(t)
	}
	slices.Sort(ids)
	return ids
}

// pairOf parses a canonical pair key (mine.Key of two tags) back into the
// pair's IDs.
func (r *Recorder) pairOf(key string) (a, b int32, ok bool) {
	sep := strings.IndexByte(key, 0)
	if sep < 0 {
		return 0, 0, false
	}
	return r.tab.Intern(key[:sep]), r.tab.Intern(key[sep+1:]), true
}
