package record

// Streaming recording (DESIGN.md §15). The tree path records a document
// after classification by walking the materialized *xmltree.Node tree
// (Recorder.Record). The streaming path cannot buffer the document — the
// winner DTD is only known once the root closes — so a StreamRecorder
// records speculatively: it keeps one DTD-independent child tally per open
// element (the one recordInstance fills in its one-pass loop) plus one
// delta lane per registered DTD, and at commit time merges only the
// winning lane's delta into that DTD's Recorder. Both paths fold a tally
// into statistics through mergeInstance, and the merged statistics are
// bit-identical to Record(doc) on the winner (stream_test.go pins this
// over the corpus and generated documents): every counter is an exact
// integer sum, and the only float accumulator (posSum) adds integer-valued
// terms, so merge order cannot perturb it.
//
// Memory is bounded by the open-element path, the number of distinct
// labels per element (capped by the caller's max-children budget via
// DegradeTop) and the schema-sized delta tables — never by document
// length. The nil-record machinery replaces recordInstance's recursion
// into already-closed plus-element children: a closing element folds its
// instance, under a nil declaration, into the nil-record of its label's
// slot in the parent's tally, and an invalid instance folds that record
// into Labels[l].Child for each undeclared label l — exactly the sum
// recordInstance would have computed child by child.
//
// Only the nil-records some lane can read are built, as Start decides for
// each element (needsNil): those of a parent whose own nil-record is
// needed (a nil-record reads every entry), and those under a label that
// some lane's declaration of the parent lacks (an invalid instance reads
// exactly those). The rule deliberately ignores validity: DegradeTop can
// invalidate an element after its children have closed, and an ANY
// element is valid only until it degrades, so whether an entry will be
// read is unknown until the parent closes. The parent's nil-record is the
// last reader of its children's: it takes them over instead of copying
// them, merging the smaller into the larger when it already holds one, so
// a chain of plus elements records in linear time.
//
// Every lane resolves an element's declaration once, at Start, by the
// element's ID; the frame keeps the resolution for the per-child reads.
// All per-close structures are pooled, and seq/group map keys are interned
// in a per-StreamRecorder cache, so the steady-state per-event loop
// allocates nothing once the document's shapes have been seen (alloc gate:
// BenchmarkStreamIngest).

import (
	"slices"

	"dtdevolve/internal/dtd"
	"dtdevolve/internal/intern"
)

// recFrame is the DTD-independent aggregate of one open element: the
// child tally recordInstance fills in its one-pass loop, whose slots also
// carry the nil-records feeding plus-element statistics, and each lane's
// resolution of the element.
type recFrame struct {
	id   int32
	name string
	kids tally
	// decls is each lane's resolution of the element, made at Start.
	decls []*laneDecl
	// idx is the element-child index (text children do not advance it).
	idx      int
	hasText  bool
	degraded bool
	// needNil reports whether this element's nil-record is folded into its
	// parent's tally at close (decided at Start).
	needNil bool
}

// laneDecl is one lane's resolution of an element name: whether its DTD
// declares it, the declaration's labels, and the document's delta.
type laneDecl struct {
	id int32
	ok bool
	// declared lists the interned labels of the declaration, sorted.
	declared []int32
	// delta holds this document's instances; nil until the first closes.
	delta *elemStats
}

// RecLane accumulates the recording delta of the current document against
// one DTD. Deltas are private to the lane until CommitTo merges them into
// a Recorder, so lanes can be filled without holding the source lock.
type RecLane struct {
	d   *dtd.DTD
	tab *intern.Table
	// decls caches the lane's resolution of the declared elements it has
	// seen, by ID; the lane's own cache, never the Recorder's (which is
	// lock-guarded).
	decls map[int32]*laneDecl
	// touched lists the resolutions holding a delta this document.
	touched []*laneDecl
	invalid int
}

func newRecLane(d *dtd.DTD, tab *intern.Table) *RecLane {
	return &RecLane{d: d, tab: tab, decls: make(map[int32]*laneDecl)}
}

// DTD returns the DTD this lane records against.
func (l *RecLane) DTD() *dtd.DTD { return l.d }

func (l *RecLane) reset(sr *StreamRecorder) {
	for _, ld := range l.touched {
		sr.putStats(ld.delta)
		ld.delta = nil
	}
	l.touched = l.touched[:0]
	l.invalid = 0
}

// undeclared is every lane's resolution of a name its DTD does not
// declare. It is never written, and such names are not cached, so a
// lane's cache stays sized by its DTD whatever labels documents bring.
var undeclared = &laneDecl{}

// resolve returns the lane's resolution of the element id, name.
func (l *RecLane) resolve(id int32, name string) *laneDecl {
	if ld, ok := l.decls[id]; ok {
		return ld
	}
	decl, ok := l.d.Elements[name]
	if !ok {
		return undeclared
	}
	ld := &laneDecl{id: id, ok: true}
	if decl != nil {
		ld.declared = internLabels(l.tab, decl)
	}
	l.decls[id] = ld
	return ld
}

// closeElement mirrors one step of Recorder.walk for the closing element
// of a declared name, resolved as ld: it records an instance (valid is the
// caller-computed decl != nil && LocalValid bit). For an invalid instance
// sr.cl must hold the frame's close data.
// dtdvet:noalloc
func (l *RecLane) closeElement(sr *StreamRecorder, f *recFrame, ld *laneDecl, valid bool) {
	if ld.delta == nil {
		ld.delta = sr.getStats(f.name)
		l.touched = append(l.touched, ld)
	}
	mergeInstance(sr, ld.delta, &f.kids, &sr.cl, f.hasText, valid, ld.declared, false)
	if !valid {
		l.invalid++
	}
}

// StreamRecorder drives speculative per-DTD recording over one document's
// event stream. It is not safe for concurrent use; callers pool whole
// recorders (one per in-flight streaming ingest).
type StreamRecorder struct {
	tab      *intern.Table
	lanes    []*RecLane
	frames   []recFrame
	n        int
	elements int
	cl       closeScratch
	// keys canonicalizes packed seq/group map keys so steady-state
	// re-insertion into cleared pooled maps does not re-materialize them.
	keys map[string]string
	// Free lists for the per-document structures.
	statsPool []*elemStats
	laPool    []*labelAgg
	seqPool   []*seqAgg
	grpPool   []*groupAgg
}

// NewStreamRecorder returns a StreamRecorder keying statistics by tab's
// IDs. Every Recorder later passed to CommitTo must share the same table.
func NewStreamRecorder(tab *intern.Table) *StreamRecorder {
	return &StreamRecorder{tab: tab, keys: make(map[string]string)}
}

// Table returns the symbol table the recorder keys its statistics by.
func (sr *StreamRecorder) Table() *intern.Table { return sr.tab }

// SetLanes (re)binds the recorder to one lane per DTD, in the given order.
// Lanes whose DTD pointer is unchanged are reused, keeping their
// resolution caches warm across documents.
func (sr *StreamRecorder) SetLanes(ds []*dtd.DTD) {
	old := make(map[*dtd.DTD]*RecLane, len(sr.lanes))
	for _, l := range sr.lanes {
		old[l.d] = l
	}
	lanes := sr.lanes[:0]
	if cap(lanes) < len(ds) {
		lanes = make([]*RecLane, 0, len(ds))
	}
	for _, d := range ds {
		if l, ok := old[d]; ok {
			lanes = append(lanes, l)
			delete(old, d)
			continue
		}
		intern.InternDTD(sr.tab, d)
		lanes = append(lanes, newRecLane(d, sr.tab))
	}
	sr.lanes = lanes
}

// Lanes returns the number of bound lanes.
func (sr *StreamRecorder) Lanes() int { return len(sr.lanes) }

// Lane returns the i-th lane.
func (sr *StreamRecorder) Lane(i int) *RecLane { return sr.lanes[i] }

// Begin resets the recorder for a new document, releasing any state left
// by a previous (possibly aborted) one.
func (sr *StreamRecorder) Begin() {
	for i := sr.n - 1; i >= 0; i-- {
		sr.releaseFrame(&sr.frames[i])
	}
	sr.n = 0
	sr.elements = 0
	for _, l := range sr.lanes {
		l.reset(sr)
	}
}

// Start opens one element. name must remain valid until the matching End
// (interned names satisfy this); id must be name's ID in the recorder's
// table.
// dtdvet:noalloc
func (sr *StreamRecorder) Start(id int32, name string) {
	sr.elements++
	if sr.n == len(sr.frames) {
		sr.frames = append(sr.frames, recFrame{})
	}
	f := &sr.frames[sr.n]
	sr.n++
	f.id, f.name = id, name
	f.idx, f.hasText, f.degraded = 0, false, false
	f.decls = f.decls[:0]
	for _, l := range sr.lanes {
		f.decls = append(f.decls, l.resolve(id, name))
	}
	f.needNil = sr.n > 1 && sr.needsNil(&sr.frames[sr.n-2], id)
}

// needsNil reports whether a child labelled id of the open element p must
// fold its nil-record into p's tally: when p's own nil-record is needed,
// or when some lane declares p (nil content included) without id — the
// entries an invalid instance of p reads. Validity is not consulted (see
// the package comment).
// dtdvet:noalloc
func (sr *StreamRecorder) needsNil(p *recFrame, id int32) bool {
	if p.needNil {
		return true
	}
	for _, ld := range p.decls {
		if ld.ok && !declares(ld.declared, id) {
			return true
		}
	}
	return false
}

// Text notes one text child of the open element; nonWS reports whether it
// carries non-whitespace data (the HasText condition).
// dtdvet:noalloc
func (sr *StreamRecorder) Text(nonWS bool) {
	if nonWS && sr.n > 0 {
		sr.frames[sr.n-1].hasText = true
	}
}

// DegradeTop marks the open element as over budget: labels not yet seen
// among its children are dropped from its instance statistics from here on
// (bounding the per-frame tables); already-seen labels keep full counts.
// The budget is a byte of the journaled streaming record, so replay
// degrades identically.
func (sr *StreamRecorder) DegradeTop() {
	if sr.n > 0 {
		sr.frames[sr.n-1].degraded = true
	}
}

// End closes the open element, recording one instance into every lane
// that declares it. valids[i] must be lane i's decl != nil && LocalValid
// bit for the element (false for degraded elements).
// dtdvet:noalloc
func (sr *StreamRecorder) End(valids []bool) {
	f := &sr.frames[sr.n-1]
	// The close data is derived once, and only when an invalid instance or
	// a nil-record reads it.
	closed := false
	for i, l := range sr.lanes {
		ld := f.decls[i]
		if !ld.ok {
			l.invalid++
			continue
		}
		if !valids[i] && !closed {
			computeClose(&f.kids, &sr.cl)
			closed = true
		}
		l.closeElement(sr, f, ld, valids[i])
	}
	if sr.n > 1 {
		if f.needNil && !closed {
			computeClose(&f.kids, &sr.cl)
		}
		sr.registerChild(&sr.frames[sr.n-2], f)
	}
	sr.releaseFrame(f)
	sr.n--
}

// Elements returns the number of elements streamed since Begin.
func (sr *StreamRecorder) Elements() int { return sr.elements }

// DocResult returns lane i's document summary (walk's DocResult).
func (sr *StreamRecorder) DocResult(lane int) DocResult {
	return DocResult{Elements: sr.elements, Invalid: sr.lanes[lane].invalid}
}

// CommitTo merges lane i's delta into r — the winning DTD's recorder —
// reproducing exactly the state Record(doc) would have left. r must share
// the recorder's symbol table. Every counter is a commutative sum, so
// replayed commits converge to identical snapshots.
func (sr *StreamRecorder) CommitTo(lane int, r *Recorder) DocResult {
	l := sr.lanes[lane]
	for _, ld := range l.touched {
		es := r.statsFor(ld.id, ld.delta.name)
		addStats(nil, es, ld.delta)
		// A delta with a valid instance is a document with one.
		if ld.delta.valid > 0 {
			es.docsWithValid++
		}
	}
	res := sr.DocResult(lane)
	r.docs++
	r.invalidMass += res.InvalidRatio()
	return res
}

// Relabel rewrites lane i's delta so that every child label keyed by an
// ID in m is keyed by m's value instead, before CommitTo. A streamed run
// keys the labels its table lacked by provisional IDs (intern.Overlay);
// when the table gave them other IDs by commit time, the delta must carry
// those. ID sets are re-sorted and their keys re-packed, so the merge
// leaves exactly the state Record(doc) would under the final IDs. Element
// IDs need no rewrite: a lane holds deltas only for names its DTD
// declares, which were interned with it.
func (sr *StreamRecorder) Relabel(lane int, m map[int32]int32) {
	for _, ld := range sr.lanes[lane].touched {
		relabel(ld.delta, m)
	}
}

// relabel rewrites the label IDs of es, and of the nil-records it holds,
// through m (identity for an ID m lacks).
func relabel(es *elemStats, m map[int32]int32) {
	to := func(id int32) int32 {
		if x, ok := m[id]; ok {
			return x
		}
		return id
	}
	labels := make(map[int32]*labelAgg, len(es.labels))
	for id, la := range es.labels {
		labels[to(id)] = la
		if la.child != nil {
			relabel(la.child, m)
		}
	}
	es.labels = labels
	seqs := make(map[string]*seqAgg, len(es.seqs))
	for _, sa := range es.seqs {
		seqs[string(relabelSet(sa.ids, to))] = sa
	}
	es.seqs = seqs
	groups := make(map[string]*groupAgg, len(es.groups))
	for _, ga := range es.groups {
		groups[string(relabelSet(ga.ids, to))] = ga
	}
	es.groups = groups
	clear(es.kids)
	for i := range es.kidRows {
		k := &es.kidRows[i]
		k.id = to(k.id)
		es.kids[k.id] = int32(i)
	}
	clear(es.pairs)
	for i := range es.pairRows {
		p := &es.pairRows[i]
		p.pairKey = pairKey{a: to(p.a), b: to(p.b)}
		if p.b < p.a {
			p.a, p.b = p.b, p.a
		}
		es.pairs[p.pairKey] = int32(i)
	}
}

// relabelSet maps the sorted ID set ids in place, sorts it again and
// returns its packed key.
func relabelSet(ids []int32, to func(int32) int32) []byte {
	for i, id := range ids {
		ids[i] = to(id)
	}
	slices.Sort(ids)
	return packIDs(nil, ids)
}

// registerChild folds the closing child f into its parent's tally — the
// streaming counterpart of one iteration of recordInstance's one-pass
// child loop — and, when f.needNil, merges f's instance into the
// nil-record of its label's slot, taking over f's nested records (the
// parent is their last reader). sr.cl must then hold f's close data.
// dtdvet:noalloc
func (sr *StreamRecorder) registerChild(p, f *recFrame) {
	var s *slot
	if i := p.kids.find(f.id); i >= 0 {
		s = &p.kids.slots[i]
		s.count++
		s.last = p.idx
	} else {
		if p.degraded {
			// Over budget: a label first seen after degradation is
			// invisible to the parent's instance statistics (and does not
			// advance the child index), keeping the frame tables bounded.
			return
		}
		s = p.kids.push(f.id, p.idx)
	}
	if f.needNil {
		if s.nilRec == nil {
			s.nilRec = sr.getStats(f.name)
		}
		mergeInstance(sr, s.nilRec, &f.kids, &sr.cl, f.hasText, false, nil, true)
	}
	p.idx++
}

// releaseFrame pools the nil-records the frame's tally still holds.
func (sr *StreamRecorder) releaseFrame(f *recFrame) {
	for i := range f.kids.slots {
		if s := &f.kids.slots[i]; s.nilRec != nil {
			sr.putStats(s.nilRec)
			s.nilRec = nil
		}
	}
	f.kids.reset()
}

// The pool accessors below take from sr's free lists, or from the heap
// when sr is nil (the tree recorder and CommitTo, whose statistics
// outlive any StreamRecorder).

// internKey canonicalizes a packed seq/group key so repeat insertions into
// cleared pooled maps reuse one materialized string.
func (sr *StreamRecorder) internKey(b []byte) string {
	if sr == nil {
		return string(b)
	}
	if s, ok := sr.keys[string(b)]; ok {
		return s
	}
	s := string(b)
	sr.keys[s] = s
	return s
}

func (sr *StreamRecorder) getStats(name string) *elemStats {
	if sr == nil || len(sr.statsPool) == 0 {
		return newElemStats(name)
	}
	n := len(sr.statsPool)
	es := sr.statsPool[n-1]
	sr.statsPool = sr.statsPool[:n-1]
	es.name = name
	return es
}

// putStats recursively returns es (cleared) and its nested structures to
// the free lists. es must not be referenced anywhere after the call.
func (sr *StreamRecorder) putStats(es *elemStats) {
	es.valid, es.docsWithValid, es.invalid, es.textInstances = 0, 0, 0, 0
	es.validDoc, es.size = 0, 0
	for _, la := range es.labels {
		if la.child != nil {
			sr.putStats(la.child)
			la.child = nil
		}
		la.invalidWith, la.repeated = 0, 0
		sr.laPool = append(sr.laPool, la)
	}
	clear(es.labels)
	for _, sa := range es.seqs {
		sr.seqPool = append(sr.seqPool, sa)
	}
	clear(es.seqs)
	for _, ga := range es.groups {
		sr.grpPool = append(sr.grpPool, ga)
	}
	clear(es.groups)
	clear(es.kids)
	es.kidRows = es.kidRows[:0]
	clear(es.pairs)
	es.pairRows = es.pairRows[:0]
	sr.statsPool = append(sr.statsPool, es)
}

func (sr *StreamRecorder) getLabelAgg() *labelAgg {
	if sr == nil || len(sr.laPool) == 0 {
		return &labelAgg{}
	}
	n := len(sr.laPool)
	la := sr.laPool[n-1]
	sr.laPool = sr.laPool[:n-1]
	return la
}

func (sr *StreamRecorder) getSeqAgg(ids []int32, count int) *seqAgg {
	if sr == nil || len(sr.seqPool) == 0 {
		return &seqAgg{ids: append([]int32(nil), ids...), count: count}
	}
	n := len(sr.seqPool)
	sa := sr.seqPool[n-1]
	sr.seqPool = sr.seqPool[:n-1]
	sa.ids = append(sa.ids[:0], ids...)
	sa.count = count
	return sa
}

func (sr *StreamRecorder) getGroupAgg(ids []int32, count int) *groupAgg {
	if sr == nil || len(sr.grpPool) == 0 {
		return &groupAgg{ids: append([]int32(nil), ids...), count: count}
	}
	n := len(sr.grpPool)
	ga := sr.grpPool[n-1]
	sr.grpPool = sr.grpPool[:n-1]
	ga.ids = append(ga.ids[:0], ids...)
	ga.count = count
	return ga
}
