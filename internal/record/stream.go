package record

// Streaming recording (DESIGN.md §15). The tree path records a document
// after classification by walking the materialized *xmltree.Node tree
// (Recorder.Record). The streaming path cannot buffer the document — the
// winner DTD is only known once the root closes — so a StreamRecorder
// records speculatively: it maintains one DTD-independent aggregate per
// open element (the same per-instance counts recordInstance derives in its
// one-pass loop) plus one delta lane per registered DTD, and at commit
// time merges only the winning lane's delta into that DTD's Recorder.
// The merged statistics are bit-identical to Record(doc) on the winner
// (stream_test.go pins this over the corpus and generated documents):
// every counter is an exact integer sum, and the only float accumulator
// (posSum) adds integer-valued terms, so merge order cannot perturb it.
//
// Memory is bounded by the open-element path, the number of distinct
// labels per element (capped by the caller's max-children budget via
// DegradeTop) and the schema-sized delta tables — never by document
// length. The nil-record machinery replaces recordInstance's recursion
// into already-closed plus-element children: a closing element folds its
// instance, under a nil declaration, into its parent's childNil table, and
// an invalid instance deep-adds childNil[l] into Labels[l].Child for each
// undeclared label l — exactly the sum recordInstance would have computed
// child by child.
//
// Folding is a deep copy of the child's nested statistics, so folding
// every element would cost O(elements × depth). Only the entries some lane
// can read are built, as Start decides for each element (needsNil): those
// of a parent whose own nil-record is needed (a nil-record reads every
// entry), and those under a label that some lane's declaration of the
// parent lacks (an invalid instance reads exactly those). The rule
// deliberately ignores validity: DegradeTop can invalidate an element
// after its children have closed, and an ANY element is valid only until
// it degrades, so whether an entry will be read is unknown until the
// parent closes.
//
// All per-close structures are pooled and map-clear-reused, and seq/group
// map keys are interned in a per-StreamRecorder cache, so the steady-state
// per-event loop allocates nothing once the document's shapes have been
// seen (alloc gate: BenchmarkStreamIngest).

import (
	"dtdevolve/internal/dtd"
	"dtdevolve/internal/intern"
)

// recFrame is the DTD-independent aggregate of one open element: exactly
// the per-instance buffers recordInstance fills in its one-pass loop over
// the children, plus the childNil table feeding plus-element statistics.
type recFrame struct {
	id   int32
	name string
	// counts/first/last/order mirror recScratch: occurrence counts,
	// first/last positions among element children, first-occurrence order.
	counts map[int32]int
	first  map[int32]int
	last   map[int32]int
	order  []int32
	// childNil accumulates, per child label, the nil-declaration record of
	// every closed child bearing it (the streaming stand-in for
	// recordInstance(la.child, c, nil)) — for the children whose needNil
	// is set; no entry is built that no lane can read.
	childNil map[int32]*elemStats
	// idx is the element-child index (text children do not advance it).
	idx      int
	hasText  bool
	degraded bool
	// needNil reports whether this element's nil-record is folded into its
	// parent's childNil at close (decided at Start).
	needNil bool
}

// grpScratch is one repetition group computed at element close.
type grpScratch struct {
	ids []int32
	key []byte
}

// closeScratch holds the per-close derived data shared by every lane: the
// sorted label set, its packed sequence key, and the repetition groups.
type closeScratch struct {
	set     []int32
	seqKey  []byte
	rep     []repEntry
	groups  []grpScratch
	ngroups int
}

// RecLane accumulates the recording delta of the current document against
// one DTD. Deltas are private to the lane until CommitTo merges them into
// a Recorder, so lanes can be filled without holding the source lock.
type RecLane struct {
	d   *dtd.DTD
	tab *intern.Table
	// declared caches, per content model, the interned set of its labels —
	// the lane's own cache, never the Recorder's (which is lock-guarded).
	declared map[*dtd.Content]map[int32]bool
	// delta is keyed by the interned ID of the declared element's name.
	delta     map[int32]*elemStats
	validSeen map[int32]bool
	invalid   int
}

func newRecLane(d *dtd.DTD, tab *intern.Table) *RecLane {
	return &RecLane{
		d:         d,
		tab:       tab,
		declared:  make(map[*dtd.Content]map[int32]bool),
		delta:     make(map[int32]*elemStats),
		validSeen: make(map[int32]bool),
	}
}

// DTD returns the DTD this lane records against.
func (l *RecLane) DTD() *dtd.DTD { return l.d }

func (l *RecLane) reset(sr *StreamRecorder) {
	for _, es := range l.delta {
		sr.putStats(es)
	}
	clear(l.delta)
	clear(l.validSeen)
	l.invalid = 0
}

// declaredSet mirrors Recorder.declaredSet on the lane's private cache.
func (l *RecLane) declaredSet(decl *dtd.Content) map[int32]bool {
	if decl == nil {
		return nil
	}
	if s, ok := l.declared[decl]; ok {
		return s
	}
	s := make(map[int32]bool)
	for _, lbl := range decl.Labels() {
		s[l.tab.Intern(lbl)] = true
	}
	l.declared[decl] = s
	return s
}

// closeElement mirrors one step of Recorder.walk for the closing element:
// declared names get an instance recorded (valid is the caller-computed
// decl != nil && LocalValid bit), undeclared names only count as invalid.
// dtdvet:noalloc
func (l *RecLane) closeElement(sr *StreamRecorder, f *recFrame, valid bool) {
	decl, ok := l.d.Elements[f.name]
	if !ok {
		l.invalid++
		return
	}
	es := l.delta[f.id]
	if es == nil {
		es = sr.getStats(f.name)
		l.delta[f.id] = es
	}
	sr.applyInstance(es, f, l.declaredSet(decl), valid)
	if valid {
		l.validSeen[f.id] = true
	} else {
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
// declared-set caches warm across documents.
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
		sr.growFrames()
	}
	f := &sr.frames[sr.n]
	sr.n++
	f.id, f.name = id, name
	f.idx, f.hasText, f.degraded = 0, false, false
	f.order = f.order[:0]
	f.needNil = sr.n > 1 && sr.needsNil(&sr.frames[sr.n-2], id)
}

// needsNil reports whether a child labelled id of the open element p must
// fold its nil-record into p.childNil: when p's own nil-record is needed,
// or when some lane declares p (nil content included) without id — the
// entries an invalid instance of p reads. Validity is not consulted (see
// the package comment).
// dtdvet:noalloc
func (sr *StreamRecorder) needsNil(p *recFrame, id int32) bool {
	if p.needNil {
		return true
	}
	for _, l := range sr.lanes {
		if decl, ok := l.d.Elements[p.name]; ok && !l.declaredSet(decl)[id] {
			return true
		}
	}
	return false
}

// growFrames extends the frame stack by one level — the only allocation
// tied to document shape, paid once per depth level ever reached and
// reused for every later document.
func (sr *StreamRecorder) growFrames() {
	sr.frames = append(sr.frames, recFrame{
		counts:   make(map[int32]int),
		first:    make(map[int32]int),
		last:     make(map[int32]int),
		childNil: make(map[int32]*elemStats),
	})
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

// End closes the open element, recording one instance into every lane.
// valids[i] must be lane i's decl != nil && LocalValid bit for the
// element (false for degraded elements).
// dtdvet:noalloc
func (sr *StreamRecorder) End(valids []bool) {
	f := &sr.frames[sr.n-1]
	sr.computeClose(f)
	for i, l := range sr.lanes {
		l.closeElement(sr, f, valids[i])
	}
	if sr.n > 1 {
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
// the recorder's symbol table. The iteration order over the delta maps is
// observable only through map-key insertion (all counters are commutative
// sums), so replayed commits converge to identical snapshots.
func (sr *StreamRecorder) CommitTo(lane int, r *Recorder) DocResult {
	l := sr.lanes[lane]
	for id, es := range l.delta {
		addStats(nil, r.statsFor(id, es.name), es)
	}
	for id := range l.validSeen {
		r.elements[id].docsWithValid++
	}
	res := sr.DocResult(lane)
	r.docs++
	r.invalidMass += res.InvalidRatio()
	return res
}

// registerChild folds the closing child f into its parent's aggregate —
// the streaming counterpart of one iteration of recordInstance's one-pass
// child loop — and, when f.needNil, deep-adds f's nil-record into the
// parent's childNil.
// dtdvet:noalloc
func (sr *StreamRecorder) registerChild(p, f *recFrame) {
	id := f.id
	if cnt, seen := p.counts[id]; seen {
		p.counts[id] = cnt + 1
		p.last[id] = p.idx
	} else {
		if p.degraded {
			// Over budget: a label first seen after degradation is
			// invisible to the parent's instance statistics (and does not
			// advance the child index), keeping the frame tables bounded.
			return
		}
		p.counts[id] = 1
		p.first[id] = p.idx
		p.last[id] = p.idx
		p.order = append(p.order, id)
	}
	if f.needNil {
		cn := p.childNil[id]
		if cn == nil {
			cn = sr.getStats(f.name)
			p.childNil[id] = cn
		}
		sr.applyInstance(cn, f, nil, false)
	}
	p.idx++
}

// computeClose derives the close-time data every lane shares: the sorted
// label set (αβ), its packed key, and the repetition groups — mirroring
// the sequence/group blocks of recordInstance.
// dtdvet:noalloc
func (sr *StreamRecorder) computeClose(f *recFrame) {
	cl := &sr.cl
	cl.set = append(cl.set[:0], f.order...)
	sortIDs(cl.set)
	cl.seqKey = packIDs(cl.seqKey, cl.set)
	cl.rep = cl.rep[:0]
	for _, id := range cl.set {
		if c := f.counts[id]; c > 1 {
			cl.rep = append(cl.rep, repEntry{count: c, id: id})
		}
	}
	sortRepByCount(cl.rep)
	cl.ngroups = 0
	for i := 0; i < len(cl.rep); {
		j := i
		for j < len(cl.rep) && cl.rep[j].count == cl.rep[i].count {
			j++
		}
		if j-i >= 2 {
			if cl.ngroups == len(cl.groups) {
				cl.groups = append(cl.groups, grpScratch{})
			}
			g := &cl.groups[cl.ngroups]
			cl.ngroups++
			g.ids = g.ids[:0]
			for k := i; k < j; k++ {
				g.ids = append(g.ids, cl.rep[k].id)
			}
			g.key = packIDs(g.key, g.ids)
		}
		i = j
	}
}

// applyInstance merges one instance of the closing element — frame f plus
// the close scratch — into target, mirroring recordInstance exactly.
// declared is the declaration's interned label set (nil for the
// nil-record); valid is the instance's local validity.
// dtdvet:noalloc
func (sr *StreamRecorder) applyInstance(target *elemStats, f *recFrame, declared map[int32]bool, valid bool) {
	for _, id := range f.order {
		target.posSum[id] += float64(f.first[id])
		target.posCount[id]++
		target.present[id]++
		if f.counts[id] > 1 {
			target.repeat[id]++
		}
	}
	if f.hasText {
		target.textInstances++
	}
	for i := 0; i < len(f.order); i++ {
		for j := i + 1; j < len(f.order); j++ {
			x, y := f.order[i], f.order[j]
			k := pairKey{a: x, b: y}
			if y < x {
				k = pairKey{a: y, b: x}
			}
			pa := target.pairs[k]
			pa.count++
			if f.first[x] < f.last[y] && f.first[y] < f.last[x] {
				pa.interleaved++
			}
			target.pairs[k] = pa
		}
	}
	if valid {
		target.valid++
		return
	}
	target.invalid++
	cl := &sr.cl
	if sa, ok := target.seqs[string(cl.seqKey)]; ok { // dtdvet:allow noalloc -- map-index string(b) is the compiler's no-copy special case
		sa.count++
	} else {
		target.seqs[sr.internKey(cl.seqKey)] = sr.getSeqAgg(cl.set, 1)
	}
	for _, id := range cl.set {
		la, ok := target.labels[id]
		if !ok {
			la = sr.getLabelAgg()
			target.labels[id] = la
		}
		la.invalidWith++
		if f.counts[id] > 1 {
			la.repeated++
		}
		if declared[id] {
			continue
		}
		// Plus element: childNil[id] is the sum of the nil-declaration
		// records of every child bearing the label — what recordInstance
		// computes by recursing into each such child.
		cn := f.childNil[id]
		if cn == nil {
			continue
		}
		if la.child == nil {
			la.child = sr.getStats(cn.name)
		}
		addStats(sr, la.child, cn)
	}
	for gi := 0; gi < cl.ngroups; gi++ {
		g := &cl.groups[gi]
		if ga, ok := target.groups[string(g.key)]; ok { // dtdvet:allow noalloc -- map-index string(b) is the compiler's no-copy special case
			ga.count++
		} else {
			target.groups[sr.internKey(g.key)] = sr.getGroupAgg(g.ids, 1)
		}
	}
}

// addStats deep-adds src into dst. New nested structures come from sr's
// pools when sr is non-nil (the streaming hot path) and from the heap when
// nil (CommitTo targets outlive the StreamRecorder). dst never aliases
// src's mutable state.
func addStats(sr *StreamRecorder, dst, src *elemStats) {
	dst.valid += src.valid
	dst.docsWithValid += src.docsWithValid
	dst.invalid += src.invalid
	dst.textInstances += src.textInstances
	for id, la := range src.labels {
		dla, ok := dst.labels[id]
		if !ok {
			if sr != nil {
				dla = sr.getLabelAgg()
			} else {
				dla = &labelAgg{}
			}
			dst.labels[id] = dla
		}
		dla.invalidWith += la.invalidWith
		dla.repeated += la.repeated
		if la.child != nil {
			if dla.child == nil {
				if sr != nil {
					dla.child = sr.getStats(la.child.name)
				} else {
					dla.child = newElemStats(la.child.name)
				}
			}
			addStats(sr, dla.child, la.child)
		}
	}
	for k, sa := range src.seqs {
		if da, ok := dst.seqs[k]; ok {
			da.count += sa.count
		} else if sr != nil {
			dst.seqs[k] = sr.getSeqAgg(sa.ids, sa.count)
		} else {
			dst.seqs[k] = &seqAgg{ids: append([]int32(nil), sa.ids...), count: sa.count}
		}
	}
	for k, ga := range src.groups {
		if da, ok := dst.groups[k]; ok {
			da.count += ga.count
		} else if sr != nil {
			dst.groups[k] = sr.getGroupAgg(ga.ids, ga.count)
		} else {
			dst.groups[k] = &groupAgg{ids: append([]int32(nil), ga.ids...), count: ga.count}
		}
	}
	for id, c := range src.present {
		dst.present[id] += c
	}
	for id, c := range src.repeat {
		dst.repeat[id] += c
	}
	for id, s := range src.posSum {
		dst.posSum[id] += s
	}
	for id, c := range src.posCount {
		dst.posCount[id] += c
	}
	for k, pa := range src.pairs {
		da := dst.pairs[k]
		da.count += pa.count
		da.interleaved += pa.interleaved
		dst.pairs[k] = da
	}
}

// releaseFrame pools the frame's childNil entries and clears its maps.
func (sr *StreamRecorder) releaseFrame(f *recFrame) {
	for _, cn := range f.childNil {
		sr.putStats(cn)
	}
	clear(f.childNil)
	clear(f.counts)
	clear(f.first)
	clear(f.last)
	f.order = f.order[:0]
}

// internKey canonicalizes a packed seq/group key so repeat insertions into
// cleared pooled maps reuse one materialized string.
func (sr *StreamRecorder) internKey(b []byte) string {
	if s, ok := sr.keys[string(b)]; ok {
		return s
	}
	s := string(b)
	sr.keys[s] = s
	return s
}

func (sr *StreamRecorder) getStats(name string) *elemStats {
	if n := len(sr.statsPool); n > 0 {
		es := sr.statsPool[n-1]
		sr.statsPool = sr.statsPool[:n-1]
		es.name = name
		return es
	}
	return newElemStats(name)
}

// putStats recursively returns es (cleared) and its nested structures to
// the free lists. es must not be referenced anywhere after the call.
func (sr *StreamRecorder) putStats(es *elemStats) {
	es.valid, es.docsWithValid, es.invalid, es.textInstances = 0, 0, 0, 0
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
	clear(es.present)
	clear(es.repeat)
	clear(es.posSum)
	clear(es.posCount)
	clear(es.pairs)
	sr.statsPool = append(sr.statsPool, es)
}

func (sr *StreamRecorder) getLabelAgg() *labelAgg {
	if n := len(sr.laPool); n > 0 {
		la := sr.laPool[n-1]
		sr.laPool = sr.laPool[:n-1]
		return la
	}
	return &labelAgg{}
}

func (sr *StreamRecorder) getSeqAgg(ids []int32, count int) *seqAgg {
	if n := len(sr.seqPool); n > 0 {
		sa := sr.seqPool[n-1]
		sr.seqPool = sr.seqPool[:n-1]
		sa.ids = append(sa.ids[:0], ids...)
		sa.count = count
		return sa
	}
	return &seqAgg{ids: append([]int32(nil), ids...), count: count}
}

func (sr *StreamRecorder) getGroupAgg(ids []int32, count int) *groupAgg {
	if n := len(sr.grpPool); n > 0 {
		ga := sr.grpPool[n-1]
		sr.grpPool = sr.grpPool[:n-1]
		ga.ids = append(ga.ids[:0], ids...)
		ga.count = count
		return ga
	}
	return &groupAgg{ids: append([]int32(nil), ids...), count: count}
}
