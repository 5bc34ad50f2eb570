package record

import "slices"

// Per-instance child tallies and the one merge both recorders use
// (DESIGN.md §15). Recorder.recordInstance tallies an element's children in
// one pass over the tree; a StreamRecorder frame tallies them as they
// close. Either way mergeInstance folds the tally into an elemStats, so the
// two paths cannot drift apart.

// tallyScan is the number of distinct child labels a tally finds by a
// linear scan. An instance with more switches to the hashed index, so a
// wide element costs O(children), not O(children × labels).
const tallyScan = 8

// slot is the tally of one distinct child label of an instance.
type slot struct {
	id    int32
	count int
	// first and last are the element-child indexes of the label's first
	// and last occurrences.
	first, last int
	// nilRec (streaming frames only) sums the nil-declaration records of
	// the closed children bearing the label: what recordInstance(la.child,
	// c, nil) adds child by child on the tree path. It is nil when no lane
	// can read it.
	nilRec *elemStats
	// plus is set by mergeInstance when an invalid instance records the
	// label as a plus element: the label's statistics, into whose child
	// the tree recorder records the label's instances.
	plus *labelAgg
}

// tally counts the child labels of one element instance: one slot per
// distinct label, in first-occurrence order. Resetting it is O(1) and
// clears no map: the slots truncate, and the index (when an instance needs
// it) starts a new generation.
type tally struct {
	slots []slot
	// index maps label IDs to slot positions while the instance has more
	// than tallyScan labels: open addressing over a power-of-two table, an
	// entry counting only while it carries the current generation.
	index []tallyEntry
	shift uint8
	gen   uint32
}

type tallyEntry struct {
	gen uint32
	pos int32
}

func (t *tally) reset() { t.slots = t.slots[:0] }

// find returns the position of id's slot, or -1.
// dtdvet:noalloc
func (t *tally) find(id int32) int {
	if len(t.slots) <= tallyScan {
		for i := range t.slots {
			if t.slots[i].id == id {
				return i
			}
		}
		return -1
	}
	mask := uint32(len(t.index) - 1)
	for h := t.hash(id); ; h = (h + 1) & mask {
		e := t.index[h]
		if e.gen != t.gen {
			return -1
		}
		if t.slots[e.pos].id == id {
			return int(e.pos)
		}
	}
}

// push adds a slot for a label not yet in the tally, first seen at
// element-child index idx.
// dtdvet:noalloc
func (t *tally) push(id int32, idx int) *slot {
	t.slots = append(t.slots, slot{id: id, count: 1, first: idx, last: idx})
	switch n := len(t.slots); {
	case n <= tallyScan:
	case n == tallyScan+1 || 2*n > len(t.index):
		t.reindex()
	default:
		t.insert(n - 1)
	}
	return &t.slots[len(t.slots)-1]
}

// reindex enters every slot into a new generation of the index, first
// growing the table when the slots would fill more than half of it.
func (t *tally) reindex() {
	if n := len(t.slots); 2*n > len(t.index) {
		size, shift := 64, uint8(32-6)
		for size < 4*n {
			size, shift = size<<1, shift-1
		}
		t.index, t.shift, t.gen = make([]tallyEntry, size), shift, 0
	}
	if t.gen++; t.gen == 0 {
		clear(t.index)
		t.gen = 1
	}
	for i := range t.slots {
		t.insert(i)
	}
}

func (t *tally) insert(pos int) {
	mask := uint32(len(t.index) - 1)
	h := t.hash(t.slots[pos].id)
	for t.index[h].gen == t.gen {
		h = (h + 1) & mask
	}
	t.index[h] = tallyEntry{gen: t.gen, pos: int32(pos)}
}

// hash is Fibonacci hashing onto the table's bits.
func (t *tally) hash(id int32) uint32 {
	return (uint32(id) * 0x9E3779B1) >> t.shift
}

// repEntry is one label repeated in an instance, with its count.
type repEntry struct {
	count int
	id    int32
}

// grpScratch is one repetition group of an instance.
type grpScratch struct {
	ids []int32
	key []byte
}

// closeScratch holds what an invalid instance records beyond its tally:
// the sorted label set (αβ), its packed sequence key, and the repetition
// groups.
type closeScratch struct {
	set     []int32
	seqKey  []byte
	rep     []repEntry
	groups  []grpScratch
	ngroups int
}

// computeClose derives cl from the tally of an instance.
// dtdvet:noalloc
func computeClose(t *tally, cl *closeScratch) {
	cl.set = cl.set[:0]
	cl.rep = cl.rep[:0]
	for i := range t.slots {
		s := &t.slots[i]
		cl.set = append(cl.set, s.id)
		if s.count > 1 {
			cl.rep = append(cl.rep, repEntry{count: s.count, id: s.id})
		}
	}
	slices.Sort(cl.set)
	cl.seqKey = packIDs(cl.seqKey, cl.set)
	// Groups: for each repetition count m > 1, the labels repeated exactly
	// m times form a group when there are at least two of them; ordering
	// by (count, ID) keeps each group's IDs ascending.
	slices.SortFunc(cl.rep, cmpRep)
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

func cmpRep(a, b repEntry) int {
	if a.count != b.count {
		return a.count - b.count
	}
	return int(a.id) - int(b.id)
}

// declares reports whether the sorted label set ids holds id.
// dtdvet:noalloc
func declares(ids []int32, id int32) bool {
	if len(ids) > tallyScan {
		_, ok := slices.BinarySearch(ids, id)
		return ok
	}
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// mergeInstance merges one instance of an element into es: its child
// tally t, whether it carries text and whether it was locally valid. For
// an invalid instance cl must hold computeClose(t), and declared lists the
// declaration's labels (none for a nil-record): every other label is a
// plus element, and its slot's plus is set to the label's statistics.
// A slot's nil-record is folded into them, moved when move is set (the
// caller is its last reader) and copied otherwise. New structures come
// from sr's pools, or from the heap when sr is nil.
// dtdvet:noalloc
func mergeInstance(sr *StreamRecorder, es *elemStats, t *tally, cl *closeScratch, hasText, valid bool, declared []int32, move bool) {
	for i := range t.slots {
		s := &t.slots[i]
		k := es.kid(s.id)
		k.present++
		k.posCount++
		k.posSum += float64(s.first)
		if s.count > 1 {
			k.repeat++
		}
	}
	for i := range t.slots {
		x := &t.slots[i]
		for j := i + 1; j < len(t.slots); j++ {
			y := &t.slots[j]
			p := es.pair(x.id, y.id)
			p.count++
			// Interleaved: neither label's occurrences all precede the
			// other's.
			if x.first < y.last && y.first < x.last {
				p.interleaved++
			}
		}
	}
	if hasText {
		es.textInstances++
	}
	es.size++
	if valid {
		es.valid++
		return
	}
	es.invalid++
	if sa, ok := es.seqs[string(cl.seqKey)]; ok { // dtdvet:allow noalloc -- map-index string(b) is the compiler's no-copy special case
		sa.count++
	} else {
		es.seqs[sr.internKey(cl.seqKey)] = sr.getSeqAgg(cl.set, 1)
	}
	for i := range t.slots {
		s := &t.slots[i]
		la, ok := es.labels[s.id]
		if !ok {
			la = sr.getLabelAgg()
			es.labels[s.id] = la
		}
		la.invalidWith++
		if s.count > 1 {
			la.repeated++
		}
		if declares(declared, s.id) {
			continue
		}
		s.plus = la
		if s.nilRec != nil {
			es.size += s.nilRec.size
			sr.foldNil(la, s, move)
		}
	}
	for gi := 0; gi < cl.ngroups; gi++ {
		g := &cl.groups[gi]
		if ga, ok := es.groups[string(g.key)]; ok { // dtdvet:allow noalloc -- map-index string(b) is the compiler's no-copy special case
			ga.count++
		} else {
			es.groups[sr.internKey(g.key)] = sr.getGroupAgg(g.ids, 1)
		}
	}
}

// foldNil adds the slot's nil-record into la.child. A moved record becomes
// la.child outright when la has none; otherwise the smaller of the two is
// added into the larger, so a chain of plus elements folds in linear time
// instead of being copied once per level.
func (sr *StreamRecorder) foldNil(la *labelAgg, s *slot, move bool) {
	src := s.nilRec
	switch {
	case !move:
		if la.child == nil {
			la.child = sr.getStats(src.name)
		}
		addStats(sr, la.child, src)
		return
	case la.child == nil:
		la.child = src
	default:
		if src.size > la.child.size {
			la.child, src = src, la.child
		}
		addStats(sr, la.child, src)
		sr.putStats(src)
	}
	s.nilRec = nil
}

// addStats deep-adds src into dst. New structures come from sr's pools,
// or from the heap when sr is nil (CommitTo targets outlive the
// StreamRecorder). dst never aliases src's mutable state.
func addStats(sr *StreamRecorder, dst, src *elemStats) {
	dst.valid += src.valid
	dst.docsWithValid += src.docsWithValid
	dst.invalid += src.invalid
	dst.textInstances += src.textInstances
	dst.size += src.size
	for id, la := range src.labels {
		dla, ok := dst.labels[id]
		if !ok {
			dla = sr.getLabelAgg()
			dst.labels[id] = dla
		}
		dla.invalidWith += la.invalidWith
		dla.repeated += la.repeated
		if la.child != nil {
			if dla.child == nil {
				dla.child = sr.getStats(la.child.name)
			}
			addStats(sr, dla.child, la.child)
		}
	}
	for k, sa := range src.seqs {
		if da, ok := dst.seqs[k]; ok {
			da.count += sa.count
		} else {
			dst.seqs[k] = sr.getSeqAgg(sa.ids, sa.count)
		}
	}
	for k, ga := range src.groups {
		if da, ok := dst.groups[k]; ok {
			da.count += ga.count
		} else {
			dst.groups[k] = sr.getGroupAgg(ga.ids, ga.count)
		}
	}
	for i := range src.kidRows {
		k := &src.kidRows[i]
		d := dst.kid(k.id)
		d.present += k.present
		d.repeat += k.repeat
		d.posSum += k.posSum
		d.posCount += k.posCount
	}
	for i := range src.pairRows {
		p := &src.pairRows[i]
		d := dst.pair(p.a, p.b)
		d.count += p.count
		d.interleaved += p.interleaved
	}
}
