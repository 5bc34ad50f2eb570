// Package intern implements a symbol table mapping element labels to
// dense int32 IDs, so the similarity and recording hot paths can replace
// string-keyed maps with slice indexing and integer comparisons.
//
// A Table is built in two phases mirroring the lifecycle of a DTD set
// (DESIGN.md §9):
//
//   - at pool-compile time, every element name and content-model label of
//     a DTD is interned (InternDTD), so the alignment automata carry IDs
//     on their symbol edges;
//   - at commit time, tags of incoming documents that the DTDs never
//     declared are interned (InternDocument, or Overlay.Commit),
//     extending the table in journal order.
//
// Reads (ID, Name, NameIs) are lock-free: an open-addressing index over an
// append-only name array, published through an atomic pointer. Writers
// serialize on a mutex, and interning a new symbol costs amortized O(1):
// the name array grows by appending and the index doubles at 3/4 load, so
// a table's cost follows the symbols it holds, however many there are. A
// Table never shrinks; it is shared by every pool, evaluator and recorder
// of one Source so that IDs assigned to a document during classification
// remain valid during recording.
package intern

import (
	"hash/maphash"
	"sync"
	"sync/atomic"

	"dtdevolve/internal/dtd"
	"dtdevolve/internal/xmltree"
)

// None is the reserved ID meaning "no symbol": the zero value of a node's
// cached label ID, and the lookup result for unknown names.
const None int32 = 0

// minSlots is the index size of an empty table; a power of two.
const minSlots = 16

// Table is a concurrency-safe label → dense-ID symbol table. IDs are
// assigned consecutively starting at 1; 0 is None. The zero value is not
// usable; call NewTable.
type Table struct {
	mu sync.Mutex
	// work is the writer's state, guarded by mu. It runs ahead of the
	// published state while InternAll adds a batch.
	work  tableState
	state atomic.Pointer[tableState]
}

// tableState is one published state of the table: readers load it
// atomically, and every name and slot it covers stays as it is.
//
// Successive states share their arrays. The writer appends to names past
// the published length and fills empty slots; a reader ignores both,
// because it treats a slot holding an ID at or past its own len(names) as
// empty. That is exact under linear probing: a name present in the state
// was inserted before any such slot was filled, so its probe never meets
// one. The writer replaces slots with a doubled copy at 3/4 load.
type tableState struct {
	seed maphash.Seed
	// slots is the index, a power-of-two array probed from a name's hash.
	slots []slot
	names []string // names[id]; names[0] is "" for None
}

// slot is one index entry. The writer sets name before it stores e, and a
// reader reads name only for an ID its state covers, so name needs no
// atomic access. Keeping the name beside its word spares a lookup the
// dependent load of names[id].
type slot struct {
	e    atomic.Uint64 // hash<<32 | ID; 0 marks an empty slot
	name string
}

// NewTable returns an empty table.
// dtdvet:allow locks -- builds a fresh Table not yet shared with any goroutine
func NewTable() *Table {
	t := &Table{work: tableState{
		seed:  maphash.MakeSeed(),
		slots: make([]slot, minSlots),
		names: []string{""},
	}}
	t.publishLocked()
	return t
}

// find returns the ID of name in s, or None. h is name's hash under
// s.seed.
func find[T string | []byte](s *tableState, h uint32, name T) int32 {
	mask := uint32(len(s.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		sl := &s.slots[i]
		e := sl.e.Load()
		id := int32(uint32(e))
		if e == 0 || int(id) >= len(s.names) {
			return None
		}
		if uint32(e>>32) == h && sl.name == string(name) {
			return id
		}
	}
}

// lookup returns the ID of name in s, or None.
func (s *tableState) lookup(name string) int32 {
	return find(s, uint32(maphash.String(s.seed, name)), name)
}

// addLocked returns the ID of name in the writer's state, appending it
// when new. name is not empty.
// dtdvet:requires mu
func (t *Table) addLocked(name string) int32 {
	w := &t.work
	h := uint32(maphash.String(w.seed, name))
	if id := find(w, h, name); id != None {
		return id
	}
	if 4*len(w.names) > 3*len(w.slots) {
		w.slots = regrow(w.slots)
	}
	id := int32(len(w.names))
	w.names = append(w.names, name)
	place(w.slots, uint64(h)<<32|uint64(uint32(id)), name)
	return id
}

// place fills the first empty slot of the probe of the word e.
func place(slots []slot, e uint64, name string) {
	mask := uint32(len(slots) - 1)
	for i := uint32(e>>32) & mask; ; i = (i + 1) & mask {
		if sl := &slots[i]; sl.e.Load() == 0 {
			sl.name = name
			sl.e.Store(e)
			return
		}
	}
}

// regrow returns an index twice the size of slots holding the same entries.
// Every ID in slots is below the length of any state published with the
// new index, so the order of re-insertion does not matter to readers.
func regrow(slots []slot) []slot {
	grown := make([]slot, 2*len(slots))
	for i := range slots {
		if e := slots[i].e.Load(); e != 0 {
			place(grown, e, slots[i].name)
		}
	}
	return grown
}

// publishLocked makes the writer's state visible to readers.
// dtdvet:requires mu
func (t *Table) publishLocked() {
	w := t.work
	t.state.Store(&w)
}

// Len returns the number of interned symbols (excluding None).
func (t *Table) Len() int { return len(t.state.Load().names) - 1 }

// ID returns the ID of name, or None when it has never been interned.
// Lock-free.
func (t *Table) ID(name string) int32 { return t.state.Load().lookup(name) }

// Name returns the symbol with the given ID, or "" for None and
// out-of-range IDs. Lock-free.
func (t *Table) Name(id int32) string { return View{s: t.state.Load()}.Name(id) }

// NameIs reports whether id is a valid ID naming exactly name. It lets a
// consumer verify a cached ID (e.g. xmltree.Node.LabelID, possibly stamped
// by a different table) before trusting it. Lock-free.
func (t *Table) NameIs(id int32, name string) bool {
	return View{s: t.state.Load()}.NameIs(id, name)
}

// View is an immutable point-in-time snapshot of a Table. All its lookups
// read the one state loaded when the view was taken, so a consumer that
// resolves many IDs (e.g. extracting a document's structural signature)
// sees a consistent alphabet and pays the atomic load once instead of per
// lookup. Symbols interned after the view was taken resolve to None.
type View struct {
	s *tableState
}

// View returns a snapshot of the table's current state.
func (t *Table) View() View { return View{s: t.state.Load()} }

// ID returns the ID of name in the snapshot, or None.
func (v View) ID(name string) int32 { return v.s.lookup(name) }

// Len returns the number of symbols in the snapshot (excluding None).
func (v View) Len() int { return len(v.s.names) - 1 }

// Name returns the symbol with the given ID in the snapshot, or "".
func (v View) Name(id int32) string {
	if id <= 0 || int(id) >= len(v.s.names) {
		return ""
	}
	return v.s.names[id]
}

// NameIs reports whether id is a valid snapshot ID naming exactly name.
func (v View) NameIs(id int32, name string) bool {
	return id > 0 && int(id) < len(v.s.names) && v.s.names[id] == name
}

// Intern returns the ID of name, assigning the next dense ID when the name
// is new. The read path is lock-free; only the first interning of a name
// takes the write lock. Interning "" is a no-op returning None.
func (t *Table) Intern(name string) int32 {
	if name == "" {
		return None
	}
	if id := t.state.Load().lookup(name); id != None {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.addLocked(name)
	t.publishLocked()
	return id
}

// Overlay resolves one document's names against a View without writing
// to the table, so a document that never commits leaves no symbols
// behind. A name the view holds gets its ID. A new name gets the ID it
// would receive if the document's new names were interned now, in order of
// first sighting: the view's length + 1 + its rank among them. Those IDs
// are positive and name nothing the view holds, and interning Names into a
// table that has not grown since the view assigns exactly them (Commit).
// The found path does not copy the name; only a name's first sighting
// allocates. An Overlay satisfies xmltree.Interner; it is not safe for
// concurrent use.
type Overlay struct {
	v     View
	fresh map[string]int32 // new name → provisional ID
	names []string         // new names, in order of first sighting
}

// Reset starts a new document against v.
func (o *Overlay) Reset(v View) {
	o.v = v
	clear(o.fresh)
	o.names = o.names[:0]
}

// InternBytes returns the ID and canonical string of the name spelled by
// b: the view's, or a provisional one for a name the view lacks. An empty
// b returns (None, "").
func (o *Overlay) InternBytes(b []byte) (int32, string) {
	if len(b) == 0 {
		return None, ""
	}
	s := o.v.s
	if id := find(s, uint32(maphash.Bytes(s.seed, b)), b); id != None {
		return id, s.names[id]
	}
	if id, ok := o.fresh[string(b)]; ok {
		return id, o.names[int(id)-len(s.names)]
	}
	if o.fresh == nil {
		o.fresh = make(map[string]int32)
	}
	name := string(b)
	id := int32(len(s.names) + len(o.names))
	o.fresh[name] = id
	o.names = append(o.names, name)
	return id, name
}

// Names returns the new names in order of first sighting.
func (o *Overlay) Names() []string { return o.names }

// Commit interns Names into t and maps the provisional ID of each new name
// t gave another ID to that ID: nil when there is none, as when t had not
// grown since the view.
func (o *Overlay) Commit(t *Table) map[int32]int32 {
	t.InternAll(o.names)
	var m map[int32]int32
	for i, name := range o.names {
		if id, p := t.ID(name), int32(o.v.Len()+1+i); id != p {
			if m == nil {
				m = make(map[int32]int32, len(o.names))
			}
			m[p] = id
		}
	}
	return m
}

// InternAll interns every name in names in slice order, taking the write
// lock and publishing once. Empty names are skipped.
func (t *Table) InternAll(names []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.work.names)
	for _, name := range names {
		if name != "" {
			t.addLocked(name)
		}
	}
	if len(t.work.names) > n {
		t.publishLocked()
	}
}

// Names returns the interned symbols in ID order, starting at ID 1.
func (t *Table) Names() []string {
	s := t.state.Load()
	out := make([]string, len(s.names)-1)
	copy(out, s.names[1:])
	return out
}

// InternDTD interns every element name and every content-model label of d,
// in one batched table extension. Called once per DTD at pool-compile time.
//
// The walk is deterministic (dtd.DTD.Declared order): the ID assignment
// must be a pure function of the operation history, so that a WAL replay
// reproduces the live table exactly and snapshots carrying interned IDs
// (source snapshot v2) compare equal across recoveries.
func InternDTD(t *Table, d *dtd.DTD) {
	if d == nil {
		return
	}
	names := make([]string, 0, 2*len(d.Elements))
	for _, name := range d.Declared() {
		names = append(names, name)
		names = collectContent(names, d.Elements[name])
	}
	t.InternAll(names)
}

func collectContent(names []string, c *dtd.Content) []string {
	if c == nil {
		return names
	}
	if c.Kind == dtd.Name {
		return append(names, c.Name)
	}
	for _, ch := range c.Children {
		names = collectContent(names, ch)
	}
	return names
}

// InternDocument interns the tag of every element node under root, in
// document order, and stamps the node's cached LabelID. The table itself
// is safe for concurrent interning, but stamping writes to the nodes:
// callers must be the only writer of the tree (the source engine stamps
// documents under its write lock, just before recording).
func InternDocument(t *Table, root *xmltree.Node) {
	if root == nil {
		return
	}
	if root.Kind == xmltree.Element {
		root.SetLabelID(t.Intern(root.Name))
	}
	for _, c := range root.Children {
		InternDocument(t, c)
	}
}
