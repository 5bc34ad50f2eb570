package validate

import (
	"math/bits"
	"sync"

	"dtdevolve/internal/dtd"
	"dtdevolve/internal/intern"
)

// Automaton is the Thompson-style automaton of one content model, the one
// compiled form of a model: LocalValid runs it, the similarity alignment
// reads it, and the determinism and equivalence analyses walk its
// epsilon closures. Every Name leaf contributes one symbol edge, labelled
// with the interned ID of its name, and every operator only epsilon edges,
// so a model of k nodes compiles to at most 2k states, numbered in the
// order the construction visits the model. EMPTY, #PCDATA and ANY leaves
// match the empty sequence: ANY is a content specification only as a
// whole declaration, which callers decide without an automaton, and DTD
// text cannot nest one. An Automaton is immutable once compiled and safe
// to share between goroutines.
type Automaton struct {
	states        []state
	start, accept int32
	// first is the start state's epsilon closure, the set every run
	// starts from.
	first []uint64
}

// state is one automaton state: its epsilon successors and at most one
// symbol edge.
type state struct {
	eps []int32
	sym Edge
}

// Edge is a state's symbol edge.
type Edge struct {
	ID   int32  // the interned label it consumes
	To   int32  // its target state; -1 when the state has no symbol edge
	Name string // the label, for messages and alignment traces
}

// Compile builds the automaton of model read as element content, labelling
// its symbol edges with IDs from tab. A source interns its DTDs' labels
// when it registers them, so compiling against its table interns nothing
// new.
func Compile(model *dtd.Content, tab *intern.Table) *Automaton {
	// Every model node compiles to two states; sizing the state table up
	// front spares its growth allocations.
	a := &Automaton{states: make([]state, 0, 2*model.NodeCount())}
	a.start, a.accept = a.build(model, tab)
	r := runs.Get().(*Run)
	r.a = a
	a.first = r.closure(a.start)
	runs.Put(r)
	return a
}

// Len returns the number of states.
func (a *Automaton) Len() int { return len(a.states) }

// Start returns the start state.
func (a *Automaton) Start() int { return int(a.start) }

// Accept returns the accept state.
func (a *Automaton) Accept() int { return int(a.accept) }

// Eps returns the epsilon successors of state s, in construction order.
func (a *Automaton) Eps(s int) []int32 { return a.states[s].eps }

// Sym returns the symbol edge of state s; its To is -1 when s has none.
func (a *Automaton) Sym(s int) Edge { return a.states[s].sym }

func (a *Automaton) newState() int32 {
	a.states = append(a.states, state{sym: Edge{To: -1}})
	return int32(len(a.states) - 1)
}

func (a *Automaton) eps(from, to int32) {
	a.states[from].eps = append(a.states[from].eps, to)
}

// build compiles c into a fragment and returns its start and accept states.
func (a *Automaton) build(c *dtd.Content, tab *intern.Table) (start, accept int32) {
	start, accept = a.newState(), a.newState()
	switch c.Kind {
	case dtd.Name:
		a.states[start].sym = Edge{ID: tab.Intern(c.Name), To: accept, Name: c.Name}
	case dtd.Seq:
		prev := start
		for _, ch := range c.Children {
			fs, fa := a.build(ch, tab)
			a.eps(prev, fs)
			prev = fa
		}
		a.eps(prev, accept)
	case dtd.Choice:
		for _, ch := range c.Children {
			fs, fa := a.build(ch, tab)
			a.eps(start, fs)
			a.eps(fa, accept)
		}
	case dtd.Opt, dtd.Star, dtd.Plus:
		fs, fa := a.build(c.Children[0], tab)
		a.eps(start, fs)
		a.eps(fa, accept)
		if c.Kind != dtd.Plus {
			a.eps(start, accept)
		}
		if c.Kind != dtd.Opt {
			a.eps(fa, fs)
		}
	default: // EMPTY, #PCDATA and ANY
		a.eps(start, accept)
	}
	return start, accept
}

// Run is the set of automaton states reachable over a prefix of a child
// sequence. Each Step costs O(states), so deciding a sequence is linear in
// its length. The zero Run is ready for Reset; its buffers grow to the
// largest automaton it has run and are reused, so a run allocates nothing
// at steady state.
type Run struct {
	a         *Automaton
	cur, next []uint64
	// work holds states queued for the epsilon closure; a state is queued
	// only when newly added to a set.
	work []int32
}

// runs pools Run scratch for LocalValid across every Validator.
var runs = sync.Pool{New: func() any { return new(Run) }}

// Reset starts a run of a over the empty sequence.
func (r *Run) Reset(a *Automaton) {
	r.a = a
	words := len(a.first)
	if cap(r.cur) < words {
		buf := make([]uint64, 2*words)
		r.cur, r.next = buf[:words:words], buf[words:]
	}
	r.cur, r.next = r.cur[:words], r.next[:words]
	copy(r.cur, a.first)
	r.work = r.work[:0]
}

// Step consumes one child with interned label id. It reports whether any
// state is still reachable; once it reports false, no continuation can
// match.
// dtdvet:noalloc
func (r *Run) Step(id int32) bool {
	clear(r.next)
	for w, word := range r.cur {
		for word != 0 {
			e := &r.a.states[w*64+bits.TrailingZeros64(word)].sym
			word &= word - 1
			if e.To >= 0 && e.ID == id {
				r.mark(r.next, e.To)
			}
		}
	}
	r.cur, r.next = r.next, r.cur
	live := len(r.work) > 0
	r.close(r.cur)
	return live
}

// Accepts reports whether the sequence consumed so far matches the model.
func (r *Run) Accepts() bool { return has(r.cur, r.a.accept) }

// has reports whether set holds state s.
func has(set []uint64, s int32) bool {
	return set[s/64]&(1<<(uint(s)%64)) != 0
}

// mark adds s to set, queueing it for the epsilon closure when new.
// dtdvet:noalloc
func (r *Run) mark(set []uint64, s int32) {
	if bit := uint64(1) << (uint(s) % 64); set[s/64]&bit == 0 {
		set[s/64] |= bit
		r.work = append(r.work, s)
	}
}

// closure returns the epsilon closure of the seed states as a new set.
func (r *Run) closure(seeds ...int32) []uint64 {
	set := make([]uint64, (len(r.a.states)+63)/64)
	r.work = r.work[:0]
	for _, s := range seeds {
		r.mark(set, s)
	}
	r.close(set)
	return set
}

// close extends set over epsilon edges from the queued states.
// dtdvet:noalloc
func (r *Run) close(set []uint64) {
	for len(r.work) > 0 {
		s := r.work[len(r.work)-1]
		r.work = r.work[:len(r.work)-1]
		for _, t := range r.a.states[s].eps {
			r.mark(set, t)
		}
	}
}
