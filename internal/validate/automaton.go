package validate

import (
	"math/bits"
	"sync"

	"dtdevolve/internal/dtd"
)

// Automaton is the Thompson-style automaton of one content model. Every
// Name leaf contributes one symbol edge and every operator only epsilon
// edges, so a model of k nodes compiles to at most 2k states. EMPTY and
// #PCDATA leaves match the empty sequence, and a nested ANY becomes a
// wildcard loop that consumes any tag. An Automaton is immutable once
// compiled and safe to share between goroutines.
type Automaton struct {
	states        []state
	start, accept int32
}

// state is one automaton state: its epsilon successors and at most one
// symbol edge.
type state struct {
	eps  []int32
	name string // the tag the symbol edge consumes
	next int32  // the symbol edge's target; -1 when the state has none
	any  bool   // the symbol edge consumes every tag (a nested ANY)
}

// compile builds the automaton of model read as element content.
func compile(model *dtd.Content) *Automaton {
	a := &Automaton{}
	a.start, a.accept = a.build(model)
	return a
}

func (a *Automaton) newState() int32 {
	a.states = append(a.states, state{next: -1})
	return int32(len(a.states) - 1)
}

func (a *Automaton) eps(from, to int32) {
	a.states[from].eps = append(a.states[from].eps, to)
}

// build compiles c into a fragment and returns its start and accept states.
func (a *Automaton) build(c *dtd.Content) (start, accept int32) {
	start, accept = a.newState(), a.newState()
	switch c.Kind {
	case dtd.Name:
		a.states[start].name, a.states[start].next = c.Name, accept
	case dtd.Any:
		a.states[start].any, a.states[start].next = true, start
		a.eps(start, accept)
	case dtd.Seq:
		prev := start
		for _, ch := range c.Children {
			fs, fa := a.build(ch)
			a.eps(prev, fs)
			prev = fa
		}
		a.eps(prev, accept)
	case dtd.Choice:
		for _, ch := range c.Children {
			fs, fa := a.build(ch)
			a.eps(start, fs)
			a.eps(fa, accept)
		}
	case dtd.Opt, dtd.Star, dtd.Plus:
		fs, fa := a.build(c.Children[0])
		a.eps(start, fs)
		a.eps(fa, accept)
		if c.Kind != dtd.Plus {
			a.eps(start, accept)
		}
		if c.Kind != dtd.Opt {
			a.eps(fa, fs)
		}
	default: // EMPTY and #PCDATA
		a.eps(start, accept)
	}
	return start, accept
}

// Run is the set of automaton states reachable over a prefix of a child
// sequence. Each Step costs O(states), so deciding a sequence is linear in
// its length. The zero Run is ready for Reset; its buffers grow to the
// largest automaton it has run and are reused, and only the words the
// current automaton needs are ever cleared.
type Run struct {
	a         *Automaton
	cur, next []uint64
	work      []int32
}

// runs pools Run scratch for LocalValid across every Validator.
var runs = sync.Pool{New: func() any { return new(Run) }}

// Reset starts a run of a over the empty sequence.
func (r *Run) Reset(a *Automaton) {
	r.a = a
	words := (len(a.states) + 63) / 64
	if cap(r.cur) < words {
		r.cur, r.next = make([]uint64, words), make([]uint64, words)
	}
	r.cur, r.next = r.cur[:words], r.next[:words]
	clear(r.cur)
	r.work = r.work[:0]
	r.mark(r.cur, a.start)
	r.close()
}

// Step consumes one child tag. It reports whether any state is still
// reachable; once it reports false, no continuation can match.
// dtdvet:noalloc
func (r *Run) Step(tag string) bool {
	clear(r.next)
	for w, word := range r.cur {
		for word != 0 {
			st := &r.a.states[w*64+bits.TrailingZeros64(word)]
			word &= word - 1
			if st.next >= 0 && (st.any || st.name == tag) {
				r.mark(r.next, st.next)
			}
		}
	}
	r.cur, r.next = r.next, r.cur
	live := len(r.work) > 0
	r.close()
	return live
}

// Accepts reports whether the sequence consumed so far matches the model.
func (r *Run) Accepts() bool {
	return r.cur[r.a.accept/64]&(1<<(uint(r.a.accept)%64)) != 0
}

// mark adds s to set, queueing it for the epsilon closure when new.
// dtdvet:noalloc
func (r *Run) mark(set []uint64, s int32) {
	if bit := uint64(1) << (uint(s) % 64); set[s/64]&bit == 0 {
		set[s/64] |= bit
		r.work = append(r.work, s)
	}
}

// close extends the current set over epsilon edges from the queued states.
// dtdvet:noalloc
func (r *Run) close() {
	for len(r.work) > 0 {
		s := r.work[len(r.work)-1]
		r.work = r.work[:len(r.work)-1]
		for _, t := range r.a.states[s].eps {
			r.mark(r.cur, t)
		}
	}
}
