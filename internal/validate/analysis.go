package validate

// Static analyses of content models, walked over the epsilon closures of
// the automaton LocalValid runs.

import (
	"encoding/binary"
	"fmt"
	"sort"

	"dtdevolve/internal/dtd"
	"dtdevolve/internal/intern"
)

// CheckDeterminism returns a description of every determinism conflict in
// the content model. XML 1.0 requires an element to match exactly one
// occurrence of its name without lookahead (Appendix E), so a model
// conflicts where one epsilon closure, of the start state or of a symbol
// edge's target, holds two symbol edges on the same name. Evolved
// declarations, misc-window merges like ((a, b) | (a, c)) in particular,
// can conflict: this library's validator handles them, a strictly
// conforming XML processor may reject them. An empty result means the
// model satisfies the constraint.
func CheckDeterminism(c *dtd.Content) []string {
	if c == nil {
		return nil
	}
	r := Run{a: Compile(c, intern.NewTable())}
	var out []string
	seen := make(map[string]bool)
	report := func(context string, set []uint64) {
		count := make(map[string]int)
		for _, e := range r.edges(set) {
			count[e.Name]++
		}
		var names []string
		for name, n := range count {
			if n > 1 {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			msg := fmt.Sprintf("%s: element %q matches %d competing occurrences", context, name, count[name])
			if !seen[msg] {
				seen[msg] = true
				out = append(out, msg)
			}
		}
	}
	report("at start", r.a.first)
	for _, e := range r.edges(nil) {
		report(fmt.Sprintf("after %q", e.Name), r.closure(e.To))
	}
	return out
}

// IsDeterministic reports whether the content model satisfies the XML 1.0
// determinism constraint.
func IsDeterministic(c *dtd.Content) bool {
	return len(CheckDeterminism(c)) == 0
}

// DTDDeterminism returns the determinism conflicts of every declaration,
// keyed by element name; an empty map means the whole DTD is deterministic.
func DTDDeterminism(d *dtd.DTD) map[string][]string {
	out := make(map[string][]string)
	for name, model := range d.Elements {
		if issues := CheckDeterminism(model); len(issues) > 0 {
			out[name] = issues
		}
	}
	return out
}

// Equivalent reports whether two content models accept the same set of
// child-element sequences, the paper's promise for its re-writing rules
// ("with the same set of valid documents"). Character data is ignored:
// (#PCDATA) and EMPTY are equivalent at the child-sequence level, while
// ANY (which admits any declared element) is only equivalent to ANY. The
// check determinizes both automata on the fly, a DFA state being a closed
// state set, and searches their product for a pair disagreeing on
// acceptance.
func Equivalent(x, y *dtd.Content) bool {
	if x == nil || y == nil {
		return x == y
	}
	// ANY is not a regular language over a fixed alphabet here; treat it
	// nominally.
	if x.Kind == dtd.Any || y.Kind == dtd.Any {
		return x.Kind == y.Kind
	}
	tab := intern.NewTable()
	rx, ry := Run{a: Compile(x, tab)}, Run{a: Compile(y, tab)}
	type pair struct{ x, y []uint64 }
	seen := make(map[string]bool)
	queue := []pair{{rx.a.first, ry.a.first}}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		key := string(setKey(setKey(nil, p.x), p.y))
		if seen[key] {
			continue
		}
		seen[key] = true
		if has(p.x, rx.a.accept) != has(p.y, ry.a.accept) {
			return false
		}
		ids := make(map[int32]bool)
		for _, e := range append(rx.edges(p.x), ry.edges(p.y)...) {
			ids[e.ID] = true
		}
		for id := range ids {
			queue = append(queue, pair{rx.move(p.x, id), ry.move(p.y, id)})
		}
	}
	return true
}

// EquivalentDTDs reports whether two DTDs declare the same element names
// with pairwise equivalent content models.
func EquivalentDTDs(a, b *dtd.DTD) bool {
	if len(a.Elements) != len(b.Elements) {
		return false
	}
	for name, ma := range a.Elements {
		mb, ok := b.Elements[name]
		if !ok || !Equivalent(ma, mb) {
			return false
		}
	}
	return true
}

// edges returns the symbol edges of the states in set (of every state for
// a nil set), in state order.
func (r *Run) edges(set []uint64) []Edge {
	var out []Edge
	for s, st := range r.a.states {
		if e := st.sym; e.To >= 0 && (set == nil || has(set, int32(s))) {
			out = append(out, e)
		}
	}
	return out
}

// move returns the closed set reached from set over the edges labelled id.
func (r *Run) move(set []uint64, id int32) []uint64 {
	var seeds []int32
	for _, e := range r.edges(set) {
		if e.ID == id {
			seeds = append(seeds, e.To)
		}
	}
	return r.closure(seeds...)
}

// setKey appends set's words to b, for a map key.
func setKey(b []byte, set []uint64) []byte {
	for _, w := range set {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}
