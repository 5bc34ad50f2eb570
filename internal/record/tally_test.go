package record

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dtdevolve/internal/dtd"
	"dtdevolve/internal/xmltree"
)

// TestTallyMatchesMap drives one reused tally through instances of every
// width around the scan/index switch and past several index growths,
// against a map-based reference.
func TestTallyMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tl tally
	for _, width := range []int{0, 1, tallyScan, tallyScan + 1, 20, 3, 300, tallyScan + 1, 1000, 40} {
		for round := 0; round < 3; round++ {
			tl.reset()
			type ref struct{ count, first, last int }
			want := make(map[int32]*ref)
			var order []int32
			for idx := 0; idx < 4*width; idx++ {
				id := int32(1 + rng.Intn(width)*7)
				if r, ok := want[id]; ok {
					r.count++
					r.last = idx
				} else {
					want[id] = &ref{count: 1, first: idx, last: idx}
					order = append(order, id)
				}
				if i := tl.find(id); i >= 0 {
					s := &tl.slots[i]
					s.count++
					s.last = idx
				} else {
					tl.push(id, idx)
				}
			}
			if len(tl.slots) != len(order) {
				t.Fatalf("width %d: %d slots, want %d", width, len(tl.slots), len(order))
			}
			for i, id := range order {
				s, r := tl.slots[i], want[id]
				if s.id != id || s.count != r.count || s.first != r.first || s.last != r.last {
					t.Fatalf("width %d: slot %d = %+v, want id %d %+v", width, i, s, id, *r)
				}
				if got := tl.find(id); got != i {
					t.Fatalf("width %d: find(%d) = %d, want %d", width, id, got, i)
				}
			}
			if got := tl.find(-5); got != -1 {
				t.Fatalf("width %d: find of an absent label = %d", width, got)
			}
		}
	}
}

// TestStreamRecorderMatchesRecorderWide runs the equivalence over elements
// with more distinct child labels than a tally scans, plus elements
// included, so both recorders go through the hashed index.
func TestStreamRecorderMatchesRecorderWide(t *testing.T) {
	d := dtd.MustParse(`<!ELEMENT r (c0 | c1 | c2 | c3)*> <!ELEMENT c0 EMPTY> <!ELEMENT c1 EMPTY> <!ELEMENT c2 EMPTY> <!ELEMENT c3 (#PCDATA)>`)
	rng := rand.New(rand.NewSource(2))
	var docs []*xmltree.Document
	for _, width := range []int{4, tallyScan + 1, 30, 120} {
		var b strings.Builder
		b.WriteString("<r>")
		for i := 0; i < 3*width; i++ {
			name := fmt.Sprintf("c%d", rng.Intn(width))
			fmt.Fprintf(&b, "<%s><w%d/><w%d/></%s>", name, rng.Intn(width), rng.Intn(width), name)
		}
		b.WriteString("</r>")
		docs = append(docs, parseDoc(t, b.String()))
	}
	runEquivalence(t, "wide", []*dtd.DTD{d, emptyAll(docs)}, docs)
}
