package classify

// FuzzDocSignature cross-checks the one-pass signature extractor against an
// independent reference walker on arbitrary parsed documents, with mixed
// known/unknown labels, varying recursion caps, stale label stamps from a
// foreign symbol table, and buffers left over from an earlier extraction.

import (
	"math"
	"sort"
	"strings"
	"testing"

	"dtdevolve/internal/intern"
	"dtdevolve/internal/xmltree"
)

// refSig recomputes a docSig naively: collect every element with its level
// and parent via an explicit stack, then build the maps with math.Pow. It
// shares no code with extractSig beyond the xmltree API.
func refSig(root *xmltree.Node, v intern.View, decay float64, depthCap int) *docSig {
	s := &docSig{levels: make([]float64, depthCap+1)}
	if root == nil || !root.IsElement() {
		return s
	}
	s.rootID = v.ID(root.Name)
	type frame struct {
		n      *xmltree.Node
		parent int32
		level  int
	}
	lw := make(map[int32]float64)
	pw := make(map[uint64]float64)
	stack := []frame{{root, intern.None, 0}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		id := v.ID(f.n.Name)
		w := math.Pow(decay, float64(f.level))
		s.levels[f.level] += w
		s.total += w
		if id != intern.None {
			lw[id] += w
			if f.level > 0 && f.parent != intern.None {
				pw[uint64(uint32(f.parent))<<32|uint64(uint32(id))] += w
			}
		}
		if f.level >= depthCap {
			continue
		}
		text := false
		// Reverse order keeps LIFO traversal close to document order; the
		// maps are order-insensitive up to float rounding anyway.
		for i := len(f.n.Children) - 1; i >= 0; i-- {
			c := f.n.Children[i]
			switch c.Kind {
			case xmltree.Element:
				stack = append(stack, frame{c, id, f.level + 1})
			case xmltree.Text:
				if strings.TrimSpace(c.Data) != "" {
					text = true
				}
			}
		}
		if text {
			s.textBonus += math.Pow(decay, float64(f.level+1))
		}
	}
	for id := range lw {
		s.labels = append(s.labels, id)
	}
	sort.Slice(s.labels, func(i, j int) bool { return s.labels[i] < s.labels[j] })
	s.labelW = make([]float64, len(s.labels))
	for i, id := range s.labels {
		s.labelW[i] = lw[id]
	}
	for k := range pw {
		s.pairs = append(s.pairs, k)
	}
	sort.Slice(s.pairs, func(i, j int) bool { return s.pairs[i] < s.pairs[j] })
	s.pairW = make([]float64, len(s.pairs))
	for i, k := range s.pairs {
		s.pairW[i] = pw[k]
	}
	return s
}

func sigClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

func diffSigs(t *testing.T, label string, got, want *docSig) {
	t.Helper()
	if got.rootID != want.rootID {
		t.Errorf("%s: root %d, want %d", label, got.rootID, want.rootID)
	}
	if !sigClose(got.total, want.total) || !sigClose(got.textBonus, want.textBonus) {
		t.Errorf("%s: total/text (%v, %v), want (%v, %v)", label, got.total, got.textBonus, want.total, want.textBonus)
	}
	if len(got.levels) != len(want.levels) {
		t.Fatalf("%s: %d levels, want %d", label, len(got.levels), len(want.levels))
	}
	for i := range got.levels {
		if !sigClose(got.levels[i], want.levels[i]) {
			t.Errorf("%s: levels[%d] = %v, want %v", label, i, got.levels[i], want.levels[i])
		}
	}
	if len(got.labels) != len(want.labels) {
		t.Fatalf("%s: %d labels, want %d", label, len(got.labels), len(want.labels))
	}
	for i := range got.labels {
		if got.labels[i] != want.labels[i] || !sigClose(got.labelW[i], want.labelW[i]) {
			t.Errorf("%s: label[%d] = (%d, %v), want (%d, %v)",
				label, i, got.labels[i], got.labelW[i], want.labels[i], want.labelW[i])
		}
	}
	if len(got.pairs) != len(want.pairs) {
		t.Fatalf("%s: %d pairs, want %d", label, len(got.pairs), len(want.pairs))
	}
	for i := range got.pairs {
		if got.pairs[i] != want.pairs[i] || !sigClose(got.pairW[i], want.pairW[i]) {
			t.Errorf("%s: pair[%d] = (%x, %v), want (%x, %v)",
				label, i, got.pairs[i], got.pairW[i], want.pairs[i], want.pairW[i])
		}
	}
}

// dirtyDoc fills a signature buffer with labels, pairs, levels and text
// before the fuzzed extraction reuses it.
var dirtyDoc = func() *xmltree.Document {
	doc, err := xmltree.ParseString(`<z><y>t<x><w>u</w><w/></x></y><catalog><product>p</product></catalog><q/><q/></z>`)
	if err != nil {
		panic(err)
	}
	return doc
}()

func FuzzDocSignature(f *testing.F) {
	f.Add(`<catalog><product><name>x</name><price>1</price></product></catalog>`, uint8(4))
	f.Add(`<a><b><c><d><e/></d></c></b>text</a>`, uint8(2))
	f.Add(`<r>   </r>`, uint8(63))
	f.Add(`<x><x><x>deep</x></x></x>`, uint8(1))
	f.Fuzz(func(t *testing.T, src string, capRaw uint8) {
		doc, err := xmltree.ParseString(src)
		if err != nil {
			t.Skip()
		}
		depthCap := int(capRaw)%64 + 1
		// Intern every other distinct label, so extraction sees a mix of
		// known and unknown tags.
		tab := intern.NewTable()
		seen := make(map[string]int)
		doc.Root.Walk(func(n *xmltree.Node, _ int) bool {
			if n.IsElement() {
				if _, ok := seen[n.Name]; !ok {
					seen[n.Name] = len(seen)
					if len(seen)%2 == 1 && n.Name != "" {
						tab.Intern(n.Name)
					}
				}
			}
			return true
		})
		v := tab.View()
		before := tab.Len()

		// Dirty the buffers first: a deeper, wider signature over other
		// labels must leave nothing behind in the next one.
		var buf sigBuf
		buf.extractSig(dirtyDoc.Root, v, 0.9, 64)
		got := buf.extractSig(doc.Root, v, 0.5, depthCap)
		want := refSig(doc.Root, v, 0.5, depthCap)
		diffSigs(t, "reused", got, want)

		if tab.Len() != before {
			t.Errorf("extractSig interned %d symbols; extraction must never extend the table", tab.Len()-before)
		}

		// Stamp every node from a foreign table: stale IDs must not leak
		// into the signature (sigID verifies stamps against the snapshot).
		foreign := intern.NewTable()
		foreign.Intern("decoy0")
		foreign.Intern("decoy1")
		intern.InternDocument(foreign, doc.Root)
		stamped := buf.extractSig(doc.Root, v, 0.5, depthCap)
		diffSigs(t, "foreign-stamped", stamped, want)
	})
}
