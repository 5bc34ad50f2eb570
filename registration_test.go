package dtdevolve_test

// Linear-cost gates for growing the symbol table: registering a DTD and
// adding a document with a fresh tag must cost what the DTD or the document
// costs, not what the table already holds (DESIGN.md §9).

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"dtdevolve/internal/dtd"
	"dtdevolve/internal/gen"
	"dtdevolve/internal/source"
	"dtdevolve/internal/xmltree"
)

// trials is how many times a linear gate repeats its growth before it
// fails: the host may be busy during one run, but a cost that grows with
// the symbol table shows in every run.
const trials = 3

// blockRatio times op(i) for i in [0, total) and returns the median
// duration among the last block calls over the median among the first
// block calls. Medians, not sums: a GC cycle or a preemption lands on a
// few calls of a block, and a cost that grows with the table lands on
// every one.
func blockRatio(total, block int, op func(i int)) (ratio float64, first, last time.Duration) {
	times := make([]time.Duration, total)
	for i := range times {
		start := time.Now()
		op(i)
		times[i] = time.Since(start)
	}
	median := func(d []time.Duration) time.Duration {
		d = slices.Clone(d)
		slices.Sort(d)
		return d[len(d)/2]
	}
	first, last = median(times[:block]), median(times[total-block:])
	return float64(last) / float64(first), first, last
}

// TestAddDTDLinear registers 2,000 generated DTDs, each with its own
// vocabulary, into a fresh Source, and compares the median time of an
// AddDTD among the last 250 with the median among the first 250. A
// registration that scales with the symbol table reads 8.6–12 here.
func TestAddDTDLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("registers 2,000 DTDs")
	}
	const total, block = 2000, 250
	g := gen.New(gen.DefaultConfig(7))
	dtds := make([]*dtd.DTD, total)
	for i := range dtds {
		dtds[i] = g.RandomDTD(fmt.Sprintf("r%04d", i), 6)
	}
	var ratio float64
	for trial := 0; trial < trials; trial++ {
		src := source.New(source.DefaultConfig())
		r, first, last := blockRatio(total, block, func(i int) {
			src.AddDTD(fmt.Sprintf("d%04d", i), dtds[i])
		})
		t.Logf("median AddDTD: %v among the first %d, %v among the last %d (ratio %.2f)",
			first, block, last, block, r)
		if ratio = r; ratio < 3 {
			return
		}
	}
	t.Errorf("per-DTD registration cost grows %.1fx from %d to %d DTDs, want < 3", ratio, block, total)
}

// TestAddFreshTagLinear adds 20,000 small documents that each bring one tag
// no document or DTD used before, with no WAL and auto-evolution off, and
// compares the median time of an Add among the last 1,000 (about 20,000
// symbols) with the median among the first 1,000. An intern table that
// copies itself per fresh symbol reads ~37 here.
func TestAddFreshTagLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("adds 20,000 documents")
	}
	const total, block = 20000, 1000
	texts := make([]string, total)
	for i := range texts {
		texts[i] = fmt.Sprintf("<a><b>x</b><t%06d/></a>", i)
	}
	d := dtd.MustParse(`<!ELEMENT a (b)> <!ELEMENT b (#PCDATA)>`)
	d.Name = "a"
	var ratio float64
	for trial := 0; trial < trials; trial++ {
		docs := make([]*xmltree.Document, total)
		for i, text := range texts {
			doc, err := xmltree.ParseString(text)
			if err != nil {
				t.Fatal(err)
			}
			docs[i] = doc
		}
		cfg := source.DefaultConfig()
		cfg.AutoEvolve = false
		src := source.New(cfg)
		src.AddDTD("a", d)
		r, first, last := blockRatio(total, block, func(i int) { src.Add(docs[i]) })
		t.Logf("median Add: %v among the first %d, %v among the last %d (ratio %.2f)",
			first, block, last, block, r)
		if ratio = r; ratio < 3 {
			return
		}
	}
	t.Errorf("per-document cost grows %.1fx from %d to %d symbols, want < 3", ratio, block, total)
}
