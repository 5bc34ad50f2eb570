package classify

import (
	"fmt"
	"runtime"
	"testing"

	"dtdevolve/internal/dtd"
	"dtdevolve/internal/intern"
	"dtdevolve/internal/similarity"
)

// memShapeSrc builds the i-th DTD shape for the memory benchmark: a root
// with a few elements shared across shapes (so posting lists grow long, the
// worst case for the index) and a few unique to the shape (so the alphabet
// keeps growing, the worst case for the symbol table).
func memShapeSrc(i int) string {
	return fmt.Sprintf(`
<!ELEMENT root%[1]d (title, body, u%[1]da, u%[1]db*)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT body (para+)>
<!ELEMENT para (#PCDATA)>
<!ELEMENT u%[1]da (#PCDATA)>
<!ELEMENT u%[1]db (para)>`, i)
}

// BenchmarkClassifyIndexMemory reports the resident cost of the
// candidate-pruning index alone — dtdSig structs, the slot arrays and the
// inverted posting lists — per registered DTD. Everything a registration
// shares or amortizes (the DTD AST, the evaluator pool, the symbol table)
// is built before the measurement, so the bytes/DTD number is the marginal
// footprint a deployment pays for each additional DTD in a many-DTD
// registry; DESIGN.md §12 quotes it. Two registries:
//
//   - Shapes16: 100,000 DTDs cycling through 16 shapes, so posting lists
//     grow long while the symbol table stays small;
//   - Fresh: 5,000 DTDs that each bring their own labels, as in a real
//     registry, so the symbol table grows with the registry and a
//     signature sized by the table would grow with it.
//
// Not in the CI bench set: forced GCs make its ns/op meaningless and the
// inner loops make it slow. Run by hand:
//
//	go test -run xxx -bench ClassifyIndexMemory ./internal/classify
func BenchmarkClassifyIndexMemory(b *testing.B) {
	b.Run("Shapes16", func(b *testing.B) { benchIndexMemory(b, 100_000, 16) })
	b.Run("Fresh", func(b *testing.B) { benchIndexMemory(b, 5_000, 5_000) })
}

// benchIndexMemory registers n DTDs cycling through the given number of
// shapes, each built with its evaluator pool beforehand, and reports the
// heap the registrations keep per DTD.
func benchIndexMemory(b *testing.B, n, shapes int) {
	cfg := similarity.DefaultConfig()
	tab := intern.NewTable()
	type shape struct {
		d    *dtd.DTD
		pool *similarity.Pool
	}
	built := make([]shape, shapes)
	for i := range built {
		d, err := dtd.ParseString(memShapeSrc(i))
		if err != nil {
			b.Fatal(err)
		}
		d.Name = fmt.Sprintf("root%d", i)
		// The pool interns every label of d into the shared table, so the
		// measured loop allocates no symbols.
		built[i] = shape{d: d, pool: similarity.NewPoolWithTable(d, cfg, tab)}
	}

	var bytesPerDTD float64
	var m0, m1 runtime.MemStats
	for it := 0; it < b.N; it++ {
		c := NewWithTable(0.7, cfg, tab)
		b.StopTimer()
		runtime.GC()
		runtime.ReadMemStats(&m0)
		b.StartTimer()
		for i := 0; i < n; i++ {
			s := built[i%shapes]
			g := buildSig(fmt.Sprintf("dtd-%06d", i), s.d, s.pool)
			c.mu.Lock()
			c.setLocked(g)
			c.mu.Unlock()
		}
		b.StopTimer()
		runtime.GC()
		runtime.ReadMemStats(&m1)
		bytesPerDTD = float64(m1.HeapAlloc-m0.HeapAlloc) / float64(n)
		b.StartTimer()
		runtime.KeepAlive(c)
	}
	b.ReportMetric(bytesPerDTD, "bytes/DTD")
	b.ReportMetric(float64(n), "DTDs")
}
