package source

// Regression test for the scoring fan-out. A batch once scored on one
// goroutine per document, and each classification on one goroutine per
// registered DTD, so a large batch over a large registry could stand up
// documents × DTDs goroutines at once. A batch now scores on a worker pool
// sized to the core count, and each worker scores a document's candidates
// on its own goroutine: the ceiling is GOMAXPROCS workers, whatever the
// batch or the registry size. Run with -race.

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"dtdevolve/internal/gen"
	"dtdevolve/internal/xmltree"
)

func TestAddBatchGoroutineCeiling(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(t *testing.T) (*Source, []*xmltree.Document)
	}{
		// A large batch over one DTD: the batch's own fan-out.
		{"OneDTD", func(t *testing.T) (*Source, []*xmltree.Document) {
			s := New(DefaultConfig())
			s.AddDTD("article", articleDTD())
			docs := make([]*xmltree.Document, 512)
			for i := range docs {
				docs[i] = parseDoc(t, `<article><title>t</title><author>a</author><ref/><ref/><body>b</body></article>`)
			}
			return s, docs
		}},
		// A batch over 300 DTDs: the per-classification fan-out.
		{"ManyDTDs", func(t *testing.T) (*Source, []*xmltree.Document) {
			s := New(DefaultConfig())
			g := gen.New(gen.DefaultConfig(7))
			const nDTDs = 300
			for i := 0; i < nDTDs; i++ {
				root := fmt.Sprintf("many%03d", i)
				if i%10 == 0 {
					// Every tenth DTD shares one root, so its documents
					// have real candidate competition.
					root = "shared"
				}
				s.AddDTD(fmt.Sprintf("d%03d", i), g.RandomDTD(root, 6))
			}
			var docs []*xmltree.Document
			for i := 0; i < nDTDs; i += 37 {
				docs = append(docs, g.MutatedDocuments(s.DTD(fmt.Sprintf("d%03d", i)), 16, 2, 0.5)...)
			}
			for len(docs) < 256 {
				docs = append(docs, docs[len(docs)%128])
			}
			return s, docs
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, docs := tc.setup(t)
			before := runtime.NumGoroutine()
			// Batch workers (≤ GOMAXPROCS) plus slack for the runtime and
			// the test harness.
			limit := before + runtime.GOMAXPROCS(0) + 8
			resCh := make(chan []AddResult, 1)
			go func() { resCh <- s.AddBatch(docs) }()
			peak := before
			ticker := time.NewTicker(100 * time.Microsecond)
			defer ticker.Stop()
			for {
				select {
				case res := <-resCh:
					if len(res) != len(docs) {
						t.Fatalf("got %d results, want %d", len(res), len(docs))
					}
					if peak > limit {
						t.Errorf("peak goroutines %d (baseline %d), want <= %d: scoring fan-out is unbounded", peak, before, limit)
					}
					return
				case <-ticker.C:
					if n := runtime.NumGoroutine(); n > peak {
						peak = n
					}
				}
			}
		})
	}
}
