package dtdevolve_test

// A work-count gate for classification on the registry of
// BenchmarkClassifyManyDTDs: a count of alignments, unlike a time, holds
// on a noisy host.

import (
	"reflect"
	"runtime"
	"testing"

	"dtdevolve/internal/classify"
	"dtdevolve/internal/dtd"
	"dtdevolve/internal/similarity"
)

// manyDTDAlignments is how many DP alignments a fresh pruned classifier
// over manyDTDRegistry runs to classify each of its 32 documents once.
const manyDTDAlignments = 249

// TestManyDTDAlignmentCount: a fresh pruned classifier over
// manyDTDRegistry, classifying each of its documents once, runs exactly
// manyDTDAlignments alignments, and returns the same results, candidates
// included, at GOMAXPROCS 1 and 4. A classification scores its plan in
// order on its caller's goroutine, so what it scores and what it prunes
// depend only on the registry and the document.
func TestManyDTDAlignmentCount(t *testing.T) {
	type named struct {
		name string
		d    *dtd.DTD
	}
	var dtds []named
	docs := manyDTDRegistry(func(name string, d *dtd.DTD) { dtds = append(dtds, named{name, d}) })
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want []classify.Result
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		c := classify.New(0.7, similarity.DefaultConfig())
		for _, n := range dtds {
			c.Set(n.name, n.d)
		}
		results := make([]classify.Result, len(docs))
		for i, doc := range docs {
			results[i] = c.Classify(doc)
		}
		if got := c.Stats().Scored; got != manyDTDAlignments {
			t.Errorf("GOMAXPROCS %d: %d alignments for %d documents, want %d", procs, got, len(docs), manyDTDAlignments)
		}
		if want == nil {
			want = results
			continue
		}
		for i := range results {
			if !reflect.DeepEqual(results[i], want[i]) {
				t.Errorf("GOMAXPROCS %d, document %d: %+v, want %+v as at GOMAXPROCS 1", procs, i, results[i], want[i])
			}
		}
	}
}
