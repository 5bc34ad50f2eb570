package record

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dtdevolve/internal/dtd"
	"dtdevolve/internal/gen"
	"dtdevolve/internal/intern"
	"dtdevolve/internal/validate"
	"dtdevolve/internal/xmltree"
)

// statsGoldenPath holds the Snapshot of every case of statsGoldenCases.
// The tree-vs-stream suites cannot see a change both recorders make alike;
// this file can. To regenerate it after a deliberate change to what is
// recorded, delete the file and run TestRecordedStatsGolden once: it
// writes the file and fails, asking for a re-run.
var statsGoldenPath = filepath.Join("testdata", "stats_golden.json")

// maxChildrenCut is streamCut's degrade plan for an ingest budget of m
// kept children: every element with more than m children (text included)
// degrades just before its (m+1)-th child streams.
func maxChildrenCut(doc *xmltree.Document, m int) map[int]int {
	cut := make(map[int]int)
	i := 0
	var visit func(n *xmltree.Node)
	visit = func(n *xmltree.Node) {
		if len(n.Children) > m {
			cut[i] = m
		}
		i++
		for _, c := range n.Children {
			if c.Kind == xmltree.Element {
				visit(c)
			}
		}
	}
	visit(doc.Root)
	return cut
}

// plusChainDTDSrc declares a but not x, so every x of <a><x><x>…</x></x></a>
// is a plus element nested in the one above it.
const plusChainDTDSrc = `<!ELEMENT a (b)> <!ELEMENT b EMPTY>`

func plusChain(depth int) string {
	return "<a>" + strings.Repeat("<x>", depth) + "y" + strings.Repeat("</x>", depth) + "</a>"
}

// statsGoldenCases records each case into a fresh recorder and returns the
// snapshots by case name.
func statsGoldenCases(t *testing.T) map[string]*Snapshot {
	t.Helper()
	out := make(map[string]*Snapshot)
	tree := func(d *dtd.DTD, docs []*xmltree.Document) *Snapshot {
		r := New(d)
		for _, doc := range docs {
			r.Record(doc)
		}
		return r.Snapshot()
	}
	streamed := func(d *dtd.DTD, docs []*xmltree.Document, maxChildren int) *Snapshot {
		tab := intern.NewTable()
		sr := NewStreamRecorder(tab)
		sr.SetLanes([]*dtd.DTD{d})
		vs := []*validate.Validator{validate.New(d)}
		r := NewWithTable(d, tab)
		for _, doc := range docs {
			var cut map[int]int
			if maxChildren > 0 {
				cut = maxChildrenCut(doc, maxChildren)
			}
			streamCut(sr, vs, doc, cut, false, nil)
			sr.CommitTo(0, r)
		}
		return r.Snapshot()
	}
	for seed := int64(1); seed <= 3; seed++ {
		g := gen.New(gen.DefaultConfig(seed))
		d := g.RandomDTD("root", 8)
		out[fmt.Sprintf("mutated seed %d, tree", seed)] = tree(d, g.MutatedDocuments(d, 12, 3, 0.7))
	}
	logDTD := dtd.MustParse(eventLogDTDSrc)
	logDTD.Name = "log"
	log := []*xmltree.Document{eventLog(logDTD, 800)}
	out["log of 800 events, tree"] = tree(logDTD, log)
	out["log of 800 events, streamed"] = streamed(logDTD, log, 0)
	chainDTD := dtd.MustParse(plusChainDTDSrc)
	chainDTD.Name = "a"
	out["plus chain of depth 12, streamed"] = streamed(chainDTD, []*xmltree.Document{parseDoc(t, plusChain(12))}, 0)
	g := gen.New(gen.DefaultConfig(11))
	d := g.RandomDTD("root", 8)
	out["mutated seed 11, streamed with MaxChildren 2"] = streamed(d, g.MutatedDocuments(d, 12, 3, 0.7), 2)
	return out
}

// TestRecordedStatsGolden pins the recorded statistics themselves: the
// tree recorder over generated mutated documents and the durable-stream
// log, and the streaming recorder over the log, a plus-element chain and
// documents degraded by a children budget.
func TestRecordedStatsGolden(t *testing.T) {
	got := statsGoldenCases(t)
	raw, err := os.ReadFile(statsGoldenPath)
	if os.IsNotExist(err) {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(statsGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(statsGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s; re-run to compare against it", statsGoldenPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]*Snapshot
	if err := json.NewDecoder(bytes.NewReader(raw)).Decode(&want); err != nil {
		t.Fatal(err)
	}
	// Compare after the same JSON round trip the golden took.
	data, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	var gotRT map[string]*Snapshot
	if err := json.Unmarshal(data, &gotRT); err != nil {
		t.Fatal(err)
	}
	for name := range want {
		if _, ok := gotRT[name]; !ok {
			t.Errorf("case %q missing", name)
		}
	}
	for name, g := range gotRT {
		w, ok := want[name]
		if !ok {
			t.Errorf("case %q not in %s", name, statsGoldenPath)
			continue
		}
		if reflect.DeepEqual(g, w) {
			continue
		}
		gj, _ := json.Marshal(g)
		wj, _ := json.Marshal(w)
		t.Errorf("%s: recorded statistics differ from the golden\ngot:    %s\ngolden: %s", name, gj, wj)
	}
}
