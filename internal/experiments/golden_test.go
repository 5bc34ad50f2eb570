package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenPath holds every non-timing cell of All(Options{Seed: 1, Quick:
// true}). To regenerate it after a deliberate change to what the pipeline
// concludes, delete the file and run TestPaperOutcomesGolden once: it
// writes the file and fails, asking for a re-run.
var goldenPath = filepath.Join("testdata", "paper_outcomes.json")

// timingColumns are the wall-clock columns, by experiment, which differ
// from run to run; the golden file holds them as timingCell.
var timingColumns = map[string]map[string]bool{
	"E3": {"record_total_ms": true, "evolve_ms": true, "xtract_infer_ms": true},
	"E6": {"apriori_ms": true, "fpgrowth_ms": true},
	"E7": {"total_ms": true, "docs_per_sec": true},
}

const timingCell = "(timing)"

// goldenTable is one table as the golden file stores it.
type goldenTable struct {
	ID      string     `json:"id"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

func goldenTables(tables []Table) []goldenTable {
	out := make([]goldenTable, len(tables))
	for i, tab := range tables {
		g := goldenTable{ID: tab.ID, Columns: tab.Columns}
		for _, row := range tab.Rows {
			masked := append([]string(nil), row...)
			for j, col := range tab.Columns {
				if timingColumns[strings.Fields(tab.ID)[0]][col] {
					masked[j] = timingCell
				}
			}
			g.Rows = append(g.Rows, masked)
		}
		out[i] = g
	}
	return out
}

// TestPaperOutcomesGolden pins what the paper's pipeline concludes: every
// classification, evolution, mining and adaptation outcome of the quick
// experiment suite at seed 1. A refactor that changes any of them fails
// here, naming the table, row and column.
func TestPaperOutcomesGolden(t *testing.T) {
	got := goldenTables(All(quick()))
	raw, err := os.ReadFile(goldenPath)
	if os.IsNotExist(err) {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s; re-run to compare against it", goldenPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenTable
	if err := json.NewDecoder(bytes.NewReader(raw)).Decode(&want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d tables, golden has %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.ID != w.ID {
			t.Errorf("table %d is %s, golden has %s", i, g.ID, w.ID)
			continue
		}
		if len(g.Columns) != len(w.Columns) || len(g.Rows) != len(w.Rows) {
			t.Errorf("%s: %d columns × %d rows, golden has %d × %d", w.ID, len(g.Columns), len(g.Rows), len(w.Columns), len(w.Rows))
			continue
		}
		for r, wrow := range w.Rows {
			for c, wcell := range wrow {
				if gcell := g.Rows[r][c]; gcell != wcell {
					t.Errorf("%s row %d (%s) column %s: got %q, golden %q", w.ID, r, w.Rows[r][0], w.Columns[c], gcell, wcell)
				}
			}
		}
	}
}
