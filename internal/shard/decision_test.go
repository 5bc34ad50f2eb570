package shard

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"dtdevolve/internal/source"
	"dtdevolve/internal/wal"
)

// TestRecoverRouterIndependentOfScorer recovers a sharded log under a σ
// that would classify some of its documents differently: every shard
// applies its journaled decisions, and the router's merged snapshot equals
// the live one byte for byte, with no shard scoring anything.
func TestRecoverRouterIndependentOfScorer(t *testing.T) {
	dir := t.TempDir()
	walOpts := wal.Options{Sync: wal.SyncOff}
	cfg := testConfig()
	cfg.Sigma = 0.6
	live, _, err := Recover(cfg, dir, walOpts, Options{Shards: killShards(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := live.AddDTD("article", articleDTD()); err != nil {
		t.Fatal(err)
	}
	if err := live.SetTriggerRules("on article when docs >= 4 and check_ratio > 0.1 do evolve, reclassify"); err != nil {
		t.Fatal(err)
	}
	shapes := []string{
		`<article><title>t</title><ref/><ref/><ref/><ref/><ref/><ref/><body>b</body></article>`,
		`<article><title>t</title><ref/><ref/><body>b</body></article>`,
		`<article><title>t</title><ref/><ref/><body>b</body></article>`,
		`<invoice><total>3</total></invoice>`,
	}
	const sigma = 0.8
	flips := 0
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("doc-%d", i%8)
		var res source.AddResult
		var err error
		if i%3 == 0 {
			res, err = live.AddDocumentStream(context.Background(), key, strings.NewReader(shapes[i%len(shapes)]))
		} else {
			res, err = live.AddDocument(context.Background(), key, parseDoc(t, shapes[i%len(shapes)]))
		}
		if err != nil {
			t.Fatal(err)
		}
		if res.Similarity >= cfg.Sigma && res.Similarity < sigma {
			flips++
		}
	}
	if flips == 0 {
		t.Fatalf("no live similarity in [%v, %v): the σ change decides nothing differently", cfg.Sigma, sigma)
	}
	if _, _, err := live.EvolveNow("article"); err != nil {
		t.Fatal(err)
	}
	if _, err := live.Reclassify(); err != nil {
		t.Fatal(err)
	}
	want, err := live.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := live.CloseWALs(); err != nil {
		t.Fatal(err)
	}

	cfg.Sigma = sigma
	recovered, _, err := Recover(cfg, dir, walOpts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	got, err := recovered.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("router recovered under σ=%v diverges\n got: %s\nwant: %s", sigma, got, want)
	}
	if m, _ := recovered.Metrics(); m.ClassifyPossible != 0 || m.ClassifyScored != 0 {
		t.Errorf("replay classified: %d possible, %d scored alignments; want 0", m.ClassifyPossible, m.ClassifyScored)
	}
}
