package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dtdevolve/internal/dtd"
	"dtdevolve/internal/source"
	"dtdevolve/internal/wal"
	"dtdevolve/internal/xmltree"
)

func testConfig() source.Config {
	cfg := source.DefaultConfig()
	cfg.MinDocs = 5
	return cfg
}

func parseDoc(t *testing.T, src string) *xmltree.Document {
	t.Helper()
	doc, err := xmltree.ParseString(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return doc
}

func parseDocsShard(t *testing.T, srcs []string) []*xmltree.Document {
	t.Helper()
	docs := make([]*xmltree.Document, len(srcs))
	for i, s := range srcs {
		docs[i] = parseDoc(t, s)
	}
	return docs
}

func articleDTD() *dtd.DTD {
	d := dtd.MustParse(`
<!ELEMENT article (title, body)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT body (#PCDATA)>`)
	d.Name = "article"
	return d
}

// snapshotOf decodes a shard's snapshot for deep comparison, dropping the
// WAL position (recovered shards checkpoint at different offsets).
func snapshotOf(t *testing.T, s *source.Source) map[string]any {
	t.Helper()
	data, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "wal_seq")
	return m
}

// keyOn returns a key the router routes to the wanted shard (rendezvous
// hashing is uniform, so a handful of probes suffice).
func keyOn(t *testing.T, r *Router, shard int) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		key := fmt.Sprintf("key-%d", i)
		if r.ShardFor(key) == shard {
			return key
		}
	}
	t.Fatalf("no key found for shard %d", shard)
	return ""
}

func TestShardForDeterministicStableBalanced(t *testing.T) {
	a := New(testConfig(), Options{Shards: 8, Seed: 7})
	b := New(testConfig(), Options{Shards: 8, Seed: 7})
	counts := make([]int, 8)
	for i := 0; i < 8000; i++ {
		key := fmt.Sprintf("doc-%d", i)
		si := a.ShardFor(key)
		if sj := b.ShardFor(key); sj != si {
			t.Fatalf("key %q: router A says shard %d, router B says %d (same seed must agree)", key, si, sj)
		}
		counts[si]++
	}
	for si, n := range counts {
		// 8000 keys over 8 shards: mean 1000; a uniform hash stays well
		// inside ±40%.
		if n < 600 || n > 1400 {
			t.Errorf("shard %d owns %d of 8000 keys; distribution too skewed: %v", si, n, counts)
		}
	}
	// A different seed must spread the same keys differently.
	c := New(testConfig(), Options{Shards: 8, Seed: 8})
	moved := 0
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("doc-%d", i)
		if a.ShardFor(key) != c.ShardFor(key) {
			moved++
		}
	}
	if moved < 500 {
		t.Errorf("only %d/1000 keys moved under a different seed", moved)
	}
}

func TestKeyForExplicitWinsContentHashStable(t *testing.T) {
	r := New(testConfig(), Options{Shards: 4})
	doc := parseDoc(t, `<article><title>t</title><body>b</body></article>`)
	if got := r.KeyFor("user-42", doc); got != "user-42" {
		t.Errorf("explicit key: got %q", got)
	}
	same := parseDoc(t, `<article><title>t</title><body>b</body></article>`)
	if r.KeyFor("", doc) != r.KeyFor("", same) {
		t.Error("content hash must be stable across identical documents")
	}
	other := parseDoc(t, `<article><title>u</title><body>b</body></article>`)
	if r.KeyFor("", doc) == r.KeyFor("", other) {
		t.Error("different documents hashed to the same key (suspicious)")
	}
}

func TestAddDocumentRoutesToItsShard(t *testing.T) {
	r := New(testConfig(), Options{Shards: 4})
	if err := r.AddDTD("article", articleDTD()); err != nil {
		t.Fatal(err)
	}
	target := 2
	key := keyOn(t, r, target)
	res, err := r.AddDocument(context.Background(), key, parseDoc(t, `<article><title>t</title><body>b</body></article>`))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Classified {
		t.Error("document not classified")
	}
	for i := 0; i < r.Shards(); i++ {
		want := int64(0)
		if i == target {
			want = 1
		}
		if got := r.Shard(i).Metrics().Added; got != want {
			t.Errorf("shard %d Added = %d, want %d", i, got, want)
		}
	}
}

func TestAddBatchKeyedOrderAndValidation(t *testing.T) {
	r := New(testConfig(), Options{Shards: 4})
	if err := r.AddDTD("article", articleDTD()); err != nil {
		t.Fatal(err)
	}
	srcs := []string{
		`<article><title>a</title><body>b</body></article>`,
		`<alien><x/><y/></alien>`,
		`<article><title>c</title><body>d</body></article>`,
		`<alien><z/></alien>`,
		`<article><title>e</title><body>f</body></article>`,
	}
	docs := make([]*xmltree.Document, len(srcs))
	keys := make([]string, len(srcs))
	for i, s := range srcs {
		docs[i] = parseDoc(t, s)
		keys[i] = keyOn(t, r, i%r.Shards())
	}
	results, err := r.AddBatchKeyed(context.Background(), keys, docs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(docs) {
		t.Fatalf("got %d results for %d documents", len(results), len(docs))
	}
	// Results must be in input order: the alien documents (indexes 1, 3)
	// land in the repository, the articles classify.
	for i, res := range results {
		wantClassified := i%2 == 0
		if res.Classified != wantClassified {
			t.Errorf("result %d: Classified = %v, want %v", i, res.Classified, wantClassified)
		}
	}
	if got := r.RepositorySize(); got != 2 {
		t.Errorf("RepositorySize = %d, want 2", got)
	}
	if _, err := r.AddBatchKeyed(context.Background(), keys[:2], docs); err == nil {
		t.Error("mismatched key count accepted")
	}
}

// TestAddBatchKeyedPanicReachesCaller: a panic raised in a shard's
// sub-batch — here by the caller's TagSimilarity, while scoring — reaches
// the caller of AddBatchKeyed instead of killing the process, and every
// shard goes on serving: an AddDTD and a clean document on each shard
// finish afterwards.
func TestAddBatchKeyedPanicReachesCaller(t *testing.T) {
	const armedPanic = "tag similarity armed"
	var armed atomic.Bool
	cfg := testConfig()
	cfg.Similarity.TagSimilarity = func(string, string) float64 {
		if armed.Load() {
			panic(armedPanic)
		}
		return 0
	}
	r := New(cfg, Options{Shards: 2})
	if err := r.AddDTD("article", articleDTD()); err != nil {
		t.Fatal(err)
	}
	keys := []string{keyOn(t, r, 0), keyOn(t, r, 1)}
	deviant := parseDoc(t, `<article><title>t</title><extra/><body>b</body></article>`)
	clean := parseDoc(t, `<article><title>t</title><body>b</body></article>`)
	armed.Store(true)
	p := func() (p any) {
		defer func() { p = recover() }()
		r.AddBatchKeyed(context.Background(), keys, []*xmltree.Document{deviant, deviant})
		return nil
	}()
	armed.Store(false)
	if p != armedPanic {
		t.Fatalf("AddBatchKeyed panicked with %v, want %q", p, armedPanic)
	}
	done := make(chan error, 1)
	go func() {
		if err := r.AddDTD("list", dtd.MustParse(`<!ELEMENT list (item+)><!ELEMENT item (#PCDATA)>`)); err != nil {
			done <- err
			return
		}
		for si, key := range keys {
			res, err := r.AddDocument(context.Background(), key, clean)
			if err == nil && !res.Classified {
				err = fmt.Errorf("clean document on shard %d went unclassified: %+v", si, res)
			}
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("AddDTD and clean documents did not finish within 10s of the panic")
	}
}

func TestBroadcastDTDAndTriggersReachEveryShard(t *testing.T) {
	r := New(testConfig(), Options{Shards: 3})
	if err := r.AddDTD("article", articleDTD()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < r.Shards(); i++ {
		if r.Shard(i).DTD("article") == nil {
			t.Errorf("shard %d missing broadcast DTD", i)
		}
	}
	// Shards must not share the *dtd.DTD: evolving one may not mutate the
	// others' declarations.
	if r.Shard(0).DTD("article") == r.Shard(1).DTD("article") {
		t.Error("shards share one *dtd.DTD instance")
	}
	rule := "on article when docs >= 4 and check_ratio > 0.1 do evolve"
	if err := r.SetTriggerRules(rule); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < r.Shards(); i++ {
		if got := r.Shard(i).TriggerRules(); len(got) != 1 {
			t.Errorf("shard %d rules = %v", i, got)
		}
	}
	if got := r.TriggerRules(); len(got) != 1 {
		t.Errorf("router rules = %v", got)
	}
}

func TestDTDStatusRollsUpAcrossShards(t *testing.T) {
	r := New(testConfig(), Options{Shards: 2})
	if err := r.AddDTD("article", articleDTD()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		key := keyOn(t, r, i)
		if _, err := r.AddDocument(context.Background(), key, parseDoc(t, `<article><title>t</title><body>b</body></article>`)); err != nil {
			t.Fatal(err)
		}
	}
	sts := r.DTDStatus()
	if len(sts) != 1 || sts[0].Name != "article" {
		t.Fatalf("DTDStatus = %+v", sts)
	}
	if sts[0].Docs != 2 {
		t.Errorf("rolled-up Docs = %d, want 2 (1 per shard)", sts[0].Docs)
	}
	if sts[0].Model == "" {
		t.Error("model dropped although every shard still agrees")
	}
}

func TestMetricsAggregation(t *testing.T) {
	r := New(testConfig(), Options{Shards: 4})
	if err := r.AddDTD("article", articleDTD()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		key := keyOn(t, r, i)
		if _, err := r.AddDocument(context.Background(), key, parseDoc(t, `<article><title>t</title><body>b</body></article>`)); err != nil {
			t.Fatal(err)
		}
	}
	total, per := r.Metrics()
	if len(per) != 4 {
		t.Fatalf("per-shard snapshots = %d, want 4", len(per))
	}
	var sum int64
	for _, s := range per {
		sum += s.Added
	}
	if total.Added != 4 || sum != 4 {
		t.Errorf("aggregate Added = %d (per-shard sum %d), want 4", total.Added, sum)
	}
}

func TestRecoverManifestMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	walOpts := wal.Options{Sync: wal.SyncOff}
	r, infos, err := Recover(testConfig(), dir, walOpts, Options{Shards: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 4 {
		t.Fatalf("got %d recovery infos, want 4", len(infos))
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// Same configuration reopens fine; seed 0 adopts the manifest's.
	r2, _, err := Recover(testConfig(), dir, walOpts, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Seed() != 7 {
		t.Errorf("recovered seed = %d, want 7 from the manifest", r2.Seed())
	}
	r2.Close()

	// A changed shard count is a configuration error, not a silent re-hash.
	if _, _, err := Recover(testConfig(), dir, walOpts, Options{Shards: 8}); err == nil {
		t.Error("changed shard count accepted")
	} else if !strings.Contains(err.Error(), "reshard") {
		t.Errorf("shard-count error should mention resharding: %v", err)
	}
	// So is a changed (non-zero) seed.
	if _, _, err := Recover(testConfig(), dir, walOpts, Options{Shards: 4, Seed: 8}); err == nil {
		t.Error("changed seed accepted")
	}
}

func TestRecoverRejectsLegacyUnshardedLayout(t *testing.T) {
	dir := t.TempDir()
	// An unsharded WAL directory has wal-*.log segments at the top level.
	w, err := wal.Open(dir, wal.Options{Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Recover(testConfig(), dir, wal.Options{Sync: wal.SyncOff}, Options{Shards: 4}); err == nil {
		t.Error("sharded Recover accepted an unsharded WAL directory")
	}
}

// TestRecoverRoundTrip runs a mixed workload through a durable router,
// crashes it (close = flush only), recovers, and checks every shard's state
// equals its live counterpart.
func TestRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	walOpts := wal.Options{Sync: wal.SyncOff}
	live, _, err := Recover(testConfig(), dir, walOpts, Options{Shards: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := live.AddDTD("article", articleDTD()); err != nil {
		t.Fatal(err)
	}
	if err := live.SetTriggerRules("on article when docs >= 4 and check_ratio > 0.1 do evolve"); err != nil {
		t.Fatal(err)
	}
	shapes := []string{
		`<article><title>t</title><body>b</body></article>`,
		`<article><title>t</title><author>a</author><body>b</body></article>`,
		`<invoice><total>3</total></invoice>`,
	}
	for i := 0; i < 18; i++ {
		key := fmt.Sprintf("doc-%d", i)
		if _, err := live.AddDocument(context.Background(), key, parseDoc(t, shapes[i%len(shapes)])); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := live.EvolveNow("article"); err != nil {
		t.Fatal(err)
	}
	lives := make([]map[string]any, live.Shards())
	for i := range lives {
		lives[i] = snapshotOf(t, live.Shard(i))
	}
	if err := live.CloseWALs(); err != nil {
		t.Fatal(err)
	}

	recovered, infos, err := Recover(testConfig(), dir, walOpts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if recovered.Shards() != 3 {
		t.Fatalf("recovered %d shards, want 3 from the manifest", recovered.Shards())
	}
	replayed := 0
	for i, info := range infos {
		if info.Truncated || info.Corrupted {
			t.Errorf("shard %d: clean close reported torn/corrupt: %+v", i, info)
		}
		replayed += info.Replayed
	}
	// 18 docs + per-shard broadcast (dtd, triggers, evolve) = 18 + 3*3,
	// plus one record per auto-evolution decision the trigger fired; the
	// journals themselves are the authority.
	want := 0
	for i := 0; i < 3; i++ {
		if _, err := wal.Replay(filepath.Join(dir, shardName(i)), func([]byte) error {
			want++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if want < 18+3*3 {
		t.Errorf("journals hold %d records, want >= %d (one per op)", want, 18+3*3)
	}
	if replayed != want {
		t.Errorf("replayed %d records across shards, want %d", replayed, want)
	}
	for i := range lives {
		if got := snapshotOf(t, recovered.Shard(i)); !reflect.DeepEqual(got, lives[i]) {
			t.Errorf("shard %d recovered state diverges:\n got: %v\nwant: %v", i, got, lives[i])
		}
	}
}

// TestCheckpointersStaggeredAndFinal checks the per-shard checkpointers
// write every shard's checkpoint file on stop and that recovery from
// checkpoints + empty tails reproduces the state.
func TestCheckpointersStaggeredAndFinal(t *testing.T) {
	dir := t.TempDir()
	walOpts := wal.Options{Sync: wal.SyncOff}
	live, _, err := Recover(testConfig(), dir, walOpts, Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := live.AddDTD("article", articleDTD()); err != nil {
		t.Fatal(err)
	}
	stop, err := live.StartCheckpointers(time.Hour, func(shard int, err error) {
		t.Errorf("shard %d checkpoint: %v", shard, err)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		key := fmt.Sprintf("doc-%d", i)
		if _, err := live.AddDocument(context.Background(), key, parseDoc(t, `<article><title>t</title><body>b</body></article>`)); err != nil {
			t.Fatal(err)
		}
	}
	stop() // runs one final checkpoint per shard
	lives := make([]map[string]any, live.Shards())
	for i := range lives {
		lives[i] = snapshotOf(t, live.Shard(i))
		if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("checkpoint-%03d.json", i))); err != nil {
			t.Errorf("shard %d checkpoint file missing: %v", i, err)
		}
	}
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}

	recovered, infos, err := Recover(testConfig(), dir, walOpts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	for i, info := range infos {
		if !info.SnapshotRestored {
			t.Errorf("shard %d: checkpoint not restored", i)
		}
		if info.Replayed != 0 {
			t.Errorf("shard %d: %d records replayed after final checkpoint, want 0", i, info.Replayed)
		}
		if got := snapshotOf(t, recovered.Shard(i)); !reflect.DeepEqual(got, lives[i]) {
			t.Errorf("shard %d state diverges after checkpointed recovery", i)
		}
	}
}

// TestRouterSnapshotShape checks the merged snapshot names the routing
// parameters and carries one sub-snapshot per shard.
func TestRouterSnapshotShape(t *testing.T) {
	r := New(testConfig(), Options{Shards: 2, Seed: 3})
	if err := r.AddDTD("article", articleDTD()); err != nil {
		t.Fatal(err)
	}
	data, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Version        int               `json:"version"`
		Shards         int               `json:"shards"`
		Seed           uint64            `json:"seed"`
		ShardSnapshots []json.RawMessage `json:"shard_snapshots"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Shards != 2 || snap.Seed != 3 || len(snap.ShardSnapshots) != 2 {
		t.Errorf("snapshot = %+v", snap)
	}
}

func TestCloseIdempotent(t *testing.T) {
	dir := t.TempDir()
	r, _, err := Recover(testConfig(), dir, wal.Options{Sync: wal.SyncOff}, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.StartCheckpointers(time.Hour, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
