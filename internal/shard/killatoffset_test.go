package shard

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"dtdevolve/internal/source"
	"dtdevolve/internal/wal"
)

// killShards is the shard count of the kill-at-every-offset suite; the
// DTDEVOLVE_SHARDS environment variable overrides it (the CI matrix runs
// the suite at 4).
func killShards() int {
	if s := os.Getenv("DTDEVOLVE_SHARDS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 4
}

// copyTree copies the two-level router directory layout (manifest,
// checkpoints, shard-*/wal-*.log) from src to dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		from := filepath.Join(src, e.Name())
		to := filepath.Join(dst, e.Name())
		if e.IsDir() {
			if err := os.MkdirAll(to, 0o755); err != nil {
				t.Fatal(err)
			}
			copyTree(t, from, to)
			continue
		}
		in, err := os.Open(from)
		if err != nil {
			t.Fatal(err)
		}
		out, err := os.Create(to)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(out, in); err != nil {
			t.Fatal(err)
		}
		in.Close()
		if err := out.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// truncateShardStream rewrites dir's wal-*.log segment byte stream (in
// segment order) to its first cut bytes, like a crash at that offset.
func truncateShardStream(t *testing.T, dir string, cut int) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	remaining := cut
	for _, p := range segs {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) <= remaining {
			remaining -= len(data)
			continue
		}
		if remaining <= 0 {
			if err := os.Remove(p); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := os.WriteFile(p, data[:remaining], 0o644); err != nil {
			t.Fatal(err)
		}
		remaining = 0
	}
}

// TestKillAtEveryOffsetSharded is the sharded end-to-end durability
// property: for every shard and every record boundary (plus torn
// mid-record offsets) of that shard's WAL stream, cut the stream there,
// recover the whole router, and check
//
//   - the cut shard's state equals a reference source that ran exactly the
//     durable prefix of its op sequence,
//   - every untouched shard recovers to exactly its live state (one
//     shard's crash must not perturb the others),
//   - a mid-record cut is reported as a torn tail on that shard alone.
func TestKillAtEveryOffsetSharded(t *testing.T) {
	n := killShards()
	dir := t.TempDir()
	walOpts := wal.Options{Sync: wal.SyncOff, SegmentSize: 512}
	live, _, err := Recover(testConfig(), dir, walOpts, Options{Shards: n, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := live.AddDTD("article", articleDTD()); err != nil {
		t.Fatal(err)
	}
	shapes := []string{
		`<article><title>t</title><body>b</body></article>`,
		`<article><title>t</title><author>a</author><body>b</body></article>`,
		`<invoice><total>3</total></invoice>`,
		`<article><title>u</title><ref/><body>c</body></article>`,
	}
	docCount := 4 * n // a few documents per shard in expectation
	for i := 0; i < docCount; i++ {
		key := fmt.Sprintf("doc-%d", i)
		if _, err := live.AddDocument(context.Background(), key, parseDoc(t, shapes[i%len(shapes)])); err != nil {
			t.Fatal(err)
		}
	}
	liveSnaps := make([]map[string]any, n)
	for i := range liveSnaps {
		liveSnaps[i] = snapshotOf(t, live.Shard(i))
	}
	if err := live.CloseWALs(); err != nil {
		t.Fatal(err)
	}

	for si := 0; si < n; si++ {
		// Reference snapshots of shard si after each journaled record
		// prefix, derived from the stream itself through a replica-mode
		// source (auto-evolution decisions are records of their own) —
		// while also collecting record boundaries, plus a torn offset
		// inside every record.
		shardDir := filepath.Join(dir, shardName(si))
		ref := source.New(testConfig())
		ref.SetReplica(true)
		refs := []map[string]any{snapshotOf(t, ref)}
		offsets := map[int]bool{0: true}
		boundary := 0
		if _, err := wal.Replay(shardDir, func(p []byte) error {
			if err := ref.ApplyWALRecord(p); err != nil {
				return err
			}
			refs = append(refs, snapshotOf(t, ref))
			offsets[boundary+3] = true // torn: mid-header or mid-payload
			boundary += 8 + len(p)
			offsets[boundary] = true
			return nil
		}); err != nil {
			t.Fatal(err)
		}

		for cut := range offsets {
			sub := t.TempDir()
			copyTree(t, dir, sub)
			truncateShardStream(t, filepath.Join(sub, shardName(si)), cut)

			recovered, infos, err := Recover(testConfig(), sub, walOpts, Options{})
			if err != nil {
				t.Fatalf("shard %d cut %d: recovery failed: %v", si, cut, err)
			}
			info := infos[si]
			if info.Replayed >= len(refs) {
				t.Fatalf("shard %d cut %d: replayed %d > %d journaled ops", si, cut, info.Replayed, len(refs)-1)
			}
			if got, want := snapshotOf(t, recovered.Shard(si)), refs[info.Replayed]; !reflect.DeepEqual(got, want) {
				t.Errorf("shard %d cut %d (replayed %d): recovered state != reference prefix\n got: %v\nwant: %v",
					si, cut, info.Replayed, got, want)
			}
			if !offsets[cut] {
				t.Fatalf("impossible: cut %d not in offsets", cut)
			}
			for sj := 0; sj < n; sj++ {
				if sj == si {
					continue
				}
				if infos[sj].Truncated || infos[sj].Corrupted {
					t.Errorf("shard %d cut %d: untouched shard %d reports torn/corrupt: %+v", si, cut, sj, infos[sj])
				}
				if got := snapshotOf(t, recovered.Shard(sj)); !reflect.DeepEqual(got, liveSnaps[sj]) {
					t.Errorf("shard %d cut %d: untouched shard %d diverged from live state", si, cut, sj)
				}
			}
			// After recovery, every shard — including the cut one — must
			// accept writes again: the crash consumed no shard's health.
			key := keyOn(t, recovered, si)
			if _, err := recovered.AddDocument(context.Background(), key, parseDoc(t, shapes[0])); err != nil {
				t.Errorf("shard %d cut %d: recovered shard refuses writes: %v", si, cut, err)
			}
			if err := recovered.CloseWALs(); err != nil {
				t.Fatalf("shard %d cut %d: close: %v", si, cut, err)
			}
		}
	}
}
