package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// appendAll journals the payloads and closes the log.
func appendAll(t *testing.T, dir string, opts Options, payloads [][]byte) {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range payloads {
		if err := l.Append(p); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// collect replays dir and returns the payload copies.
func collect(t *testing.T, dir string) ([][]byte, ReplayResult) {
	t.Helper()
	var out [][]byte
	res, err := Replay(dir, func(p []byte) error {
		out = append(out, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out, res
}

func payloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("record-%04d-%s", i, string(rune('a'+i%26))))
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := payloads(25)
	appendAll(t, dir, Options{Sync: SyncOff}, want)
	got, res := collect(t, dir)
	if res.Truncated || res.Corrupted || res.Records != len(want) {
		t.Fatalf("result = %+v", res)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if string(got[i]) != string(want[i]) {
			t.Errorf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestSegmentRotationAndReopen(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation every couple of records.
	appendAll(t, dir, Options{Sync: SyncOff, SegmentSize: 64}, payloads(10))
	seqs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) < 3 {
		t.Fatalf("expected several segments, got %v", seqs)
	}
	// Re-open appends into a fresh segment after the highest existing one.
	appendAll(t, dir, Options{Sync: SyncOff, SegmentSize: 64}, payloads(4))
	got, res := collect(t, dir)
	if res.Records != 14 || len(got) != 14 {
		t.Fatalf("after reopen: %+v, %d records", res, len(got))
	}
}

func TestRotateAndRemoveBefore(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads(5) {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	keep, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("after-checkpoint")); err != nil {
		t.Fatal(err)
	}
	if err := l.RemoveBefore(keep); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Only the post-rotation record survives; ReplayFrom(keep) sees it too.
	got, res := collect(t, dir)
	if len(got) != 1 || string(got[0]) != "after-checkpoint" {
		t.Fatalf("after truncation: %+v %q", res, got)
	}
	var n int
	if _, err := ReplayFrom(dir, keep, func([]byte) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("ReplayFrom(keep) = %d records, want 1", n)
	}
}

func TestReplayFromSkipsCoveredSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads(3) {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	keep, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads(2) {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Old segments still on disk (crash between snapshot and truncate):
	// ReplayFrom must skip them rather than double-apply.
	var n int
	if _, err := ReplayFrom(dir, keep, func([]byte) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("replayed %d records, want 2 (covered segments must be skipped)", n)
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncOff, SyncInterval, SyncAlways} {
		dir := t.TempDir()
		appendAll(t, dir, Options{Sync: policy, SyncEvery: time.Millisecond}, payloads(8))
		if got, res := collect(t, dir); len(got) != 8 || res.Records != 8 {
			t.Errorf("policy %v: %d records (%+v)", policy, len(got), res)
		}
	}
	if _, err := ParseSyncPolicy("nope"); err == nil {
		t.Error("ParseSyncPolicy accepted garbage")
	}
	for s, want := range map[string]SyncPolicy{"always": SyncAlways, "interval": SyncInterval, "off": SyncOff, "": SyncInterval} {
		if got, err := ParseSyncPolicy(s); err != nil || got != want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", s, got, err)
		}
	}
}

func TestEmptyAndOversizedPayloadRejected(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(nil); err == nil {
		t.Error("empty payload accepted")
	}
	if err := l.Err(); err != nil {
		t.Errorf("size rejection must not poison the log: %v", err)
	}
	if err := l.Append([]byte("ok")); err != nil {
		t.Errorf("append after rejection: %v", err)
	}
}

func TestZeroFilledTailIsNotReplayed(t *testing.T) {
	dir := t.TempDir()
	appendAll(t, dir, Options{Sync: SyncOff}, payloads(3))
	seqs, _ := listSegments(dir)
	path := filepath.Join(dir, segmentName(seqs[len(seqs)-1]))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A preallocated-but-unwritten page: zeros would frame as an endless
	// run of empty records if length 0 were legal.
	if _, err := f.Write(make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, res := collect(t, dir)
	if len(got) != 3 {
		t.Fatalf("replayed %d records, want 3", len(got))
	}
	if !res.Corrupted && !res.Truncated {
		t.Errorf("zero tail not flagged: %+v", res)
	}
}

func TestStats(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads(4) {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Appends != 4 || st.Syncs < 4 || st.Bytes == 0 {
		t.Errorf("stats = %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// batchAll journals the payloads as a single AppendBatchNoSync and closes
// the log.
func batchAll(t *testing.T, dir string, opts Options, payloads [][]byte) {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatchNoSync(payloads); err != nil {
		t.Fatalf("append batch: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestAppendBatchRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := payloads(25)
	batchAll(t, dir, Options{Sync: SyncOff}, want)
	got, res := collect(t, dir)
	if res.Truncated || res.Corrupted || res.Records != len(want) {
		t.Fatalf("result = %+v", res)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if string(got[i]) != string(want[i]) {
			t.Errorf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestAppendBatchMatchesSequentialAppends pins the framing invariant the
// recovery path relies on: a batch leaves the exact byte stream sequential
// Appends would, so crash recovery needs no group-aware decoding — a torn
// batch truncates to a record boundary like any torn tail.
func TestAppendBatchMatchesSequentialAppends(t *testing.T) {
	recs := payloads(9)
	seqDir, batchDir := t.TempDir(), t.TempDir()
	appendAll(t, seqDir, Options{Sync: SyncOff}, recs)
	batchAll(t, batchDir, Options{Sync: SyncOff}, recs)
	seqs, err := listSegments(seqDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range seqs {
		a, err := os.ReadFile(filepath.Join(seqDir, segmentName(seq)))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(batchDir, segmentName(seq)))
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("segment %d differs between sequential and batched appends", seq)
		}
	}
}

func TestAppendBatchRotatesBetweenBatches(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncOff, SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := l.AppendBatchNoSync(payloads(3)); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Rotations == 0 {
		t.Error("no rotations despite batches exceeding the segment size")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := collect(t, dir); len(got) != 12 {
		t.Errorf("replayed %d records, want 12", len(got))
	}
}

func TestAppendBatchRejectsBadPayloadAtomically(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.AppendBatchNoSync([][]byte{[]byte("ok-1"), nil, []byte("ok-2")}); err == nil {
		t.Error("batch containing an empty payload accepted")
	}
	if err := l.Err(); err != nil {
		t.Errorf("size rejection must not poison the log: %v", err)
	}
	if err := l.AppendBatchNoSync(nil); err != nil {
		t.Errorf("empty batch must be a no-op, got %v", err)
	}
	if err := l.AppendBatchNoSync([][]byte{[]byte("after")}); err != nil {
		t.Fatal(err)
	}
	// The rejected batch must leave no partial frames behind.
	got, res := collect(t, dir)
	if res.Corrupted || len(got) != 1 || string(got[0]) != "after" {
		t.Errorf("replay after rejected batch = %q (%+v), want just [after]", got, res)
	}
}

// TestAppendBatchNoSyncFlush pins the split-commit contract the
// group-commit leader relies on: AppendBatchNoSync counts one append per record but
// leaves the records unsynced even under SyncAlways, one Flush makes them
// durable with exactly one fsync, a redundant Flush does not touch the
// disk, and the batch replays record for record.
func TestAppendBatchNoSyncFlush(t *testing.T) {
	dir := t.TempDir()
	want := payloads(6)
	l, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatchNoSync(want); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Appends; got != int64(len(want)) {
		t.Errorf("appends = %d, want %d (one per record)", got, len(want))
	}
	if got := l.Stats().Syncs; got != 0 {
		t.Errorf("syncs = %d after AppendBatchNoSync, want 0 (the fsync is the caller's Flush)", got)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Syncs; got != 1 {
		t.Errorf("syncs = %d after Flush, want exactly 1 for the whole batch", got)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Syncs; got != 1 {
		t.Errorf("syncs = %d after a redundant Flush, want still 1 (already durable)", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, res := collect(t, dir)
	if res.Truncated || res.Corrupted || res.Records != len(want) {
		t.Fatalf("result = %+v", res)
	}
	for i := range want {
		if string(got[i]) != string(want[i]) {
			t.Errorf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// syncFaultFS is a minimal in-package fault filesystem (the full one,
// package faultfs, imports this package and cannot be used here): Sync on
// every created file fails once armed.
type syncFaultFS struct{ failSync bool }

func (fs *syncFaultFS) Create(path string) (File, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return &syncFaultFile{fs: fs, f: f}, nil
}

func (fs *syncFaultFS) Remove(path string) error { return os.Remove(path) }

type syncFaultFile struct {
	fs *syncFaultFS
	f  *os.File
}

func (w *syncFaultFile) Write(p []byte) (int, error) { return w.f.Write(p) }
func (w *syncFaultFile) Close() error                { return w.f.Close() }
func (w *syncFaultFile) Sync() error {
	if w.fs.failSync {
		return fmt.Errorf("injected sync fault")
	}
	return w.f.Sync()
}

// TestFlushFailureIsSticky pins Flush's failure contract: a sync fault on
// the still-active segment poisons the log exactly as an in-line sync
// failure would, so a group leader that defers the fsync cannot ack a group
// the disk never confirmed.
func TestFlushFailureIsSticky(t *testing.T) {
	fs := &syncFaultFS{}
	l, err := Open(t.TempDir(), Options{Sync: SyncAlways, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.AppendBatchNoSync(payloads(3)); err != nil {
		t.Fatal(err)
	}
	fs.failSync = true
	if err := l.Flush(); err == nil {
		t.Fatal("Flush succeeded despite an injected sync fault")
	}
	fs.failSync = false
	if err := l.Append([]byte("more")); err == nil {
		t.Error("Append succeeded after a Flush failure; want the sticky error")
	}
	if l.Err() == nil {
		t.Error("Err() = nil after a Flush failure")
	}
}

// parkingFS creates segment files whose Sync parks until release closes,
// announcing each parked call on parked.
type parkingFS struct {
	parked, release chan struct{}
}

func (fs *parkingFS) Create(path string) (File, error) {
	f, err := osFS{}.Create(path)
	if err != nil {
		return nil, err
	}
	return &parkingFile{File: f, fs: fs}, nil
}

func (fs *parkingFS) Remove(path string) error { return os.Remove(path) }

type parkingFile struct {
	File
	fs *parkingFS
}

func (f *parkingFile) Sync() error {
	select {
	case f.fs.parked <- struct{}{}:
	default:
	}
	<-f.fs.release
	return f.File.Sync()
}

// TestIntervalSyncDoesNotBlockAppend parks the interval tick inside its
// fsync and checks that an Append still completes: the tick must not hold
// the log's mutex across the disk round-trip.
func TestIntervalSyncDoesNotBlockAppend(t *testing.T) {
	fs := &parkingFS{parked: make(chan struct{}, 1), release: make(chan struct{})}
	l, err := Open(t.TempDir(), Options{Sync: SyncInterval, SyncEvery: time.Millisecond, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("first")); err != nil {
		t.Fatal(err)
	}
	<-fs.parked // the tick is now inside its fsync
	appended := make(chan error, 1)
	go func() { appended <- l.Append([]byte("second")) }()
	select {
	case err := <-appended:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Error("Append waited for the interval fsync")
	}
	close(fs.release)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}
