// Package wal is a segmented, CRC32C-framed, append-only write-ahead log.
// The source engine journals every state-changing operation through it so
// that a crash — OOM kill, power loss, SIGKILL — loses at most the tail the
// chosen fsync policy permits, instead of every document classified since
// startup (the snapshot written at graceful shutdown was previously the
// only durability).
//
// The log is a directory of numbered segment files (wal-<seq>.log). Records
// are length-prefixed and checksummed (see frame.go); segments rotate at a
// configurable size so a background checkpointer can truncate history that
// a snapshot already covers (sealed segments below the snapshot's position
// are removed, never rewritten). Recovery (Replay) tolerates a torn final
// record by truncating to the last valid frame, and detects byte-flip
// corruption via CRC, quarantining — never applying — the invalid suffix.
//
// Failures are sticky: after the first write or sync error the log refuses
// further appends and reports the error from Err, which the serving layer
// surfaces as degraded, read-only mode.
package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// A write-ahead log that drops a Sync/Close/Write error is not one.
// dtdvet:strict errsync
//
// The background fsync loop must be stoppable: a leaked sync goroutine
// keeps a dead Log's file handle alive past Close.
// dtdvet:strict golife

// SyncPolicy selects when appended records are fsynced to stable storage.
type SyncPolicy int

const (
	// SyncInterval flushes dirty segments from a background goroutine every
	// Options.SyncEvery. A crash loses at most one interval of records; the
	// append hot path never waits on the disk. This is the default.
	SyncInterval SyncPolicy = iota
	// SyncAlways fsyncs after every append: no acknowledged record is ever
	// lost, at the cost of a disk round-trip per operation.
	SyncAlways
	// SyncOff never fsyncs; the OS page cache decides. A crash of the
	// process alone loses nothing (the kernel still has the writes); a
	// crash of the machine loses the unflushed tail.
	SyncOff
)

// ParseSyncPolicy maps the flag spelling ("always", "interval", "off") to a
// SyncPolicy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval", "":
		return SyncInterval, nil
	case "off":
		return SyncOff, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want always, interval or off)", s)
}

// Options configures a Log.
type Options struct {
	// SegmentSize rotates the active segment once it exceeds this many
	// bytes (default 4 MiB). Rotation bounds how much history a checkpoint
	// leaves behind: only sealed segments are truncated.
	SegmentSize int64
	// Sync is the fsync policy (default SyncInterval).
	Sync SyncPolicy
	// SyncEvery is the flush period under SyncInterval (default 100ms).
	SyncEvery time.Duration
	// FS overrides the filesystem, for fault injection (default: the real
	// one).
	FS FS
}

func (o *Options) applyDefaults() {
	if o.SegmentSize <= 0 {
		o.SegmentSize = 4 << 20
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 100 * time.Millisecond
	}
	if o.FS == nil {
		o.FS = osFS{}
	}
}

// Stats counts what the log has done since Open, for the service's metrics
// route.
type Stats struct {
	Appends   int64 // records appended
	Bytes     int64 // framed bytes written
	Syncs     int64 // fsync calls that reached the File
	Rotations int64 // segments sealed
}

// Log is an append-only write-ahead log over a directory of segments. It is
// safe for concurrent use. dir and opts are immutable after Open and the
// counters are atomics; everything else is guarded by mu (machine-checked,
// DESIGN.md §11).
type Log struct {
	dir  string
	opts Options

	// syncMu serializes the out-of-lock fsync in Flush. It is always
	// acquired before mu and never while holding it.
	syncMu sync.Mutex

	mu         sync.Mutex
	active     File   // dtdvet:guarded_by mu
	activeSeq  uint64 // dtdvet:guarded_by mu
	activeSize int64  // dtdvet:guarded_by mu
	nextSeq    uint64 // dtdvet:guarded_by mu
	// buf is the reusable frame buffer behind zero-alloc appends.
	buf []byte // dtdvet:guarded_by mu
	err error  // dtdvet:guarded_by mu -- sticky first write/sync failure
	// flushed is how many of the appended bytes a completed fsync (or a
	// segment seal, which syncs before closing) has made durable. Flush
	// skips the disk entirely when a concurrent flusher already covered the
	// caller's records.
	flushed int64 // dtdvet:guarded_by mu

	appends   atomic.Int64
	bytes     atomic.Int64
	syncs     atomic.Int64
	rotations atomic.Int64

	stopSync chan struct{} // dtdvet:guarded_by mu
	syncDone chan struct{} // dtdvet:guarded_by mu
}

// segmentName returns the file name of segment seq.
func segmentName(seq uint64) string {
	return fmt.Sprintf("wal-%016d.log", seq)
}

// parseSegmentName extracts the sequence number from a segment file name.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// listSegments returns the sequence numbers of the segments in dir, sorted
// ascending.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: %w", err)
	}
	var seqs []uint64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseSegmentName(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// ListSegments returns the sequence numbers of the WAL segments in dir,
// sorted ascending. The replication shipper uses it to enumerate what the
// primary can serve; sealed segments are plain files and may be read
// directly, the active one only up to ActivePosition's durable offset.
func ListSegments(dir string) ([]uint64, error) {
	return listSegments(dir)
}

// SegmentFileName returns the file name of segment seq (wal-%016d.log),
// relative to the log directory.
func SegmentFileName(seq uint64) string {
	return segmentName(seq)
}

// ActivePosition reports the shipping frontier of the log: the active
// segment's sequence number, its total size, and the length of its durable
// prefix — the bytes a follower may safely replicate. Under SyncAlways
// every appended byte is durable; under SyncInterval the durable prefix
// trails the tail by at most the unflushed window (sealing a segment syncs
// it, so all unflushed bytes live in the active segment); under SyncOff
// durability is explicitly not promised and the whole segment is offered.
// ok is false when no segment is active (nothing appended since Open or the
// last Rotate).
func (l *Log) ActivePosition() (seq uint64, size, durable int64, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.active == nil {
		return 0, 0, 0, false
	}
	seq, size = l.activeSeq, l.activeSize
	durable = size
	if l.opts.Sync != SyncOff {
		if lag := l.bytes.Load() - l.flushed; lag > 0 {
			durable -= lag
		}
		if durable < 0 {
			durable = 0
		}
	}
	return seq, size, durable, true
}

// Open prepares dir for appending. Existing segments are left untouched —
// recovery (Replay) reads them first — and new records go to a fresh
// segment numbered after the highest present, so a truncated tail is never
// appended into.
// dtdvet:allow locks -- constructs a fresh Log not yet shared with any goroutine
func Open(dir string, opts Options) (*Log, error) {
	opts.applyDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	seqs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts, nextSeq: 1}
	if n := len(seqs); n > 0 {
		l.nextSeq = seqs[n-1] + 1
	}
	if opts.Sync == SyncInterval {
		l.stopSync = make(chan struct{})
		l.syncDone = make(chan struct{})
		go l.syncLoop(l.stopSync, l.syncDone)
	}
	return l, nil
}

// Append journals one record. The payload is framed (length + CRC32C),
// written to the active segment and synced per the policy. Append is
// zero-allocation in steady state: the frame buffer is reused across calls.
// After the first failure every Append returns the same sticky error — the
// caller must treat the log as lost and degrade, not retry.
//
// The zero-allocation claim is machine-checked (the noalloc directive);
// the fmt.Errorf sites below are all on cold failure paths, after which
// the log is dead anyway.
// dtdvet:noalloc
func (l *Log) Append(payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if len(payload) == 0 || len(payload) > MaxRecordSize {
		return fmt.Errorf("wal: record payload size %d out of range", len(payload)) // dtdvet:allow noalloc -- cold rejection path
	}
	frameLen := int64(FrameHeaderSize + len(payload))
	if l.active == nil || (l.activeSize > 0 && l.activeSize+frameLen > l.opts.SegmentSize) {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	l.buf = EncodeFrame(l.buf[:0], payload)
	if _, err := l.active.Write(l.buf); err != nil {
		l.fail(fmt.Errorf("wal: appending to segment %d: %w", l.activeSeq, err)) // dtdvet:allow noalloc -- cold error path, log is dead after
		return l.err
	}
	l.activeSize += frameLen
	l.appends.Add(1)
	l.bytes.Add(frameLen)
	switch l.opts.Sync {
	case SyncAlways:
		if err := l.active.Sync(); err != nil {
			l.fail(fmt.Errorf("wal: syncing segment %d: %w", l.activeSeq, err)) // dtdvet:allow noalloc -- cold error path, log is dead after
			return l.err
		}
		l.syncs.Add(1)
		l.flushed = l.bytes.Load()
	}
	return nil
}

// AppendBatchNoSync journals a group of records as one disk operation: a
// single mutex acquisition, every frame encoded into one reused buffer,
// and one Write of the concatenated frames. It never fsyncs inline,
// whatever the policy: the records are durable only after a later Flush
// (or the interval flusher, a segment seal, or Close). This is the
// primitive behind the source's group commit (DESIGN.md §10), which
// writes the batch while holding the source's state lock but moves the
// disk round-trip after the release — AppendBatchNoSync under the lock,
// Flush outside it, acknowledge after Flush returns — so the per-record
// durability cost collapses from one disk round-trip per commit to one
// per group.
//
// The frames are byte-identical to len(payloads) sequential Appends, so
// recovery needs no group framing: a crash mid-batch tears the stream
// inside some frame, Replay truncates to the last whole record, and the
// recovered state is exactly the journaled prefix of the group.
//
// All payloads are validated before anything is written; a size rejection
// fails the whole batch with no partial append and no sticky failure. An
// I/O failure is sticky exactly as for Append. Like Append,
// AppendBatchNoSync is zero-allocation in steady state (the frame buffer
// is reused and grows to the largest group seen).
// dtdvet:noalloc
func (l *Log) AppendBatchNoSync(payloads [][]byte) error {
	if len(payloads) == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	var batchLen int64
	for _, p := range payloads {
		if len(p) == 0 || len(p) > MaxRecordSize {
			return fmt.Errorf("wal: record payload size %d out of range", len(p)) // dtdvet:allow noalloc -- cold rejection path
		}
		batchLen += int64(FrameHeaderSize + len(p))
	}
	if l.active == nil || (l.activeSize > 0 && l.activeSize+batchLen > l.opts.SegmentSize) {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	l.buf = l.buf[:0]
	for _, p := range payloads {
		l.buf = EncodeFrame(l.buf, p)
	}
	if _, err := l.active.Write(l.buf); err != nil {
		l.fail(fmt.Errorf("wal: appending %d-record batch to segment %d: %w", len(payloads), l.activeSeq, err)) // dtdvet:allow noalloc -- cold error path, log is dead after
		return l.err
	}
	l.activeSize += batchLen
	l.appends.Add(int64(len(payloads)))
	l.bytes.Add(batchLen)
	return nil
}

// rotateLocked seals the active segment (sync + close) and opens the next
// one. Callers hold l.mu.
// dtdvet:requires mu
func (l *Log) rotateLocked() error {
	if l.active != nil {
		if err := l.active.Sync(); err != nil {
			l.fail(fmt.Errorf("wal: sealing segment %d: %w", l.activeSeq, err))
			return l.err
		}
		l.syncs.Add(1)
		l.flushed = l.bytes.Load()
		if err := l.active.Close(); err != nil {
			l.fail(fmt.Errorf("wal: sealing segment %d: %w", l.activeSeq, err))
			return l.err
		}
		l.active = nil
		l.rotations.Add(1)
	}
	f, err := l.opts.FS.Create(filepath.Join(l.dir, segmentName(l.nextSeq)))
	if err != nil {
		l.fail(fmt.Errorf("wal: creating segment %d: %w", l.nextSeq, err))
		return l.err
	}
	l.active = f
	l.activeSeq = l.nextSeq
	l.activeSize = 0
	l.nextSeq++
	return nil
}

// Rotate seals the active segment and returns the sequence number of the
// next (not yet written) one: every record appended so far lives in a
// segment numbered strictly below the returned value. The checkpointer
// calls this under the source's state lock, so the snapshot it then writes
// corresponds exactly to the WAL position.
func (l *Log) Rotate() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	if l.active != nil {
		if err := l.active.Sync(); err != nil {
			l.fail(fmt.Errorf("wal: sealing segment %d: %w", l.activeSeq, err))
			return 0, l.err
		}
		l.syncs.Add(1)
		l.flushed = l.bytes.Load()
		if err := l.active.Close(); err != nil {
			l.fail(fmt.Errorf("wal: sealing segment %d: %w", l.activeSeq, err))
			return 0, l.err
		}
		l.active = nil
		l.rotations.Add(1)
	}
	return l.nextSeq, nil
}

// SkipTo advances the segment numbering so the next created segment is
// numbered at least seq. Recovery calls this with the restored snapshot's
// WAL position: a checkpoint may have removed every segment below that
// position, and a fresh Open of the now-empty directory would otherwise
// restart numbering inside the covered range — records appended there would
// be skipped as "already in the snapshot" by the next recovery.
func (l *Log) SkipTo(seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.active == nil && seq > l.nextSeq {
		l.nextSeq = seq
	}
}

// RemoveBefore deletes sealed segments with sequence numbers strictly below
// seq — history a durable snapshot already covers. The active segment is
// never removed.
func (l *Log) RemoveBefore(seq uint64) error {
	l.mu.Lock()
	activeSeq, haveActive := l.activeSeq, l.active != nil
	l.mu.Unlock()
	seqs, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	var firstErr error
	for _, s := range seqs {
		if s >= seq || (haveActive && s == activeSeq) {
			continue
		}
		if err := l.opts.FS.Remove(filepath.Join(l.dir, segmentName(s))); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("wal: removing segment %d: %w", s, err)
		}
	}
	return firstErr
}

// Sync forces an fsync of the active segment, regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

// dtdvet:requires mu
func (l *Log) syncLocked() error {
	if l.err != nil {
		return l.err
	}
	if l.active == nil {
		return nil
	}
	if err := l.active.Sync(); err != nil {
		l.fail(fmt.Errorf("wal: syncing segment %d: %w", l.activeSeq, err))
		return l.err
	}
	l.syncs.Add(1)
	l.flushed = l.bytes.Load()
	return nil
}

// Flush makes every record appended before the call durable, without
// holding the log's mutex across the disk round-trip: concurrent appends
// to the same segment proceed while the fsync is in flight. This is the
// second half of the group-commit protocol — the leader journals with
// AppendBatchNoSync under the source's state lock, releases it, then
// acknowledges after Flush returns.
//
// Only the active segment needs syncing (sealing a segment syncs it before
// closing), and if a concurrent Flush or policy fsync already covered the
// caller's records the disk is not touched at all. If the active segment is
// sealed while the fsync is in flight, the seal's own sync made the records
// durable, so the racing fsync's error (typically "file already closed") is
// ignored; a sync failure on the still-active segment is sticky, exactly as
// for Append.
func (l *Log) Flush() error {
	target := l.bytes.Load()
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	if l.err != nil || l.active == nil || l.flushed >= target {
		err := l.err
		l.mu.Unlock()
		return err
	}
	f, seq := l.active, l.activeSeq
	// Every byte counted so far sits in a sealed (already durable) segment
	// or in f; the fsync below covers them all.
	covered := l.bytes.Load()
	l.mu.Unlock()
	syncErr := f.Sync()
	l.mu.Lock()
	defer l.mu.Unlock()
	if syncErr != nil {
		if l.activeSeq == seq && l.active != nil {
			l.fail(fmt.Errorf("wal: syncing segment %d: %w", seq, syncErr))
			return l.err
		}
	} else {
		l.syncs.Add(1)
	}
	if covered > l.flushed {
		l.flushed = covered
	}
	return l.err
}

// syncLoop is the SyncInterval background flusher. It calls Flush, which
// fsyncs outside the mutex (an Append arriving mid-sync does not wait for
// the disk) and skips a tick whose bytes an earlier sync already covered.
func (l *Log) syncLoop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	ticker := time.NewTicker(l.opts.SyncEvery)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			_ = l.Flush() // dtdvet:allow errsync -- a sync failure is sticky; Err surfaces it
		case <-stop:
			return
		}
	}
}

// fail records the first failure; the log is unusable afterwards. Callers
// hold l.mu.
// dtdvet:requires mu
func (l *Log) fail(err error) {
	if l.err == nil {
		l.err = err
	}
}

// Err returns the sticky failure, or nil while the log is healthy.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Stats returns operation counters since Open.
func (l *Log) Stats() Stats {
	return Stats{
		Appends:   l.appends.Load(),
		Bytes:     l.bytes.Load(),
		Syncs:     l.syncs.Load(),
		Rotations: l.rotations.Load(),
	}
}

// Dir returns the segment directory.
func (l *Log) Dir() string { return l.dir }

// Policy returns the fsync policy the log was opened with.
func (l *Log) Policy() SyncPolicy { return l.opts.Sync }

// Close flushes and closes the active segment and stops the background
// flusher. The log must not be used afterwards. Close is idempotent and
// safe to race with itself: the flusher channels are claimed under mu, so
// exactly one caller stops the sync loop (the unguarded access here was
// dtdvet's first real finding).
func (l *Log) Close() error {
	l.mu.Lock()
	stop, done := l.stopSync, l.syncDone
	l.stopSync, l.syncDone = nil, nil
	l.mu.Unlock()
	if stop != nil {
		// Stop the flusher without holding mu: its current tick needs the
		// lock to finish, and we wait for it.
		close(stop)
		<-done
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.active == nil {
		return l.err
	}
	syncErr := l.syncLocked()
	if err := l.active.Close(); err != nil && syncErr == nil {
		syncErr = err
	}
	l.active = nil
	return syncErr
}
