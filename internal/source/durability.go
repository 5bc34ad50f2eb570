// Crash-safe durability for the source lifecycle (DESIGN.md §10).
//
// The paper's scenario is a long-lived document source whose extended-DTD
// statistics accumulate over an unbounded stream; losing them resets the
// evolution process. A Source therefore journals every state-changing
// operation to a write-ahead log before the snapshot-at-shutdown path ever
// runs: recovery restores the latest checkpoint and replays the WAL tail.
//
// The journal is a *logical command log*: each record is the operation
// (document XML, DTD text, trigger source, forced evolution), not a state
// delta. Replaying the operations through the normal code paths, in commit
// order, reproduces the exact state: the write lock serializes commits, so
// WAL order is state order, and the check phase's own decisions
// (auto-evolutions, trigger firings) are journaled as records of their own
// the moment they fire, so replay — and a follower replica tailing the log
// mid-stream (internal/replicate) — applies the recorded decision instead
// of re-deriving it.
//
// Classification decisions travel the same way: a document record names
// the DTD its document was classified in (or the repository), and an
// evolution or reclassification record names the repository documents the
// reclassification recovered. Replay applies them and scores nothing, so
// recovered and follower state does not depend on the reading binary's
// similarity measure or σ. Records written before decisions were journaled
// carry none and replay by re-scoring.
package source

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dtdevolve/internal/classify"
	"dtdevolve/internal/wal"
	"dtdevolve/internal/xmltree"
)

// walOp is one journaled operation. Op selects the variant; the other
// fields carry its arguments.
type walOp struct {
	// Op is the operation: "doc" (document ingested), "sdoc" (document
	// ingested through the streaming path with a child budget in force),
	// "dtd" (DTD registered), "triggers" (rule set replaced), "trigger"
	// (rule appended), "evolve" (forced evolution), "reclassify" (forced
	// repository re-classification), "autoevolve" (check phase or trigger
	// rule fired an evolution), "autoreclassify" (trigger rule fired a
	// repository re-classification).
	Op string `json:"op"`
	// Name is the DTD name for "dtd", "evolve" and "autoevolve".
	Name string `json:"name,omitempty"`
	// Root is the DTD's declared root element for "dtd".
	Root string `json:"root,omitempty"`
	// Text is the operation body: document XML, DTD text, or trigger rule
	// source.
	Text string `json:"text,omitempty"`
	// MaxChildren is the per-element child budget in force for "sdoc" — a
	// streamed document that degraded under it. Replay re-streams with the
	// same budget so the degraded statistics land bit-identically.
	MaxChildren int `json:"max_children,omitempty"`
	// Class and Repository are the classification decision of "doc" and
	// "sdoc": the DTD the document was classified in, or that it went to
	// the repository. A record with neither was journaled before decisions
	// were; replay re-scores it. (Two plain fields rather than one pointer:
	// a pointer would cost every journaled document an allocation.)
	Class      string `json:"class,omitempty"`
	Repository bool   `json:"repository,omitempty"`
	// Recovered is the reclassification outcome of "evolve", "autoevolve",
	// "reclassify" and "autoreclassify": the repository documents that
	// reached σ, by ascending position in the repository as it stood before
	// the reclassification. Empty when nothing was recovered; nil marks a
	// record journaled before outcomes were, which replay re-scores.
	Recovered *[]recovery `json:"recovered,omitempty"`
}

// recovery is one repository document a reclassification recovered: its
// position in the repository and the DTD it was classified in.
type recovery struct {
	Pos int    `json:"pos"`
	DTD string `json:"dtd"`
}

// decided returns op carrying the classification decision cls.
func decided(op walOp, cls classify.Result) walOp {
	if cls.Classified {
		op.Class = cls.DTDName
	} else {
		op.Repository = true
	}
	return op
}

// encodeOp serializes one journal record. HTML escaping is off, so the
// markup of a journaled document keeps its size instead of growing every
// < and > into a six-byte \u003c escape; the decoder reads both spellings,
// so segments written with escaping still replay.
func encodeOp(op walOp) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(op); err != nil {
		return nil, err
	}
	return b.Bytes()[:b.Len()-1], nil // drop Encode's trailing newline
}

// journalingLocked reports whether operations are journaled now: a WAL is
// attached and healthy, and the source is not replaying one.
// dtdvet:requires mu:r
func (s *Source) journalingLocked() bool {
	return s.wal != nil && !s.replaying && s.walErr == nil
}

// journalLocked appends one operation to the attached WAL. Callers hold the
// write lock, so the append order is exactly the commit order.
// dtdvet:requires mu
// dtdvet:journalpoint
// dtdvet:replayroot
func (s *Source) journalLocked(op walOp) {
	if s.journalingLocked() {
		payload, _ := encodeOp(op)
		s.appendLocked(payload)
	}
}

// appendLocked appends one encoded record. While a group commits, the
// record goes to the group's sink for its single batched append
// (journalBatchLocked), between the document that caused it and the next
// one. A failed append — or a failed encoding, a nil payload, which
// marshalling a walOp (strings only) cannot produce — marks the source
// degraded (sticky): the in-memory state the caller is about to produce
// stays consistent with what the client is told, but the serving layer
// must stop accepting mutations (Degraded, HTTP 503) because their
// durability can no longer be promised.
// dtdvet:requires mu
// dtdvet:journalpoint
// dtdvet:replayroot
func (s *Source) appendLocked(payload []byte) {
	var err error
	switch {
	case payload == nil:
		err = errors.New("source: encoding WAL record failed")
	case s.journalSink != nil:
		*s.journalSink = append(*s.journalSink, payload)
		return
	default:
		err = s.wal.Append(payload)
	}
	if err != nil {
		s.walErr = err
		s.metrics.ObserveWALError()
	}
}

// journalBatchLocked appends a whole commit group's pre-serialized
// payloads as one WAL batch, in queue order, which is commit order because
// the caller holds the write lock across the append and every apply. The
// fsync is NOT taken here: under SyncAlways the returned log is non-nil
// and the caller must call its Flush after releasing the write lock (and
// before acknowledging the group), so the disk round-trip overlaps the
// next group's scoring and draining instead of stalling every reader
// behind a writer-held lock. A write failure matches appendLocked's: the
// source turns degraded (sticky) and the group still applies in memory.
// dtdvet:requires mu
// dtdvet:journalpoint
// dtdvet:replayroot
func (s *Source) journalBatchLocked(payloads [][]byte) (flush *wal.Log) {
	if !s.journalingLocked() || len(payloads) == 0 {
		return nil
	}
	if err := s.wal.AppendBatchNoSync(payloads); err != nil {
		s.walErr = err
		s.metrics.ObserveWALError()
		return nil
	}
	if s.wal.Policy() == wal.SyncAlways {
		return s.wal
	}
	return nil
}

// AttachWAL journals every subsequent state-changing operation to w. The
// log should be positioned after any replayed history (see Recover, which
// wires this up); attaching a log that still holds unreplayed records of
// another source would double-apply them on the next recovery.
// dtdvet:nojournal -- attaching the log is itself not a replayable operation
func (s *Source) AttachWAL(w *wal.Log) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.wal = w
	s.walErr = nil
}

// WAL returns the attached write-ahead log, or nil.
func (s *Source) WAL() *wal.Log {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.wal
}

// CloseWAL detaches and closes the write-ahead log (flushing its tail).
// dtdvet:nojournal -- detaching the log is itself not a replayable operation
func (s *Source) CloseWAL() error {
	s.mu.Lock()
	w := s.wal
	s.wal = nil
	s.mu.Unlock()
	if w == nil {
		return nil
	}
	return w.Close()
}

// Degraded returns the sticky durability failure, or nil while every
// journaled operation is reaching the log. A degraded source still serves
// reads and still mutates in memory when asked directly, but the serving
// layer refuses mutating requests (503) so no client is promised a
// durability the log can no longer provide.
func (s *Source) Degraded() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.walErr != nil {
		return s.walErr
	}
	if s.wal != nil {
		return s.wal.Err()
	}
	return nil
}

// applyOp replays one journaled operation through the normal code paths.
// Decided records apply their journaled outcome and score nothing; legacy
// records (no decision, Recovered nil) re-score, as they did when written.
func (s *Source) applyOp(op walOp) error {
	switch op.Op {
	case "doc":
		doc, err := xmltree.ParseString(op.Text)
		if err != nil {
			return fmt.Errorf("source: WAL document: %w", err)
		}
		if op.Class == "" && !op.Repository {
			s.Add(doc)
			return nil
		}
		// A decided record commits under its decision, scoring nothing.
		s.mu.RLock()
		cls, err := s.decisionLocked(op)
		gen := s.gen
		s.mu.RUnlock()
		if err != nil {
			return fmt.Errorf("source: WAL document: %w", err)
		}
		r := newReq(doc, cls, gen)
		s.commit(r)
		freeReq(r)
	case "sdoc":
		if err := s.applyStreamOp(op); err != nil {
			return err
		}
	case "dtd":
		s.mu.Lock()
		_, err := s.registerLocked(op, nil)
		s.mu.Unlock()
		if err != nil {
			return fmt.Errorf("source: WAL DTD %q: %w", op.Name, err)
		}
	case "triggers":
		if err := s.SetTriggerRules(op.Text); err != nil {
			return fmt.Errorf("source: WAL trigger rules: %w", err)
		}
	case "trigger":
		if err := s.AddTriggerRule(op.Text); err != nil {
			return fmt.Errorf("source: WAL trigger rule: %w", err)
		}
	case "evolve", "autoevolve":
		// "autoevolve" is a check-phase or trigger-fired evolution the
		// primary recorded; it applies like a forced one (the check phase is
		// suppressed while replaying).
		if _, _, err := s.evolveOp(op); err != nil {
			return fmt.Errorf("source: WAL %s: %w", op.Op, err)
		}
	case "reclassify", "autoreclassify":
		if _, err := s.reclassifyOp(op); err != nil {
			return fmt.Errorf("source: WAL %s: %w", op.Op, err)
		}
	default:
		return fmt.Errorf("source: unknown WAL operation %q", op.Op)
	}
	return nil
}

// decisionLocked turns a record's journaled decision back into the
// classification result it records. A DTD the source does not hold, or
// two decisions at once, means the record belongs to another log.
// dtdvet:requires mu:r
func (s *Source) decisionLocked(op walOp) (classify.Result, error) {
	switch {
	case op.Repository && op.Class != "":
		return classify.Result{}, fmt.Errorf("both classified in DTD %q and sent to the repository", op.Class)
	case op.Repository:
		return classify.Result{}, nil
	}
	if _, ok := s.entries[op.Class]; !ok {
		return classify.Result{}, fmt.Errorf("classified in unregistered DTD %q", op.Class)
	}
	return classify.Result{DTDName: op.Class, Classified: true}, nil
}

// RecoveryInfo describes what Recover rebuilt the source from.
type RecoveryInfo struct {
	// SnapshotRestored reports that a checkpoint was restored (rather than
	// starting empty).
	SnapshotRestored bool
	// Replayed is the number of WAL operations applied on top.
	Replayed int
	// Truncated reports a torn final record was truncated away (the normal
	// signature of a crash mid-append).
	Truncated bool
	// Corrupted reports CRC-detected corruption; the invalid suffix was
	// quarantined, never applied, and the recovered state is the longest
	// valid prefix.
	Corrupted bool
	// Quarantined lists the quarantine files recovery produced.
	Quarantined []string
}

// Recover rebuilds a Source from an optional snapshot (nil: start empty)
// plus the write-ahead log at walDir, then opens the log for appending and
// attaches it, so the recovered source is immediately durable again.
// Recovery is total over crash damage: a torn tail is truncated, corrupt
// suffixes are quarantined, and the state equals the reference state at the
// last durable record.
// dtdvet:replayroot
func Recover(cfg Config, snapshotData []byte, walDir string, opts wal.Options) (*Source, RecoveryInfo, error) {
	var info RecoveryInfo
	var s *Source
	var minSeq uint64
	if len(snapshotData) > 0 {
		restored, seq, err := RestoreAt(cfg, snapshotData)
		if err != nil {
			return nil, info, err
		}
		s = restored
		minSeq = seq
		info.SnapshotRestored = true
	} else {
		s = New(cfg)
	}

	s.mu.Lock()
	s.replaying = true
	s.mu.Unlock()
	res, err := wal.ReplayFrom(walDir, minSeq, func(payload []byte) error {
		var op walOp
		if err := json.Unmarshal(payload, &op); err != nil {
			return fmt.Errorf("source: decoding WAL record: %w", err)
		}
		return s.applyOp(op)
	})
	s.mu.Lock()
	s.replaying = false
	s.mu.Unlock()
	info.Replayed = res.Records
	info.Truncated = res.Truncated
	info.Corrupted = res.Corrupted
	info.Quarantined = res.Quarantined
	if err != nil {
		return nil, info, err
	}

	w, err := wal.Open(walDir, opts)
	if err != nil {
		return nil, info, err
	}
	// The checkpoint may have removed every segment it covers; keep new
	// segment numbers above its position so the next recovery replays them.
	w.SkipTo(minSeq)
	s.AttachWAL(w)
	return s, info, nil
}

// Checkpoint atomically writes a snapshot of the current state to path
// (temp file + fsync + rename) and truncates the WAL history the snapshot
// covers. The snapshot and the WAL position are taken under one write-lock
// section, so the pair is exact: every operation in the snapshot is in a
// truncated segment, every operation after it is in a kept one — a crash at
// any point between the two steps recovers correctly (ReplayFrom skips
// segments the restored snapshot covers).
//
// dtdvet:nojournal -- checkpointing changes no logical state; its only
// guarded write is the sticky walErr degraded marker
func (s *Source) Checkpoint(path string) error {
	s.mu.Lock()
	var keep uint64
	if s.wal != nil {
		seq, err := s.wal.Rotate()
		if err != nil {
			s.walErr = err
			s.metrics.ObserveWALError()
			s.mu.Unlock()
			return err
		}
		keep = seq
	}
	data, err := s.snapshotLocked(keep)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	if err := WriteFileAtomic(path, data); err != nil {
		return err
	}
	s.mu.RLock()
	w := s.wal
	retain := s.retain
	gcLogf := s.gcLogf
	s.mu.RUnlock()
	if w != nil {
		// Leftover sealed segments are skipped at recovery via the
		// snapshot's WAL position, so a failed removal costs disk, not
		// correctness — but a silently filling disk is an outage in the
		// making, so failures are counted (wal_gc_errors) and the first per
		// checkpoint is logged. The retention floor pins segments a
		// replication follower has not acknowledged (SetWALRetention).
		floor := keep
		if retain != nil {
			if f := retain(); f < floor {
				floor = f
			}
		}
		if err := w.RemoveBefore(floor); err != nil {
			s.metrics.ObserveWALGCError()
			if gcLogf != nil {
				gcLogf(err)
			}
		}
	}
	s.metrics.ObserveCheckpoint()
	return nil
}

// WriteFileAtomic writes data to path via a temp file, fsync and rename, so
// a crash leaves either the old or the new file — never a torn one. The
// rename is made durable by fsyncing the containing directory.
func WriteFileAtomic(path string, data []byte) (err error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpPath := tmp.Name()
	closed := false
	defer func() {
		if !closed {
			_ = tmp.Close() // dtdvet:allow errsync -- error path: Write/Sync already failed and is being returned
		}
		if err != nil {
			os.Remove(tmpPath)
		}
	}()
	if _, err = tmp.Write(data); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	closed = true
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmpPath, path); err != nil {
		return err
	}
	// Make the rename itself durable. A checkpoint whose directory entry
	// could still vanish in a crash must not report success: recovery would
	// then replay from a WAL position the on-disk snapshot does not cover.
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return fmt.Errorf("source: opening checkpoint directory: %w", err)
	}
	err = dir.Sync()
	if cerr := dir.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("source: syncing checkpoint directory: %w", err)
	}
	return nil
}

// StartCheckpointer runs Checkpoint(path) every interval on a background
// goroutine until the returned stop function is called (which runs one
// final checkpoint before returning). onErr, when non-nil, observes
// checkpoint failures; the checkpointer keeps trying.
//
// The first checkpoint fires after interval plus a random phase in
// [0, interval): a checkpoint is a snapshot serialization plus an fsync
// burst, and co-located sources started together (N shards of one router,
// a fleet restart) would otherwise storm the disk on every shared tick.
// Callers that want a specific phase use StartCheckpointerDelayed.
func (s *Source) StartCheckpointer(path string, interval time.Duration, onErr func(error)) (stop func()) {
	if interval <= 0 {
		interval = 30 * time.Second
	}
	return s.StartCheckpointerDelayed(path, interval, rand.N(interval), onErr)
}

// StartCheckpointerDelayed is StartCheckpointer with an explicit phase:
// the first tick fires after phase+interval, subsequent ones every
// interval. A router staggers its shards' phases deterministically at
// i/N of the interval so their checkpoint fsyncs interleave.
func (s *Source) StartCheckpointerDelayed(path string, interval, phase time.Duration, onErr func(error)) (stop func()) {
	if interval <= 0 {
		interval = 30 * time.Second
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if phase > 0 {
			t := time.NewTimer(phase)
			select {
			case <-t.C:
			case <-done:
				t.Stop()
				return
			}
		}
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				if err := s.Checkpoint(path); err != nil && onErr != nil {
					onErr(err)
				}
			case <-done:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
			if err := s.Checkpoint(path); err != nil && onErr != nil {
				onErr(err)
			}
		})
	}
}
