// Replica-facing surface of a Source (DESIGN.md §14).
//
// A follower replica (internal/replicate) holds a Source per shard that is
// permanently in replay mode: every state change arrives as a shipped WAL
// record and is applied through the same logical-command paths recovery
// uses, never re-journaled and never re-derived. The primary side exposes
// two small hooks — a retention floor so checkpoint-time WAL truncation
// keeps history followers have not acknowledged, and a GC error logger.

package source

import (
	"encoding/json"
	"fmt"
)

// SetReplica switches the source in or out of replica mode. In replica
// mode journaling is suppressed and the check phase does not re-derive
// evolutions: state changes are expected to arrive exclusively as shipped
// WAL records (ApplyWALRecord), exactly as during recovery replay.
// Promotion clears the mode (and attaches a fresh WAL) to make the replica
// a writable primary.
// dtdvet:nojournal -- mode flips are not replayable operations
func (s *Source) SetReplica(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.replaying = on
}

// Replica reports whether the source is in replica mode.
func (s *Source) Replica() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.replaying
}

// ApplyWALRecord decodes one journaled operation payload (a WAL frame's
// payload, as shipped from the primary) and applies it through the normal
// code paths. The source must be in replica (or recovery) mode so the
// operation is not re-journaled; applying records in shipped order on a
// state built from the primary's checkpoint reproduces the primary's state
// exactly.
// dtdvet:replayroot
func (s *Source) ApplyWALRecord(payload []byte) error {
	var op walOp
	if err := json.Unmarshal(payload, &op); err != nil {
		return fmt.Errorf("source: decoding WAL record: %w", err)
	}
	return s.applyOp(op)
}

// SnapshotAt serializes the state like Snapshot but stamps it with the
// given WAL position: walSeq is the first segment NOT covered by the
// snapshot. A follower checkpoints locally at segment boundaries — after
// fully applying segment K its state is exactly "everything before K+1",
// the same invariant Checkpoint establishes on the primary — so the file
// it writes is a valid recovery (and promotion) point.
func (s *Source) SnapshotAt(walSeq uint64) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.snapshotLocked(walSeq)
}

// SetWALRetention installs (or, with nil, removes) a retention floor
// consulted by Checkpoint before truncating covered WAL history: segments
// at or above the returned sequence number are kept even when the snapshot
// covers them. The replication primary uses it to pin segments its
// followers have not yet acknowledged, so GC can never outrun shipping.
// dtdvet:nojournal -- retention wiring is not a replayable operation
func (s *Source) SetWALRetention(floor func() uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.retain = floor
}

// SetWALGCLogger installs (or, with nil, removes) the observer for
// checkpoint-time WAL truncation failures. At most one error is reported
// per checkpoint (the removal pass returns its first failure); the
// wal_gc_errors metric counts them regardless.
// dtdvet:nojournal -- logger wiring is not a replayable operation
func (s *Source) SetWALGCLogger(logf func(error)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gcLogf = logf
}
