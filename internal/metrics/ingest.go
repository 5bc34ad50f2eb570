package metrics

import (
	"sync/atomic"
	"time"
)

// Ingest aggregates operational counters for the source ingest pipeline:
// how many documents were offered, where they went, how often evolution
// fired, and how long the two phases of an Add (concurrent classification,
// write-locked commit) take. All methods are safe for concurrent use and
// nil-safe, so instrumentation points need no guards.
//
// These are service-side observability counters, complementing the offline
// evaluation measures (Conformance, MeanSimilarity, …) in this package.
type Ingest struct {
	added        atomic.Int64
	classified   atomic.Int64
	repository   atomic.Int64
	evolutions   atomic.Int64
	reclassified atomic.Int64
	batches      atomic.Int64

	classifyNS    atomic.Int64
	classifyCalls atomic.Int64
	commitNS      atomic.Int64
	commitCalls   atomic.Int64

	walErrors   atomic.Int64
	walGCErrors atomic.Int64
	checkpoints atomic.Int64

	// Streaming-ingest counters: documents that went through the one-pass
	// path, the input bytes they consumed, and documents rejected by the
	// byte budget.
	streamDocs             atomic.Int64
	streamBytes            atomic.Int64
	streamRejectedOversize atomic.Int64

	// Group-commit counters: how many WAL groups were committed, how many
	// documents they carried (groupDocs/groups is the mean group size), the
	// extreme sizes seen, and the instantaneous commit-queue depth.
	groups     atomic.Int64
	groupDocs  atomic.Int64
	groupMin   atomic.Int64 // 0 until the first group
	groupMax   atomic.Int64
	queueDepth atomic.Int64
}

// ObserveDocument records the outcome of one added document.
func (m *Ingest) ObserveDocument(classified bool) {
	if m == nil {
		return
	}
	m.added.Add(1)
	if classified {
		m.classified.Add(1)
	} else {
		m.repository.Add(1)
	}
}

// ObserveBatch records one AddBatch call.
func (m *Ingest) ObserveBatch() {
	if m == nil {
		return
	}
	m.batches.Add(1)
}

// ObserveEvolution records one run of the evolution phase.
func (m *Ingest) ObserveEvolution() {
	if m == nil {
		return
	}
	m.evolutions.Add(1)
}

// ObserveReclassified records n repository documents recovered by
// re-classification.
func (m *Ingest) ObserveReclassified(n int) {
	if m == nil || n == 0 {
		return
	}
	m.reclassified.Add(int64(n))
}

// ObserveClassifyPhase records the latency of one classification phase (the
// read-locked, concurrent scoring of one Add or AddBatch).
func (m *Ingest) ObserveClassifyPhase(d time.Duration) {
	if m == nil {
		return
	}
	m.classifyNS.Add(int64(d))
	m.classifyCalls.Add(1)
}

// ObserveCommitPhase records the latency of one commit phase (the
// write-locked record/check/evolve section of one Add or AddBatch).
func (m *Ingest) ObserveCommitPhase(d time.Duration) {
	if m == nil {
		return
	}
	m.commitNS.Add(int64(d))
	m.commitCalls.Add(1)
}

// ObserveGroup records one committed WAL group of n documents.
func (m *Ingest) ObserveGroup(n int) {
	if m == nil || n <= 0 {
		return
	}
	m.groups.Add(1)
	m.groupDocs.Add(int64(n))
	for {
		min := m.groupMin.Load()
		if min != 0 && min <= int64(n) {
			break
		}
		if m.groupMin.CompareAndSwap(min, int64(n)) {
			break
		}
	}
	for {
		max := m.groupMax.Load()
		if max >= int64(n) {
			break
		}
		if m.groupMax.CompareAndSwap(max, int64(n)) {
			break
		}
	}
}

// SetCommitQueueDepth records the current depth of the commit queue.
func (m *Ingest) SetCommitQueueDepth(n int) {
	if m == nil {
		return
	}
	m.queueDepth.Store(int64(n))
}

// ObserveStream records one document ingested through the streaming
// one-pass path and the input bytes it consumed.
func (m *Ingest) ObserveStream(bytes int64) {
	if m == nil {
		return
	}
	m.streamDocs.Add(1)
	m.streamBytes.Add(bytes)
}

// ObserveStreamRejectedOversize records one streamed document rejected by
// the byte budget (HTTP 413 at the serving layer).
func (m *Ingest) ObserveStreamRejectedOversize() {
	if m == nil {
		return
	}
	m.streamRejectedOversize.Add(1)
}

// ObserveWALError records a failed write-ahead-log append or sync — the
// event that degrades the service to read-only.
func (m *Ingest) ObserveWALError() {
	if m == nil {
		return
	}
	m.walErrors.Add(1)
}

// ObserveWALGCError records a failed WAL segment removal after a
// checkpoint. Retention failures cost disk, not correctness — recovery
// skips covered segments via the snapshot's WAL position — but a silently
// filling disk is an outage in the making, so they are counted.
func (m *Ingest) ObserveWALGCError() {
	if m == nil {
		return
	}
	m.walGCErrors.Add(1)
}

// ObserveCheckpoint records one completed checkpoint (snapshot written,
// covered WAL history truncated).
func (m *Ingest) ObserveCheckpoint() {
	if m == nil {
		return
	}
	m.checkpoints.Add(1)
}

// IngestSnapshot is a point-in-time copy of the counters, with derived
// per-call phase latencies. It is the JSON shape of the service's
// GET /metrics route.
type IngestSnapshot struct {
	// Added is the total number of documents offered (Add and AddBatch).
	Added int64 `json:"added"`
	// Classified counts documents that reached σ against some DTD.
	Classified int64 `json:"classified"`
	// Repository counts documents sent to the unclassified repository.
	Repository int64 `json:"repository"`
	// Evolutions counts runs of the evolution phase (automatic or forced).
	Evolutions int64 `json:"evolutions"`
	// Reclassified counts repository documents recovered after evolutions.
	Reclassified int64 `json:"reclassified"`
	// Batches counts AddBatch calls.
	Batches int64 `json:"batches"`

	// ClassifyNS / CommitNS are cumulative per-phase latencies; the Avg
	// variants divide by the number of calls (0 when none). The call counts
	// are exported so Aggregate can recompute exact averages across shards.
	ClassifyNS    int64 `json:"classify_ns_total"`
	CommitNS      int64 `json:"commit_ns_total"`
	ClassifyCalls int64 `json:"classify_calls,omitempty"`
	CommitCalls   int64 `json:"commit_calls,omitempty"`
	AvgClassifyNS int64 `json:"classify_ns_avg"`
	AvgCommitNS   int64 `json:"commit_ns_avg"`

	// Durability counters (DESIGN.md §10). The WAL* values mirror the
	// attached log's own statistics; WALErrors counts journal failures
	// (each marks the source degraded); WALGCErrors counts failed segment
	// removals after checkpoints (disk cost, not a correctness risk);
	// Checkpoints counts completed snapshot+truncate cycles.
	WALAppends   int64 `json:"wal_appends,omitempty"`
	WALBytes     int64 `json:"wal_bytes,omitempty"`
	WALSyncs     int64 `json:"wal_syncs,omitempty"`
	WALRotations int64 `json:"wal_rotations,omitempty"`
	WALErrors    int64 `json:"wal_errors,omitempty"`
	WALGCErrors  int64 `json:"wal_gc_errors,omitempty"`
	Checkpoints  int64 `json:"checkpoints,omitempty"`

	// Streaming-ingest counters (DESIGN.md §15): documents ingested through
	// the bounded-memory one-pass path, the input bytes they consumed, and
	// documents its byte budget rejected.
	StreamDocs             int64 `json:"stream_docs,omitempty"`
	StreamBytes            int64 `json:"stream_bytes,omitempty"`
	StreamRejectedOversize int64 `json:"stream_rejected_oversize,omitempty"`

	// Candidate-index shape (DESIGN.md §12): ClassifyPossible is the
	// alignments exhaustive scoring would have run (classifications ×
	// registered DTDs), ClassifyCandidates how many DTDs survived the
	// signature prefilter, ClassifyScored how many DP alignments actually
	// ran, ClassifyPruned how many surviving candidates the upper bound
	// skipped. ClassifyPruneRatio is 1 − Scored/Possible.
	ClassifyPossible   int64   `json:"classify_possible,omitempty"`
	ClassifyCandidates int64   `json:"classify_candidates,omitempty"`
	ClassifyScored     int64   `json:"classify_scored,omitempty"`
	ClassifyPruned     int64   `json:"classify_pruned,omitempty"`
	ClassifyPruneRatio float64 `json:"classify_prune_ratio,omitempty"`
	// InternedSymbols is the size of the source's label symbol table.
	InternedSymbols int64 `json:"interned_symbols,omitempty"`

	// Group-commit shape: size statistics of the WAL batches written by the
	// leader/follower commit pipeline, the current commit-queue depth, and
	// the amortized fsync cost per document (WALSyncs/Added; well under 1
	// when group commit is absorbing concurrent writers). The queue depth is
	// always present, 0 when idle; the group fields are absent until a live
	// group commits.
	WALGroups        int64   `json:"wal_groups,omitempty"`
	WALGroupSizeMin  int64   `json:"wal_group_size_min,omitempty"`
	WALGroupSizeMean float64 `json:"wal_group_size_mean,omitempty"`
	WALGroupSizeMax  int64   `json:"wal_group_size_max,omitempty"`
	CommitQueueDepth int64   `json:"commit_queue_depth"`
	FsyncsPerDoc     float64 `json:"fsyncs_per_doc,omitempty"`
}

// Snapshot returns a copy of the current counters. A nil Ingest yields the
// zero snapshot.
func (m *Ingest) Snapshot() IngestSnapshot {
	if m == nil {
		return IngestSnapshot{}
	}
	s := IngestSnapshot{
		Added:        m.added.Load(),
		Classified:   m.classified.Load(),
		Repository:   m.repository.Load(),
		Evolutions:   m.evolutions.Load(),
		Reclassified: m.reclassified.Load(),
		Batches:      m.batches.Load(),
		ClassifyNS:   m.classifyNS.Load(),
		CommitNS:     m.commitNS.Load(),
		WALErrors:    m.walErrors.Load(),
		WALGCErrors:  m.walGCErrors.Load(),
		Checkpoints:  m.checkpoints.Load(),

		StreamDocs:             m.streamDocs.Load(),
		StreamBytes:            m.streamBytes.Load(),
		StreamRejectedOversize: m.streamRejectedOversize.Load(),

		WALGroups:        m.groups.Load(),
		WALGroupSizeMin:  m.groupMin.Load(),
		WALGroupSizeMax:  m.groupMax.Load(),
		CommitQueueDepth: m.queueDepth.Load(),
	}
	s.ClassifyCalls = m.classifyCalls.Load()
	s.CommitCalls = m.commitCalls.Load()
	if s.ClassifyCalls > 0 {
		s.AvgClassifyNS = s.ClassifyNS / s.ClassifyCalls
	}
	if s.CommitCalls > 0 {
		s.AvgCommitNS = s.CommitNS / s.CommitCalls
	}
	if s.WALGroups > 0 {
		s.WALGroupSizeMean = float64(m.groupDocs.Load()) / float64(s.WALGroups)
	}
	return s
}

// Aggregate rolls per-shard snapshots up into one service-wide snapshot:
// counters sum, averages and ratios are recomputed from the summed
// numerators and denominators (not averaged-over-averages), the group-size
// min/max take the extremes of the shards that committed groups, and the
// commit-queue depth sums (total documents waiting service-wide).
func Aggregate(shards []IngestSnapshot) IngestSnapshot {
	var out IngestSnapshot
	var groupDocs float64
	for _, s := range shards {
		out.Added += s.Added
		out.Classified += s.Classified
		out.Repository += s.Repository
		out.Evolutions += s.Evolutions
		out.Reclassified += s.Reclassified
		out.Batches += s.Batches
		out.ClassifyNS += s.ClassifyNS
		out.CommitNS += s.CommitNS
		out.ClassifyCalls += s.ClassifyCalls
		out.CommitCalls += s.CommitCalls
		out.WALAppends += s.WALAppends
		out.WALBytes += s.WALBytes
		out.WALSyncs += s.WALSyncs
		out.WALRotations += s.WALRotations
		out.WALErrors += s.WALErrors
		out.WALGCErrors += s.WALGCErrors
		out.Checkpoints += s.Checkpoints
		out.StreamDocs += s.StreamDocs
		out.StreamBytes += s.StreamBytes
		out.StreamRejectedOversize += s.StreamRejectedOversize
		out.ClassifyPossible += s.ClassifyPossible
		out.ClassifyCandidates += s.ClassifyCandidates
		out.ClassifyScored += s.ClassifyScored
		out.ClassifyPruned += s.ClassifyPruned
		out.InternedSymbols += s.InternedSymbols
		out.WALGroups += s.WALGroups
		out.CommitQueueDepth += s.CommitQueueDepth
		groupDocs += s.WALGroupSizeMean * float64(s.WALGroups)
		if s.WALGroups > 0 {
			if out.WALGroupSizeMin == 0 || s.WALGroupSizeMin < out.WALGroupSizeMin {
				out.WALGroupSizeMin = s.WALGroupSizeMin
			}
			if s.WALGroupSizeMax > out.WALGroupSizeMax {
				out.WALGroupSizeMax = s.WALGroupSizeMax
			}
		}
	}
	if out.ClassifyCalls > 0 {
		out.AvgClassifyNS = out.ClassifyNS / out.ClassifyCalls
	}
	if out.CommitCalls > 0 {
		out.AvgCommitNS = out.CommitNS / out.CommitCalls
	}
	if out.ClassifyPossible > 0 {
		out.ClassifyPruneRatio = 1 - float64(out.ClassifyScored)/float64(out.ClassifyPossible)
	}
	if out.WALGroups > 0 {
		out.WALGroupSizeMean = groupDocs / float64(out.WALGroups)
	}
	if out.Added > 0 && out.WALSyncs > 0 {
		out.FsyncsPerDoc = float64(out.WALSyncs) / float64(out.Added)
	}
	return out
}
