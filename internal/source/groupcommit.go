// Group commit: the one commit schedule (DESIGN.md §8, §10).
//
// Journaling — and, under SyncAlways, an fsync — inside the write lock
// would serialize concurrent writers behind the disk: throughput would cap
// at ~1/fsync-latency documents per second. Group commit is the classic
// database answer: while one fsync is in flight, every commit that arrives
// queues up, and the next fsync covers them all.
//
// The scheme is leader/follower with no dedicated goroutine. A committing
// caller — Add, AddBatch, AddStream, or a replayed or follower-applied
// record — pre-serializes its journal payload *before* any lock, then
// enqueues a commitReq. The first enqueuer becomes the leader: it drains
// up to DefaultMaxGroup requests, runs each through the one commit step
// (commit.go), journals all their payloads with one batched WAL write (one
// mutex acquisition, one write) and applies every request's state changes
// under a single write-lock section, then releases the lock, runs the
// group's single fsync (wal.Flush) outside it — so readers score the next
// group while the disk round-trip is in flight — and only then signals the
// requests' done channels: acknowledgement strictly follows durability. A
// leader that found its own requests in the drained group hands
// leadership to the head of the remaining queue (promote channel) instead
// of draining forever, so a leader's latency is bounded by its own group,
// not by the arrival rate; the handoff happens after the flush, so the
// successor's group keeps filling for the whole disk round-trip and its
// size tracks fsync latency (see lead).
//
// Replay safety needs no group framing: the batched append leaves the
// exact byte stream sequential Appends would, payloads are in queue order,
// and groups serialize on the write lock, so WAL order is still commit
// order. A crash inside a group truncates to a record boundary and
// recovery replays exactly the journaled prefix; under SyncAlways none of
// the torn group's documents were acknowledged, because the group's fsync
// never returned.
package source

import (
	"slices"
	"sync"
	"time"

	"dtdevolve/internal/wal"
)

// DefaultMaxGroup bounds how many documents one leader commits, and
// journals as a single WAL batch. It stays exported for
// httpbench/server.go, which passes it in GroupCommitOptions.
const DefaultMaxGroup = 64

// GroupCommitOptions is read by nothing: every commit goes through the
// group queue, bounded by DefaultMaxGroup. The type stays for
// httpbench/server.go, which passes it to shard.Router.EnableGroupCommit.
type GroupCommitOptions struct {
	MaxGroup int
}

// groupCommitter coordinates leader/follower commits for one Source. Its
// own mutex guards only the staging queue; committed state stays guarded
// by Source.mu.
type groupCommitter struct {
	s *Source

	mu      sync.Mutex
	queue   []*commitReq // dtdvet:guarded_by mu
	leading bool         // dtdvet:guarded_by mu

	// group and payloads are the leader's buffers: the drained requests
	// and their journal records. Only the leader touches them, and it
	// clears them before it hands leadership on, so they pin no committed
	// request and cost no allocation once grown.
	group    []*commitReq
	payloads [][]byte
}

// submit enqueues reqs in FIFO order. If no leader is active the caller
// becomes it and returns only after all of reqs are durable and applied;
// otherwise submit returns immediately and the caller waits on each req.
// dtdvet:nojournal -- commit-queue staging: every queued document is journaled by commitGroupLocked before its state changes apply
func (gc *groupCommitter) submit(reqs []*commitReq) {
	gc.mu.Lock()
	gc.queue = append(gc.queue, reqs...)
	gc.s.metrics.SetCommitQueueDepth(len(gc.queue))
	if gc.leading {
		gc.mu.Unlock()
		return
	}
	gc.leading = true
	gc.mu.Unlock()
	gc.lead(reqs[len(reqs)-1])
}

// wait blocks until req is committed, taking over as leader if the
// departing one hands this request the queue.
func (gc *groupCommitter) wait(req *commitReq) {
	// A request whose own caller led its group is done already, as is
	// every replayed one: take that without the two-channel select, which
	// costs several times more.
	select {
	case <-req.done:
		return
	default:
	}
	// The cases are mutually exclusive: a promoted request is still queued,
	// stays queued until its own waiter leads (there is no other leader),
	// and a committed request is never promoted.
	select {
	case <-req.done:
	case <-req.promote:
		gc.lead(req)
		<-req.done
	}
}

// lead drains and commits groups until last (one of the caller's own
// requests, guaranteed to be queued) has been committed, then either
// clears leadership or hands it to the head of the remaining queue.
//
// The write lock is taken before draining, so nothing enqueued after the
// drain can sneak ahead of the group, and the write-lock section holds
// only the batched WAL write and the state applies — the group's fsync
// runs after the unlock, where it blocks neither readers (scoring the
// next group) nor writers (growing the queue). Leadership hands off only
// after that fsync: the full commit cycle of group k overlaps the filling
// of group k+1, which pushes the group size toward arrival-rate ×
// fsync-latency — the disk's actual capacity — instead of whatever raced
// in during a handoff gap.
// dtdvet:nojournal -- commit-queue staging: drained documents are journaled by commitGroupLocked before their state changes apply
func (gc *groupCommitter) lead(last *commitReq) {
	s := gc.s
	for {
		commit := time.Now() // dtdvet:allow replaydet -- wall clock feeds commit-latency metrics only; never journaled or replayed
		s.mu.Lock()
		gc.mu.Lock()
		n := min(len(gc.queue), DefaultMaxGroup)
		gc.group = append(gc.group, gc.queue[:n]...)
		rest := copy(gc.queue, gc.queue[n:])
		clear(gc.queue[rest:])
		gc.queue = gc.queue[:rest]
		s.metrics.SetCommitQueueDepth(rest)
		gc.mu.Unlock()
		owned := slices.Contains(gc.group, last)

		flush := gc.commitGroupLocked()
		s.mu.Unlock()
		if flush != nil {
			// The group's fsync, after the write lock is released: readers
			// score the next group while the disk round-trip is in flight.
			// Acknowledgement still waits for it — done is signalled only
			// after Flush returns — so no document is acked before its
			// record is durable. On failure the source degrades exactly as
			// an in-lock sync failure would: the group stays applied in
			// memory and the serving layer stops accepting mutations.
			if err := flush.Flush(); err != nil {
				s.mu.Lock()
				if s.walErr == nil {
					s.walErr = err
					s.metrics.ObserveWALError()
				}
				s.mu.Unlock()
			}
		}
		s.metrics.ObserveCommitPhase(time.Since(commit)) // dtdvet:allow replaydet -- metrics only
		// A waiter frees its request once done is signalled, so each slot
		// is read before its signal and the buffer is cleared after the
		// last one.
		for _, r := range gc.group {
			r.done <- struct{}{}
		}
		clear(gc.group)
		gc.group = gc.group[:0]
		if owned {
			// Hand off after the fsync, not at drain time: a successor
			// promoted any earlier would drain the moment the write lock
			// frees (before the disk round-trip) and commit a near-empty
			// group. Held until here, the queue keeps filling for the whole
			// flush, so group size tracks fsync latency — the disk's actual
			// capacity — instead of the write lock's occupancy. The promoted
			// request is still queued (this drain did not take it), so its
			// group is never empty; it stays queued after the unlock, since
			// only a leader drains.
			gc.mu.Lock()
			var next *commitReq
			if len(gc.queue) > 0 {
				next = gc.queue[0]
			} else {
				gc.leading = false
			}
			gc.mu.Unlock()
			if next != nil {
				next.promote <- struct{}{}
			}
			return
		}
	}
}

// commitGroupLocked journals and applies the drained group inside the
// leader's write-lock section: each request runs the commit step in queue
// order, with the journal sink set, so every record — the documents' and
// those their applies journal (auto-evolutions, trigger firings), each
// landing between the document that caused it and the next — is collected
// for one batched WAL write that leaves the exact byte stream sequential
// appends would. The group's fsync is deliberately NOT in here: when one
// is owed (SyncAlways), the attached log is returned and the leader
// flushes it after releasing the write lock, before signalling any done
// channel.
// dtdvet:requires Source.mu
func (gc *groupCommitter) commitGroupLocked() (flush *wal.Log) {
	s := gc.s
	s.journalSink = &gc.payloads
	for _, r := range gc.group {
		s.stepLocked(r)
	}
	s.journalSink = nil
	flush = s.journalBatchLocked(gc.payloads)
	clear(gc.payloads)
	gc.payloads = gc.payloads[:0]
	if !s.replaying {
		// Replayed and follower-applied records reach the queue one at a
		// time and write nothing to the WAL: no group to report.
		s.metrics.ObserveGroup(len(gc.group))
	}
	return flush
}
