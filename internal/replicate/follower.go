package replicate

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"dtdevolve/internal/api"
	"dtdevolve/internal/shard"
	"dtdevolve/internal/source"
	"dtdevolve/internal/wal"
)

// FollowerOptions tunes a follower replica.
type FollowerOptions struct {
	// ID names this follower in the primary's registry (ack tracking, GC
	// pinning). Followers sharing an ID share an ack floor; give each
	// replica a stable unique ID. Empty means "follower".
	ID string
	// Dir is the local replica root (required): a mirror of the primary's
	// durable layout, directly recoverable — and promotable — by the
	// ordinary startup path.
	Dir string
	// Poll is the tail polling interval while caught up. 0 means 250ms.
	Poll time.Duration
	// BackoffBase/BackoffMax bound the jittered exponential retry delay on
	// transient failures. 0 means 100ms / 5s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// MaxStaleness, when positive, flips the follower to degraded (reads
	// answer 503, except /status and /metrics) once any shard has not been
	// confirmed caught up for this long.
	MaxStaleness time.Duration
	// WAL is the local log configuration used at promotion, when the
	// replica starts journaling its own writes.
	WAL wal.Options
	// Client is the HTTP client for primary requests. nil gets a client
	// with a 30s timeout.
	Client *http.Client
	// Logf, when set, receives operational log lines.
	Logf func(format string, args ...any)
}

func (o *FollowerOptions) normalize() error {
	if o.Dir == "" {
		return errors.New("replicate: FollowerOptions.Dir is required")
	}
	if o.ID == "" {
		o.ID = "follower"
	}
	if o.Poll <= 0 {
		o.Poll = 250 * time.Millisecond
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 100 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 5 * time.Second
	}
	if o.Client == nil {
		o.Client = &http.Client{Timeout: 30 * time.Second}
	}
	return nil
}

// ShardLag is one shard's replication position, exposed in /status and
// /metrics on the follower.
type ShardLag struct {
	Shard int `json:"shard"`
	// Segment/Offset is the follower's cursor: the segment currently being
	// ingested and how many of its bytes are stored and applied locally.
	Segment uint64 `json:"segment"`
	Offset  int64  `json:"offset"`
	// SegmentsBehind/BytesBehind measure the durable primary data not yet
	// applied here, as of the last successful poll.
	SegmentsBehind int64 `json:"segments_behind"`
	BytesBehind    int64 `json:"bytes_behind"`
	// SecondsBehind is how long ago this shard was last confirmed fully
	// caught up (0 while it is).
	SecondsBehind  float64 `json:"seconds_behind"`
	RecordsApplied int64   `json:"records_applied"`
	FetchedBytes   int64   `json:"fetched_bytes"`
	// Retries counts backed-off transient failures (primary unreachable,
	// chunk CRC mismatch in transit).
	Retries int64 `json:"retries,omitempty"`
	// Corruptions counts CRC-invalid frames that reached the local segment
	// and were quarantined (never applied) before refetching.
	Corruptions int64 `json:"corruptions,omitempty"`
	// ResyncRequired is sticky: the primary no longer has history this
	// follower needs (or a record failed to apply); restart the follower to
	// re-bootstrap from the current checkpoint.
	ResyncRequired bool   `json:"resync_required,omitempty"`
	LastError      string `json:"last_error,omitempty"`
}

// FollowerStatus is the replication state a follower injects into
// GET /status and GET /metrics.
type FollowerStatus struct {
	Role     string     `json:"role"`
	Primary  string     `json:"primary"`
	Promoted bool       `json:"promoted,omitempty"`
	Stale    bool       `json:"stale,omitempty"`
	Shards   []ShardLag `json:"shards"`
}

// shardTail is one shard's tail cursor. Everything here is owned by the
// shard's tailer goroutine (and, after the tailers are stopped, by
// Promote/Close); observable state is mirrored into Follower.lags under
// Follower.mu.
type shardTail struct {
	shard int
	dir   string // local WAL dir (mirror of the primary's)
	ckpt  string // local checkpoint file
	src   *source.Source

	seq       uint64   // segment currently being ingested
	written   int64    // bytes of it stored locally
	applied   int64    // frame-boundary prefix applied to src
	pending   []byte   // stored-but-unapplied tail (partial frame)
	file      *os.File // open local segment file, nil until first append
	lastAcked uint64   // highest segment acked to the primary
	records   int64
	fetched   int64
}

// Follower is a read-only replica of a primary: per shard, a Source in
// replica mode fed by tailing the primary's shipped WAL. Build with Open
// (bootstrap), run with Start, serve Handler, and optionally Promote once
// the primary is gone.
type Follower struct {
	base    string
	cfg     source.Config
	opts    FollowerOptions
	nshards int
	seed    uint64
	sources []*source.Source
	tails   []*shardTail
	eng     api.Engine
	client  *http.Client

	stop      chan struct{}
	wg        sync.WaitGroup
	startOnce sync.Once
	stopOnce  sync.Once

	mu       sync.Mutex
	lags     []ShardLag  // dtdvet:guarded_by mu
	caught   []bool      // dtdvet:guarded_by mu -- shard confirmed caught up at its last poll
	lastOK   []time.Time // dtdvet:guarded_by mu -- last instant the shard was confirmed caught up
	failed   []error     // dtdvet:guarded_by mu -- sticky per-shard failure (resync required)
	promoted bool        // dtdvet:guarded_by mu
}

// Open bootstraps a follower of the primary at base (e.g.
// "http://primary:8080"): fetches the layout, mirrors the manifest into
// opts.Dir, restores each shard from the local checkpoint if present or
// the primary's otherwise, replays local segments (torn tails truncated,
// corruption quarantined — crash recovery of the follower itself), and
// positions the tail cursors. ctx bounds the bootstrap, including its
// retry/backoff against an unreachable primary.
func Open(ctx context.Context, cfg source.Config, base string, opts FollowerOptions) (*Follower, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	f := &Follower{
		base:   trimSlash(base),
		cfg:    cfg,
		opts:   opts,
		client: opts.Client,
		stop:   make(chan struct{}),
	}
	info, err := f.fetchInfoRetry(ctx)
	if err != nil {
		return nil, err
	}
	if info.Version != protocolVersion {
		return nil, fmt.Errorf("replicate: primary speaks protocol v%d, want v%d", info.Version, protocolVersion)
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	if n, seed, ok, err := shard.ReadManifest(opts.Dir); err != nil {
		return nil, err
	} else if ok && (n != info.Shards || seed != info.Seed) {
		return nil, fmt.Errorf("replicate: local replica %s has %d shards (seed %d), primary has %d (seed %d); point the follower at an empty directory to re-bootstrap",
			opts.Dir, n, seed, info.Shards, info.Seed)
	} else if !ok {
		if err := shard.WriteManifest(opts.Dir, info.Shards, info.Seed); err != nil {
			return nil, err
		}
	}
	f.nshards, f.seed = info.Shards, info.Seed
	if err := f.post(ctx, "register", url.Values{"id": {f.opts.ID}}); err != nil {
		return nil, err
	}

	f.sources = make([]*source.Source, f.nshards)
	f.tails = make([]*shardTail, f.nshards)
	f.mu.Lock()
	f.lags = make([]ShardLag, f.nshards)
	f.caught = make([]bool, f.nshards)
	f.lastOK = make([]time.Time, f.nshards)
	f.failed = make([]error, f.nshards)
	f.mu.Unlock()
	for i := 0; i < f.nshards; i++ {
		st, err := f.bootstrapShard(ctx, i)
		if err != nil {
			return nil, fmt.Errorf("replicate: bootstrapping shard %d: %w", i, err)
		}
		f.tails[i] = st
		f.sources[i] = st.src
		f.mu.Lock()
		f.lags[i] = ShardLag{Shard: i, Segment: st.seq, Offset: st.applied, RecordsApplied: st.records}
		f.lastOK[i] = time.Now()
		f.mu.Unlock()
	}
	// Mirror the primary's serving shape: a sharded primary (even one
	// shard) merges snapshots through the router envelope, an unsharded one
	// serves the bare source — matching it keeps /snapshot byte-comparable.
	if info.Sharded {
		f.eng = shard.NewReplica(cfg, f.sources, f.seed)
	} else {
		f.eng = api.SourceEngine(f.sources[0])
	}
	return f, nil
}

func trimSlash(s string) string {
	for len(s) > 0 && s[len(s)-1] == '/' {
		s = s[:len(s)-1]
	}
	return s
}

// bootstrapShard restores one shard and positions its cursor. On a
// coverage gap (the primary truncated history this replica needs — its
// acks expired while it was down) the local shard state is wiped and the
// bootstrap retried from the primary's current checkpoint.
func (f *Follower) bootstrapShard(ctx context.Context, i int) (*shardTail, error) {
	st := &shardTail{
		shard: i,
		dir:   filepath.Join(f.opts.Dir, shard.ShardDirName(i)),
		ckpt:  filepath.Join(f.opts.Dir, shard.CheckpointFileName(i)),
	}
	if err := os.MkdirAll(st.dir, 0o755); err != nil {
		return nil, err
	}
	for attempt := 0; ; attempt++ {
		ckpt, err := os.ReadFile(st.ckpt)
		if err != nil && !os.IsNotExist(err) {
			return nil, err
		}
		if len(ckpt) == 0 {
			ckpt, err = f.fetchCheckpoint(ctx, i)
			if err != nil {
				return nil, err
			}
			if len(ckpt) > 0 {
				if err := source.WriteFileAtomic(st.ckpt, ckpt); err != nil {
					return nil, err
				}
			}
		}
		var minSeq uint64
		if len(ckpt) > 0 {
			src, seq, err := source.RestoreAt(f.cfg, ckpt)
			if err != nil {
				return nil, err
			}
			st.src = src
			minSeq = seq
		} else {
			st.src = source.New(f.cfg)
		}
		st.src.SetReplica(true)
		res, err := wal.ReplayFrom(st.dir, minSeq, st.src.ApplyWALRecord)
		if err != nil {
			return nil, err
		}
		st.records = int64(res.Records)
		if res.Truncated || res.Corrupted {
			f.logf("shard %d: local replay truncated=%v corrupted=%v (quarantined %d); refetching from last applied boundary",
				i, res.Truncated, res.Corrupted, len(res.Quarantined))
		}
		st.seq, st.written, err = localCursor(st.dir, minSeq)
		if err != nil {
			return nil, err
		}
		st.applied = st.written
		st.pending = nil

		// The primary must still hold segment st.seq (or not have written
		// it yet). A gap means our history was truncated while we were
		// away: wipe and re-bootstrap from the current checkpoint.
		segs, err := f.fetchSegments(ctx, i)
		if err != nil {
			return nil, err
		}
		if len(segs) == 0 || segs[0].Seq <= st.seq {
			if st.seq > 1 {
				// Re-pin GC where we actually are before tailing starts.
				if err := f.ack(ctx, i, st.seq-1); err != nil {
					return nil, err
				}
				st.lastAcked = st.seq - 1
			}
			return st, nil
		}
		if attempt >= 2 {
			return nil, fmt.Errorf("replicate: shard %d: primary's oldest segment is %d, need %d (history truncated)", i, segs[0].Seq, st.seq)
		}
		f.logf("shard %d: primary truncated history (oldest %d, need %d); wiping local state and re-bootstrapping", i, segs[0].Seq, st.seq)
		if err := wipeShard(st); err != nil {
			return nil, err
		}
	}
}

// localCursor positions the tail after local replay: the highest local
// segment at or above minSeq and its (post-truncation) size, or (minSeq,
// 0) — never below segment 1 — when none exists.
func localCursor(dir string, minSeq uint64) (uint64, int64, error) {
	seqs, err := wal.ListSegments(dir)
	if err != nil {
		return 0, 0, err
	}
	seq := minSeq
	if seq == 0 {
		seq = 1
	}
	var size int64
	for _, s := range seqs {
		if s < minSeq {
			continue
		}
		if s >= seq {
			seq = s
			fi, err := os.Stat(filepath.Join(dir, wal.SegmentFileName(s)))
			if err != nil {
				return 0, 0, err
			}
			size = fi.Size()
		}
	}
	return seq, size, nil
}

// wipeShard removes a shard's local checkpoint and segments so the next
// bootstrap attempt starts from the primary's current state.
func wipeShard(st *shardTail) error {
	if err := os.Remove(st.ckpt); err != nil && !os.IsNotExist(err) {
		return err
	}
	seqs, err := wal.ListSegments(st.dir)
	if err != nil {
		return err
	}
	for _, s := range seqs {
		if err := os.Remove(filepath.Join(st.dir, wal.SegmentFileName(s))); err != nil {
			return err
		}
	}
	return nil
}

// Start launches one tailer goroutine per shard. Idempotent.
func (f *Follower) Start() {
	f.startOnce.Do(func() {
		for _, st := range f.tails {
			f.wg.Add(1)
			go f.runShard(st)
		}
	})
}

// Close stops the tailers and closes local files (and, after a promotion,
// the attached WALs). The local replica directory remains valid: a new
// Open resumes from it without re-shipping completed history.
func (f *Follower) Close() error {
	f.stopTailers()
	var errs []error
	for _, st := range f.tails {
		if st.file != nil {
			if err := st.file.Sync(); err != nil {
				errs = append(errs, err)
			}
			if err := st.file.Close(); err != nil {
				errs = append(errs, err)
			}
			st.file = nil
		}
	}
	for _, s := range f.sources {
		if err := s.CloseWAL(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

func (f *Follower) stopTailers() {
	f.stopOnce.Do(func() { close(f.stop) })
	f.wg.Wait()
}

// Engine returns the serving engine (a replica router, or the single
// source unsharded) — the same shape the primary serves, so /snapshot is
// byte-comparable across the pair.
func (f *Follower) Engine() api.Engine { return f.eng }

// Source returns shard i's source (tests and tools).
func (f *Follower) Source(i int) *source.Source { return f.sources[i] }

// Shards returns the shard count.
func (f *Follower) Shards() int { return f.nshards }

func (f *Follower) logf(format string, args ...any) {
	if f.opts.Logf != nil {
		f.opts.Logf("replicate: "+format, args...)
	}
}

// sleep waits d or until the follower stops; false means stop.
func (f *Follower) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-f.stop:
		return false
	}
}

// runShard is one shard's tail loop: poll the primary's segment listing,
// fetch and apply what is new, retry transient failures with jittered
// exponential backoff, park permanently on a sticky failure.
func (f *Follower) runShard(st *shardTail) {
	defer f.wg.Done()
	back := newBackoff(f.opts.BackoffBase, f.opts.BackoffMax)
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		progressed, err := f.pollShard(st)
		if err != nil {
			f.noteRetry(st, err)
			if !f.sleep(back.next()) {
				return
			}
			continue
		}
		back.reset()
		if f.shardFailed(st.shard) {
			// Sticky: resync required. The tailer parks; status and the
			// staleness gate carry the condition.
			return
		}
		if !progressed {
			if !f.sleep(f.opts.Poll) {
				return
			}
		}
	}
}

// errGone marks history truncated under the follower (HTTP 410).
var errGone = errors.New("replicate: segment truncated on primary")

// pollShard runs one poll cycle: list, reconcile, ingest, complete,
// measure lag. It returns whether any progress was made; transient errors
// bubble up for backoff, fatal conditions latch via markFailed.
func (f *Follower) pollShard(st *shardTail) (bool, error) {
	ctx := context.Background()
	// Re-send a lost ack before anything else: the primary's GC floor (and
	// its TTL view of us) must track what we have even when no new data
	// flows.
	if st.seq > 1 && st.lastAcked < st.seq-1 {
		if err := f.ack(ctx, st.shard, st.seq-1); err != nil {
			return false, err
		}
		st.lastAcked = st.seq - 1
	}
	segs, err := f.fetchSegments(ctx, st.shard)
	if err != nil {
		return false, err
	}
	if len(segs) > 0 && segs[0].Seq > st.seq {
		f.markFailed(st, fmt.Errorf("replicate: shard %d: primary truncated segment %d (oldest available %d); restart the follower to re-bootstrap", st.shard, st.seq, segs[0].Seq))
		return false, nil
	}
	progressed := false
	var cur *segmentInfo
	for j := range segs {
		if segs[j].Seq == st.seq {
			cur = &segs[j]
			break
		}
	}
	if cur != nil {
		n, err := f.ingest(st, cur)
		progressed = progressed || n
		if err != nil {
			if errors.Is(err, errGone) {
				f.markFailed(st, fmt.Errorf("replicate: shard %d: %w; restart the follower to re-bootstrap", st.shard, err))
				return progressed, nil
			}
			return progressed, err
		}
		if cur.Sealed && st.written >= cur.Size {
			if st.applied != st.written {
				// The primary sealed a segment whose tail never parses as
				// complete frames: its file is torn at rest. Quarantine
				// locally and park; shipping cannot outrun a broken source.
				f.markFailed(st, fmt.Errorf("replicate: shard %d: sealed segment %d has a torn tail at %d/%d", st.shard, st.seq, st.applied, st.written))
				return progressed, nil
			}
			if err := f.completeSegment(ctx, st); err != nil {
				return progressed, err
			}
			progressed = true
		}
	}
	f.updateLag(st, segs)
	return progressed, nil
}

// ingest fetches the current segment's durable bytes, appends them to the
// local mirror and applies every complete frame.
func (f *Follower) ingest(st *shardTail, cur *segmentInfo) (bool, error) {
	progressed := false
	for st.written < cur.Durable {
		chunk, err := f.fetchChunk(context.Background(), st.shard, st.seq, st.written)
		if err != nil {
			return progressed, err
		}
		if len(chunk) == 0 {
			break
		}
		if st.file == nil {
			fh, err := os.OpenFile(f.segPath(st, st.seq), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return progressed, err
			}
			st.file = fh
		}
		if _, err := st.file.Write(chunk); err != nil {
			return progressed, err
		}
		st.written += int64(len(chunk))
		st.fetched += int64(len(chunk))
		st.pending = append(st.pending, chunk...)
		progressed = true
		if err := f.applyPending(st); err != nil {
			if errors.Is(err, wal.ErrCorrupt) {
				if qerr := f.quarantineLocal(st); qerr != nil {
					return progressed, qerr
				}
				return progressed, err // transient: backoff, then refetch from the applied boundary
			}
			// A CRC-valid record that fails to apply is a poison pill — no
			// amount of refetching fixes it.
			f.markFailed(st, fmt.Errorf("replicate: shard %d: applying record in segment %d: %w", st.shard, st.seq, err))
			return progressed, nil
		}
	}
	return progressed, nil
}

func (f *Follower) segPath(st *shardTail, seq uint64) string {
	return filepath.Join(st.dir, wal.SegmentFileName(seq))
}

// applyPending applies every complete frame in st.pending, advancing
// applied past each one. An incomplete trailing frame stays pending until
// more bytes arrive (it is only an error if the segment seals under it);
// a zero/oversized length or CRC mismatch returns wal.ErrCorrupt and
// applies nothing further.
// dtdvet:replayroot
func (f *Follower) applyPending(st *shardTail) error {
	for {
		if len(st.pending) < wal.FrameHeaderSize {
			return nil
		}
		length := binary.LittleEndian.Uint32(st.pending[0:4])
		if length == 0 || int64(length) > wal.MaxRecordSize {
			return wal.ErrCorrupt
		}
		total := wal.FrameHeaderSize + int(length)
		if len(st.pending) < total {
			return nil
		}
		payload := st.pending[wal.FrameHeaderSize:total]
		if wal.Checksum(payload) != binary.LittleEndian.Uint32(st.pending[4:8]) {
			return wal.ErrCorrupt
		}
		if err := st.src.ApplyWALRecord(payload); err != nil {
			return err
		}
		st.applied += int64(total)
		st.pending = st.pending[total:]
		st.records++
		f.mu.Lock()
		f.lags[st.shard].RecordsApplied = st.records
		f.mu.Unlock()
	}
}

// quarantineLocal handles a CRC-invalid suffix in the local segment: the
// unapplied bytes are preserved for inspection, the local file is
// truncated back to the applied boundary, and the cursor rewinds so the
// suffix is refetched — corrupt bytes are never applied and never acked.
func (f *Follower) quarantineLocal(st *shardTail) error {
	qpath := f.segPath(st, st.seq) + ".quarantine"
	if err := os.WriteFile(qpath, st.pending, 0o644); err != nil {
		return err
	}
	if st.file != nil {
		if err := st.file.Close(); err != nil {
			return err
		}
		st.file = nil
	}
	if err := os.Truncate(f.segPath(st, st.seq), st.applied); err != nil {
		return err
	}
	st.written = st.applied
	st.pending = nil
	f.mu.Lock()
	f.lags[st.shard].Corruptions++
	f.mu.Unlock()
	f.logf("shard %d: CRC-invalid suffix in segment %d quarantined to %s; refetching from %d", st.shard, st.seq, qpath, st.applied)
	return nil
}

// completeSegment finishes a fully-applied sealed segment: fsync the local
// copy, checkpoint the shard locally at the segment boundary (pruning
// covered local segments), acknowledge to the primary, advance the cursor.
func (f *Follower) completeSegment(ctx context.Context, st *shardTail) error {
	if st.file != nil {
		if err := st.file.Sync(); err != nil {
			return err
		}
		if err := st.file.Close(); err != nil {
			return err
		}
		st.file = nil
	}
	done := st.seq
	// A follower's state at a segment boundary is exactly "everything
	// before done+1" — the same invariant the primary's Checkpoint
	// establishes — so the local snapshot is a valid recovery point and
	// restart never re-applies (or re-ships) the completed segment.
	data, err := st.src.SnapshotAt(done + 1)
	if err != nil {
		return err
	}
	if err := source.WriteFileAtomic(st.ckpt, data); err != nil {
		return err
	}
	seqs, err := wal.ListSegments(st.dir)
	if err != nil {
		return err
	}
	for _, s := range seqs {
		if s <= done {
			if err := os.Remove(f.segPath(st, s)); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
	}
	st.seq = done + 1
	st.written, st.applied = 0, 0
	st.pending = nil
	if err := f.ack(ctx, st.shard, done); err != nil {
		// The data is safe locally; the ack retries at the next poll.
		f.logf("shard %d: ack(%d) failed: %v (will retry)", st.shard, done, err)
		return nil
	}
	st.lastAcked = done
	return nil
}

// updateLag recomputes the shard's lag against the primary's listing.
func (f *Follower) updateLag(st *shardTail, segs []segmentInfo) {
	var segsBehind, bytesBehind int64
	for _, s := range segs {
		if s.Seq > st.seq {
			segsBehind++
			bytesBehind += s.Durable
		} else if s.Seq == st.seq && s.Durable > st.applied {
			bytesBehind += s.Durable - st.applied
		}
	}
	now := time.Now()
	f.mu.Lock()
	lag := &f.lags[st.shard]
	lag.Segment = st.seq
	lag.Offset = st.applied
	lag.SegmentsBehind = segsBehind
	lag.BytesBehind = bytesBehind
	lag.RecordsApplied = st.records
	lag.FetchedBytes = st.fetched
	lag.LastError = ""
	f.caught[st.shard] = bytesBehind == 0
	if bytesBehind == 0 {
		f.lastOK[st.shard] = now
	}
	f.mu.Unlock()
}

// noteRetry records a transient failure ahead of a backoff sleep.
func (f *Follower) noteRetry(st *shardTail, err error) {
	f.mu.Lock()
	f.lags[st.shard].Retries++
	f.lags[st.shard].LastError = err.Error()
	f.caught[st.shard] = false
	f.mu.Unlock()
	f.logf("shard %d: %v (backing off)", st.shard, err)
}

// markFailed latches a sticky failure: the shard needs operator attention
// (typically a restart, which re-bootstraps from the primary's current
// checkpoint).
func (f *Follower) markFailed(st *shardTail, err error) {
	f.mu.Lock()
	if f.failed[st.shard] == nil {
		f.failed[st.shard] = err
	}
	f.lags[st.shard].ResyncRequired = true
	f.lags[st.shard].LastError = err.Error()
	f.caught[st.shard] = false
	f.mu.Unlock()
	f.logf("shard %d: %v", st.shard, err)
}

func (f *Follower) shardFailed(i int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.failed[i] != nil
}

// CaughtUp reports whether every shard was fully caught up with the
// primary's durable frontier at its last poll.
func (f *Follower) CaughtUp() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := range f.caught {
		if !f.caught[i] || f.failed[i] != nil {
			return false
		}
	}
	return true
}

// Status returns the follower's replication state for /status and
// /metrics.
func (f *Follower) Status() FollowerStatus {
	now := time.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	st := FollowerStatus{Role: "follower", Primary: f.base, Promoted: f.promoted}
	for i := range f.lags {
		lag := f.lags[i]
		if !f.caught[i] {
			lag.SecondsBehind = now.Sub(f.lastOK[i]).Seconds()
		}
		st.Shards = append(st.Shards, lag)
	}
	st.Stale = f.staleLocked(now) != nil
	return st
}

// staleLocked is the bounded-staleness gate: nil while every shard is
// healthy and fresh enough.
// dtdvet:requires mu
func (f *Follower) staleLocked(now time.Time) error {
	if f.promoted {
		return nil
	}
	for i := range f.lags {
		if f.failed[i] != nil {
			return f.failed[i]
		}
		if f.opts.MaxStaleness > 0 && !f.caught[i] {
			if behind := now.Sub(f.lastOK[i]); behind > f.opts.MaxStaleness {
				return fmt.Errorf("replicate: shard %d is %.1fs behind (max staleness %s)", i, behind.Seconds(), f.opts.MaxStaleness)
			}
		}
	}
	return nil
}

// Promote turns the follower into a writable primary: tailers stop, each
// shard's local segment is truncated to its applied frame boundary (a
// half-fetched frame must not survive — the next recovery would quarantine
// everything after it), a fresh local WAL is attached positioned after the
// ingested history, and replica mode ends. Refused while any shard carries
// a sticky failure. The local directory remains manifest-pinned, so a
// restart recovers it through the ordinary sharded startup path.
func (f *Follower) Promote() error {
	f.mu.Lock()
	if f.promoted {
		f.mu.Unlock()
		return errors.New("replicate: already promoted")
	}
	for i := range f.failed {
		if f.failed[i] != nil {
			err := f.failed[i]
			f.mu.Unlock()
			return fmt.Errorf("replicate: refusing to promote: %w", err)
		}
	}
	f.mu.Unlock()
	f.stopTailers()
	for _, st := range f.tails {
		if st.file != nil {
			if err := st.file.Sync(); err != nil {
				return err
			}
			if err := st.file.Close(); err != nil {
				return err
			}
			st.file = nil
		}
		if st.applied < st.written {
			if err := os.Truncate(f.segPath(st, st.seq), st.applied); err != nil {
				return err
			}
			st.written = st.applied
			st.pending = nil
		}
		w, err := wal.Open(st.dir, f.opts.WAL)
		if err != nil {
			return err
		}
		// Keep new segment numbers at or above the cursor even when no
		// local segment file exists yet: the local checkpoint covers
		// everything below it, and recovery skips what it covers.
		w.SkipTo(st.seq)
		st.src.SetReplica(false)
		st.src.AttachWAL(w)
	}
	f.mu.Lock()
	f.promoted = true
	f.mu.Unlock()
	f.logf("promoted: serving writes from %s", f.opts.Dir)
	return nil
}

// Promoted reports whether Promote has completed.
func (f *Follower) Promoted() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.promoted
}

// Handler serves the read-only API plus the promotion endpoint. While
// unpromoted, non-GET requests answer 503 with a Retry-After; when the
// staleness gate trips, reads answer 503 too — except /status and
// /metrics, which operators need precisely then.
func (f *Follower) Handler() http.Handler {
	status := f.Status
	inner := api.NewEngine(f.eng, api.Options{Replication: func() any { s := status(); return &s }})
	mux := http.NewServeMux()
	mux.HandleFunc("POST /replication/promote", func(w http.ResponseWriter, _ *http.Request) {
		if err := f.Promote(); err != nil {
			writeError(w, http.StatusConflict, "promote: %v", err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"promoted": true})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		promoted := f.promoted
		staleErr := f.staleLocked(time.Now())
		f.mu.Unlock()
		if !promoted {
			if r.Method != http.MethodGet {
				w.Header().Set("Retry-After", "5")
				writeError(w, http.StatusServiceUnavailable, "follower is read-only; write to the primary (or POST /replication/promote)")
				return
			}
			if staleErr != nil && r.URL.Path != "/status" && r.URL.Path != "/metrics" {
				w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(f.opts.Poll)))
				writeError(w, http.StatusServiceUnavailable, "follower too stale: %v", staleErr)
				return
			}
		}
		inner.ServeHTTP(w, r)
	})
	return mux
}

// retryAfterSeconds suggests a client retry delay from the poll interval.
func retryAfterSeconds(poll time.Duration) int {
	s := int((2 * poll).Seconds())
	if s < 1 {
		s = 1
	}
	return s
}

// --- HTTP client helpers ---

// fetchInfoRetry fetches the primary's layout, retrying with backoff until
// ctx expires: followers routinely start before (or during a restart of)
// their primary.
func (f *Follower) fetchInfoRetry(ctx context.Context) (infoResponse, error) {
	back := newBackoff(f.opts.BackoffBase, f.opts.BackoffMax)
	for {
		var info infoResponse
		err := f.getJSON(ctx, "info", url.Values{}, &info)
		if err == nil {
			return info, nil
		}
		f.logf("primary %s unreachable: %v (retrying)", f.base, err)
		t := time.NewTimer(back.next())
		select {
		case <-ctx.Done():
			t.Stop()
			return infoResponse{}, fmt.Errorf("replicate: primary %s unreachable: %w (last: %v)", f.base, ctx.Err(), err)
		case <-t.C:
		}
	}
}

func (f *Follower) fetchCheckpoint(ctx context.Context, i int) ([]byte, error) {
	q := url.Values{"shard": {strconv.Itoa(i)}}
	resp, err := f.do(ctx, http.MethodGet, "checkpoint", q)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close() // dtdvet:allow errsync -- response body; read errors surface from ReadAll
	switch resp.StatusCode {
	case http.StatusOK:
		return io.ReadAll(resp.Body)
	case http.StatusNoContent:
		return nil, nil
	default:
		return nil, httpStatusError("checkpoint", resp)
	}
}

func (f *Follower) fetchSegments(ctx context.Context, i int) ([]segmentInfo, error) {
	var segs []segmentInfo
	q := url.Values{"shard": {strconv.Itoa(i)}, "id": {f.opts.ID}}
	if err := f.getJSON(ctx, "segments", q, &segs); err != nil {
		return nil, err
	}
	return segs, nil
}

func (f *Follower) fetchChunk(ctx context.Context, i int, seq uint64, off int64) ([]byte, error) {
	q := url.Values{
		"shard": {strconv.Itoa(i)},
		"seq":   {strconv.FormatUint(seq, 10)},
		"off":   {strconv.FormatInt(off, 10)},
		"id":    {f.opts.ID},
	}
	resp, err := f.do(ctx, http.MethodGet, "segment", q)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close() // dtdvet:allow errsync -- response body; read errors surface from ReadAll
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNoContent, http.StatusNotFound:
		return nil, nil
	case http.StatusGone:
		return nil, errGone
	default:
		return nil, httpStatusError("segment", resp)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if want := resp.Header.Get(crcHeader); want != "" {
		if got := fmt.Sprintf("%08x", wal.Checksum(data)); got != want {
			return nil, fmt.Errorf("replicate: chunk CRC mismatch (got %s, want %s)", got, want)
		}
	}
	return data, nil
}

func (f *Follower) ack(ctx context.Context, i int, seq uint64) error {
	q := url.Values{
		"shard": {strconv.Itoa(i)},
		"seq":   {strconv.FormatUint(seq, 10)},
		"id":    {f.opts.ID},
	}
	return f.post(ctx, "ack", q)
}

func (f *Follower) do(ctx context.Context, method, path string, q url.Values) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, f.base+pathPrefix+path+"?"+q.Encode(), nil)
	if err != nil {
		return nil, err
	}
	return f.client.Do(req)
}

func (f *Follower) getJSON(ctx context.Context, path string, q url.Values, v any) error {
	resp, err := f.do(ctx, http.MethodGet, path, q)
	if err != nil {
		return err
	}
	defer resp.Body.Close() // dtdvet:allow errsync -- response body; read errors surface from Decode
	if resp.StatusCode != http.StatusOK {
		return httpStatusError(path, resp)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (f *Follower) post(ctx context.Context, path string, q url.Values) error {
	resp, err := f.do(ctx, http.MethodPost, path, q)
	if err != nil {
		return err
	}
	defer resp.Body.Close() // dtdvet:allow errsync -- response body; drained below
	if resp.StatusCode != http.StatusOK {
		return httpStatusError(path, resp)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return nil
}

// httpStatusError folds a non-OK response (and its error body, if any)
// into an error.
func httpStatusError(what string, resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	return fmt.Errorf("replicate: %s: %s: %s", what, resp.Status, string(body))
}
