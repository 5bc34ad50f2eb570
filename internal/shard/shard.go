// Package shard partitions the document stream across N fully independent
// source.Source shards, so ingest scales across cores and disks instead of
// funneling every writer through one mutex and one WAL queue.
//
// A Router owns the shards and routes each document by rendezvous
// (highest-random-weight) hashing over a stable document key: the explicit
// key a client supplies (the X-Doc-Key header, or the per-item key of a
// batch), falling back to a hash of the document's serialized content.
// Every shard runs its own write lock, group-commit queue, WAL directory
// (shard-000, shard-001, …), background checkpointer (start offsets
// staggered across the interval so N shards never fsync-storm together)
// and sticky degraded flag — one shard going read-only must not poison the
// others.
//
// DTD registrations, trigger rules, forced evolutions and repository
// re-classifications broadcast to every shard: the DTD *set* is global,
// only the document population is partitioned, so each shard evolves its
// DTDs against the documents it owns (the paper's lifecycle is
// per-document-set, which is what makes the split sound). Broadcast
// mutations require every shard healthy; document ingest requires only the
// target shard.
//
// The shard count is fixed at creation and recorded in a manifest next to
// the per-shard WALs: rendezvous hashing minimizes key movement if a
// reshard tool ever migrates documents, but today a changed count is a
// rejected configuration error (see manifest.go), because shards evolve
// their DTDs independently and merging two shards' extended-DTD statistics
// is not replay-equivalent. See DESIGN.md §13.
//
// The durability layer must never drop a Sync/Close/Write error.
// dtdvet:strict errsync
//
// Per-shard fan-outs (recovery, broadcasts, checkpointer stops) must be
// tied to a WaitGroup or stop signal.
// dtdvet:strict golife
package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"dtdevolve/internal/docstore"
	"dtdevolve/internal/dtd"
	"dtdevolve/internal/evolve"
	"dtdevolve/internal/metrics"
	"dtdevolve/internal/source"
	"dtdevolve/internal/xmltree"
)

// Options configures a Router.
type Options struct {
	// Shards is the number of independent shards; 0 or negative means 1.
	Shards int
	// Seed perturbs the rendezvous hash so distinct deployments spread the
	// same key space differently. Recover persists it in the manifest and
	// rejects a mismatch.
	Seed uint64
}

func (o *Options) normalize() {
	if o.Shards <= 0 {
		o.Shards = 1
	}
}

// DegradedError reports that an operation was refused because a specific
// shard's write-ahead log is in the sticky degraded state.
type DegradedError struct {
	Shard int
	Err   error
}

func (e *DegradedError) Error() string {
	return fmt.Sprintf("shard %d degraded: %v", e.Shard, e.Err)
}

func (e *DegradedError) Unwrap() error { return e.Err }

// Router routes documents across N independent shards. All routing state
// (the shard set, the hash salts) is immutable after New, so no Router
// lock is ever held across a shard call — the "never hold two shard locks
// at once" discipline is structural, not conventional. The only mutable
// state is shutdown bookkeeping, guarded by mu and never overlapping a
// shard operation.
type Router struct {
	cfg    source.Config
	shards []*source.Source
	salts  []uint64 // per-shard rendezvous salts, derived from seed
	seed   uint64
	dir    string // durable root ("" for in-memory routers)

	mu     sync.Mutex
	stops  []func() // dtdvet:guarded_by mu -- registered checkpointer stops
	closed bool     // dtdvet:guarded_by mu
}

// New returns a Router over opts.Shards fresh in-memory shards. For a
// durable router, use Recover, which wires per-shard WALs and checkpoints.
func New(cfg source.Config, opts Options) *Router {
	opts.normalize()
	r := &Router{
		cfg:    cfg,
		shards: make([]*source.Source, opts.Shards),
		salts:  makeSalts(opts.Shards, opts.Seed),
		seed:   opts.Seed,
	}
	for i := range r.shards {
		r.shards[i] = source.New(cfg)
	}
	return r
}

// splitmix64 is the canonical 64-bit finalizer-style mixer: cheap, and its
// avalanche is plenty for spreading shard salts and key hashes.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func makeSalts(n int, seed uint64) []uint64 {
	salts := make([]uint64, n)
	for i := range salts {
		salts[i] = splitmix64(seed + uint64(i) + 1)
	}
	return salts
}

// Shards returns the number of shards.
func (r *Router) Shards() int { return len(r.shards) }

// Seed returns the rendezvous hash seed.
func (r *Router) Seed() uint64 { return r.seed }

// Shard returns the i-th shard, for tests and per-shard inspection.
func (r *Router) Shard(i int) *source.Source { return r.shards[i] }

// KeyFor returns the routing key for a document: the explicit key when the
// client supplied one, else a hash of the serialized content. Explicit keys
// are cheaper (no serialization) and stable under semantically-neutral
// re-serialization, so batch clients should send them.
func (r *Router) KeyFor(explicit string, doc *xmltree.Document) string {
	if explicit != "" {
		return explicit
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(doc.String())) // dtdvet:allow errsync -- hash.Hash.Write never fails
	return fmt.Sprintf("%016x", h.Sum64())
}

// ShardFor maps a routing key to its shard by rendezvous hashing: the
// shard whose salted key hash is highest wins. Every key ranks every shard
// independently, so the assignment is stable, uniform, and — if a future
// reshard tool adds shards — moves only the keys the new shard wins.
func (r *Router) ShardFor(key string) int {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key)) // dtdvet:allow errsync -- hash.Hash.Write never fails
	kh := h.Sum64()
	best, bestScore := 0, uint64(0)
	for i, salt := range r.salts {
		score := splitmix64(kh ^ salt)
		if i == 0 || score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// healthy returns nil when every shard accepts mutations, else a
// DegradedError naming the first degraded shard. Broadcast mutations (DTD
// registration, triggers, forced evolution, re-classification) must reach
// every shard's journal or none would stay replay-consistent, so they
// require full health.
func (r *Router) healthy() error {
	for i, s := range r.shards {
		if err := s.Degraded(); err != nil {
			return &DegradedError{Shard: i, Err: err}
		}
	}
	return nil
}

// AddDTD registers (or replaces) a DTD on every shard. Each shard registers
// its own parse of d's text, so shards evolve their declarations
// independently. Whether a shard refuses d (source.ErrDTDRoundTrip)
// depends on d alone, so a DTD the first shard refuses reaches no shard.
func (r *Router) AddDTD(name string, d *dtd.DTD) error {
	if err := r.healthy(); err != nil {
		return err
	}
	for _, s := range r.shards {
		if err := s.AddDTD(name, d); err != nil {
			return err
		}
	}
	return nil
}

// DTD returns shard 0's copy of the named DTD (the shards share a
// registration history but may have evolved it differently; per-shard
// declarations are available via Shard(i).DTD).
func (r *Router) DTD(name string) *dtd.DTD { return r.shards[0].DTD(name) }

// Names returns the registered DTD names, sorted (identical on every
// shard: registrations broadcast).
func (r *Router) Names() []string { return r.shards[0].Names() }

// AddDocument routes one document to its shard and ingests it there. key
// "" falls back to content hashing. The target shard must be healthy; a
// degraded one yields a DegradedError while the other shards keep
// accepting documents.
func (r *Router) AddDocument(_ context.Context, key string, doc *xmltree.Document) (source.AddResult, error) {
	si := r.ShardFor(r.KeyFor(key, doc))
	if err := r.shards[si].Degraded(); err != nil {
		return source.AddResult{}, &DegradedError{Shard: si, Err: err}
	}
	return r.shards[si].Add(doc), nil
}

// ErrStreamKeyRequired reports a streaming ingest without an explicit
// routing key: the content-hash fallback needs the whole document, which
// is exactly what streaming avoids buffering.
var ErrStreamKeyRequired = errors.New("shard: streaming ingest requires an explicit routing key (content hashing would buffer the document)")

// AddDocumentStream routes one document stream to its shard by the
// explicit key and ingests it there through the one-pass streaming path.
// Unlike AddDocument there is no content-hash fallback — the router never
// sees the document bytes — so key must be non-empty.
func (r *Router) AddDocumentStream(_ context.Context, key string, rd io.Reader) (source.AddResult, error) {
	if key == "" {
		return source.AddResult{}, ErrStreamKeyRequired
	}
	si := r.ShardFor(key)
	if err := r.shards[si].Degraded(); err != nil {
		return source.AddResult{}, &DegradedError{Shard: si, Err: err}
	}
	return r.shards[si].AddStream(rd)
}

// AddBatchKeyed partitions a batch by routing key and fans the per-shard
// sub-batches out concurrently, one AddBatch per shard, returning results
// in input order. keys may be nil (all content-hashed) or must match docs
// in length. If any targeted shard is degraded the whole batch is refused
// — a batch is one durability promise, not len(docs) independent ones. A
// shard's panic surfaces here once every shard's sub-batch has returned.
func (r *Router) AddBatchKeyed(ctx context.Context, keys []string, docs []*xmltree.Document) ([]source.AddResult, error) {
	if len(keys) != 0 && len(keys) != len(docs) {
		return nil, fmt.Errorf("shard: %d keys for %d documents", len(keys), len(docs))
	}
	byShard := make([][]int, len(r.shards))
	for i, doc := range docs {
		key := ""
		if len(keys) != 0 {
			key = keys[i]
		}
		si := r.ShardFor(r.KeyFor(key, doc))
		byShard[si] = append(byShard[si], i)
	}
	for si, idx := range byShard {
		if len(idx) == 0 {
			continue
		}
		if err := r.shards[si].Degraded(); err != nil {
			return nil, &DegradedError{Shard: si, Err: err}
		}
	}
	results := make([]source.AddResult, len(docs))
	errs := make([]error, len(r.shards))
	panics := make([]any, len(r.shards))
	var wg sync.WaitGroup
	for si, idx := range byShard {
		if len(idx) == 0 {
			continue
		}
		wg.Add(1)
		go func(si int, idx []int) {
			defer wg.Done()
			defer func() { panics[si] = recover() }()
			sub := make([]*xmltree.Document, len(idx))
			for j, i := range idx {
				sub[j] = docs[i]
			}
			res, err := r.shards[si].AddBatchContext(ctx, sub)
			if err != nil {
				errs[si] = err
				return
			}
			for j, i := range idx {
				results[i] = res[j]
			}
		}(si, idx)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// EvolveNow forces the evolution phase for the named DTD on every shard
// (each evolves against its own recorded statistics) and returns the
// concatenated per-shard change reports plus the total number of
// repository documents recovered.
func (r *Router) EvolveNow(name string) (evolve.Report, int, error) {
	if err := r.healthy(); err != nil {
		return evolve.Report{}, 0, err
	}
	var merged evolve.Report
	total := 0
	for _, s := range r.shards {
		report, reclassified, err := s.EvolveNow(name)
		if err != nil {
			return evolve.Report{}, 0, err
		}
		merged.Changes = append(merged.Changes, report.Changes...)
		total += reclassified
	}
	return merged, total, nil
}

// Reclassify re-classifies every shard's repository against its current
// DTD set, returning the total number of documents recovered.
func (r *Router) Reclassify() (int, error) {
	if err := r.healthy(); err != nil {
		return 0, err
	}
	total := 0
	for _, s := range r.shards {
		total += s.ReclassifyRepository()
	}
	return total, nil
}

// RepositorySize returns the total number of unclassified documents across
// all shard repositories.
func (r *Router) RepositorySize() int {
	total := 0
	for _, s := range r.shards {
		total += s.RepositorySize()
	}
	return total
}

// SetTriggerRules installs the rule list on every shard.
func (r *Router) SetTriggerRules(src string) error {
	if err := r.healthy(); err != nil {
		return err
	}
	for _, s := range r.shards {
		if err := s.SetTriggerRules(src); err != nil {
			// A parse error fails on shard 0 before any shard applied it;
			// rule parsing is deterministic, so no shard diverges.
			return err
		}
	}
	return nil
}

// TriggerRules returns the installed rules (identical on every shard).
func (r *Router) TriggerRules() []string { return r.shards[0].TriggerRules() }

// Degraded returns non-nil only when EVERY shard is degraded — the point
// at which the service as a whole has nothing writable left. Individual
// shard failures surface per-operation (DegradedError) and in
// ShardStatuses.
func (r *Router) Degraded() error {
	var firstErr error
	for i, s := range r.shards {
		err := s.Degraded()
		if err == nil {
			return nil
		}
		if firstErr == nil {
			firstErr = &DegradedError{Shard: i, Err: err}
		}
	}
	return firstErr
}

// ShardStatus is the per-shard health and volume summary of GET /status.
type ShardStatus struct {
	Shard      int    `json:"shard"`
	Degraded   bool   `json:"degraded"`
	Error      string `json:"error,omitempty"`
	Added      int64  `json:"added"`
	Classified int64  `json:"classified"`
	Repository int    `json:"repository"`
	Evolutions int64  `json:"evolutions"`
}

// ShardStatuses returns one entry per shard, in shard order.
func (r *Router) ShardStatuses() []ShardStatus {
	out := make([]ShardStatus, len(r.shards))
	for i, s := range r.shards {
		m := s.Metrics()
		st := ShardStatus{
			Shard:      i,
			Added:      m.Added,
			Classified: m.Classified,
			Repository: s.RepositorySize(),
			Evolutions: m.Evolutions,
		}
		if err := s.Degraded(); err != nil {
			st.Degraded = true
			st.Error = err.Error()
		}
		out[i] = st
	}
	return out
}

// DTDStatus rolls the per-shard DTD states up by name: documents and
// evolutions sum, the check ratio reports the worst (highest) shard, and
// the serialized model is included only while every shard still agrees on
// it (shards evolve independently; after they diverge, per-shard models
// are available via Shard(i).Status()).
func (r *Router) DTDStatus() []source.DTDStatus {
	merged := make(map[string]*source.DTDStatus)
	agree := make(map[string]bool)
	for si, s := range r.shards {
		for _, st := range s.Status() {
			m, ok := merged[st.Name]
			if !ok {
				copied := st
				merged[st.Name] = &copied
				agree[st.Name] = true
				if si != 0 {
					// Registered on a later shard only: cannot happen via the
					// broadcast API, but stay deterministic anyway.
					agree[st.Name] = false
				}
				continue
			}
			m.Docs += st.Docs
			m.Evolutions += st.Evolutions
			if st.CheckRatio > m.CheckRatio {
				m.CheckRatio = st.CheckRatio
			}
			if st.Model != m.Model {
				agree[st.Name] = false
			}
		}
	}
	names := make([]string, 0, len(merged))
	for name := range merged {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]source.DTDStatus, 0, len(names))
	for _, name := range names {
		st := *merged[name]
		if !agree[name] {
			st.Model = ""
		}
		out = append(out, st)
	}
	return out
}

// Metrics returns the rolled-up ingest counters plus the per-shard
// snapshots they were aggregated from.
func (r *Router) Metrics() (metrics.IngestSnapshot, []metrics.IngestSnapshot) {
	per := make([]metrics.IngestSnapshot, len(r.shards))
	for i, s := range r.shards {
		per[i] = s.Metrics()
	}
	return metrics.Aggregate(per), per
}

// routerSnapshot is the JSON shape of a shard-merged snapshot: the routing
// parameters plus every shard's own checkpoint document, in shard order.
type routerSnapshot struct {
	Version        int               `json:"version"`
	Shards         int               `json:"shards"`
	Seed           uint64            `json:"seed"`
	ShardSnapshots []json.RawMessage `json:"shard_snapshots"`
}

// Snapshot serializes every shard's state into one merged document. Each
// shard snapshots independently (its own read lock); the merged snapshot
// is a point-in-time view per shard, not a global cut — identical to what
// N independent checkpoints provide. The merged bytes are compared across
// primary/replica pairs, so the emission must be deterministic.
// dtdvet:replayroot
func (r *Router) Snapshot() ([]byte, error) {
	merged := routerSnapshot{
		Version: manifestVersion,
		Shards:  len(r.shards),
		Seed:    r.seed,
	}
	for i, s := range r.shards {
		data, err := s.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		merged.ShardSnapshots = append(merged.ShardSnapshots, data)
	}
	return json.Marshal(merged)
}

// EnableGroupCommit does nothing: every shard commits through its own
// group-commit queue already (source/groupcommit.go). It stays for
// httpbench/server.go, which calls it.
func (r *Router) EnableGroupCommit(source.GroupCommitOptions) {}

// EnableStore attaches a per-shard document store under dir (shard-000,
// shard-001, … subdirectories).
func (r *Router) EnableStore(dir string, opts ...docstore.Option) error {
	for i, s := range r.shards {
		sub := dir
		if dir != "" {
			sub = filepath.Join(dir, shardName(i))
		}
		if err := s.EnableStore(sub, opts...); err != nil {
			return fmt.Errorf("shard %d store: %w", i, err)
		}
	}
	return nil
}

// CloseStores closes every shard's document store.
func (r *Router) CloseStores() error {
	var errs []error
	for i, s := range r.shards {
		if err := s.CloseStore(); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}

// StartCheckpointers starts one background checkpointer per shard, each
// writing that shard's checkpoint file under the router's durable
// directory. Start offsets are staggered deterministically across the
// interval (shard i first fires at i/N of it), so N co-located shards
// spread their snapshot+fsync bursts instead of storming the disk
// together. The returned stop function stops them all (each runs a final
// checkpoint), concurrently. Only valid on a Recover-built router.
func (r *Router) StartCheckpointers(interval time.Duration, onErr func(shard int, err error)) (stop func(), err error) {
	if r.dir == "" {
		return nil, errors.New("shard: StartCheckpointers needs a durable router (Recover)")
	}
	if interval <= 0 {
		interval = 30 * time.Second
	}
	n := len(r.shards)
	stops := make([]func(), n)
	for i, s := range r.shards {
		i := i
		phase := interval * time.Duration(i) / time.Duration(n)
		cb := func(err error) {
			if onErr != nil {
				onErr(i, err)
			}
		}
		stops[i] = s.StartCheckpointerDelayed(r.checkpointPath(i), interval, phase, cb)
	}
	stopAll := func() {
		var wg sync.WaitGroup
		for _, f := range stops {
			wg.Add(1)
			go func(f func()) {
				defer wg.Done()
				f()
			}(f)
		}
		wg.Wait()
	}
	r.mu.Lock()
	r.stops = append(r.stops, stopAll)
	r.mu.Unlock()
	return stopAll, nil
}

// CloseWALs detaches and closes every shard's write-ahead log.
func (r *Router) CloseWALs() error {
	var errs []error
	for i, s := range r.shards {
		if err := s.CloseWAL(); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}

// Close stops every registered checkpointer (each writes a final
// checkpoint) and closes every shard WAL. Idempotent.
func (r *Router) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	stops := r.stops
	r.stops = nil
	r.mu.Unlock()
	// The stops run outside mu: they checkpoint, which takes shard locks,
	// and the router must never hold its own lock across a shard call.
	for _, f := range stops {
		f()
	}
	return r.CloseWALs()
}

// checkpointPath is the checkpoint file of shard i under the durable root.
func (r *Router) checkpointPath(i int) string {
	return filepath.Join(r.dir, CheckpointFileName(i))
}

// CheckpointFileName is the checkpoint file name of shard i under a
// durable root (checkpoint-000.json, …), exported so a follower replica
// can mirror the primary's layout exactly.
func CheckpointFileName(i int) string { return fmt.Sprintf("checkpoint-%03d.json", i) }

// shardName is the per-shard subdirectory name (WAL and store layout).
func shardName(i int) string { return fmt.Sprintf("shard-%03d", i) }

// Dir returns the router's durable root ("" for in-memory routers).
func (r *Router) Dir() string { return r.dir }

// WALDir returns the WAL directory of shard i under the durable root. The
// replication primary reads sealed segment files from it directly.
func (r *Router) WALDir(i int) string { return filepath.Join(r.dir, shardName(i)) }

// CheckpointFile returns the checkpoint file of shard i under the durable
// root. The replication primary ships its contents to bootstrapping
// followers.
func (r *Router) CheckpointFile(i int) string { return r.checkpointPath(i) }

// ShardDirName returns the per-shard subdirectory name used by the durable
// layout (shard-000, shard-001, …), so a follower can mirror the primary's
// directory structure exactly and a promoted replica directory is directly
// recoverable by Recover.
func ShardDirName(i int) string { return shardName(i) }

// NewReplica wires an already-built shard set into a read-only router:
// same rendezvous salts (from seed), same snapshot shape, no durable root
// of its own — the follower runtime owns the shards' directories and WALs.
// The shards are expected to be in replica mode; registry mutations through
// the router would journal nothing and must not be offered (the serving
// layer enforces read-only).
func NewReplica(cfg source.Config, shards []*source.Source, seed uint64) *Router {
	return &Router{
		cfg:    cfg,
		shards: shards,
		salts:  makeSalts(len(shards), seed),
		seed:   seed,
	}
}
