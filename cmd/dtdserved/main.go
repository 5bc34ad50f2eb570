// Command dtdserved runs the evolution lifecycle as an HTTP service: a
// long-lived "source of XML documents" whose DTD set follows the incoming
// population. See internal/api for the routes; ingest is concurrent —
// POST /documents classifies under a read lock (scoring every DTD in
// parallel), POST /documents/batch scores whole batches concurrently, and
// GET /metrics reports ingest counters and per-phase latencies.
//
// Usage:
//
//	dtdserved [-addr :8080] [-sigma 0.7] [-tau 0.25] [-mindocs 20] \
//	          [-store dir] [-snapshot file] [-pprof] \
//	          [-wal dir] [-fsync always|interval|off] [-fsync-interval 100ms] \
//	          [-wal-segment 4194304] [-checkpoint 30s] \
//	          [-shards 1] [-shard-key X-Doc-Key] \
//	          [-follow url] [-replica-listen :8081] [-max-staleness 0] \
//	          [-follower-id id]
//
// Classification consults a signature index that prunes the candidate DTD
// set before any similarity alignment runs. It skips a DTD only when a
// similarity upper bound proves skipping cannot change the winner or the
// classified/unclassified outcome. GET /metrics reports candidate counts
// and the achieved prune ratio. See DESIGN.md §12.
//
// Every commit queues for a leader/follower group commit: the first
// caller to queue leads, drains every commit that queued behind it (up to
// 64), journals them as one WAL batch and — under -fsync always — pays one
// fsync for the whole group, which is what makes synchronous durability
// viable at production write rates. GET /metrics reports the group-size
// distribution, commit-queue depth and amortized fsyncs per document.
//
// With -wal the service journals every state-changing operation to a
// write-ahead log before acknowledging it, recovers at startup from the
// latest checkpoint plus the log tail (tolerating a torn final record), and
// checkpoints in the background every -checkpoint interval, truncating the
// log history each snapshot covers. The checkpoint lives at -snapshot when
// given, else <wal>/checkpoint.json. If the log stops accepting records
// (disk full, dying device) the service degrades to read-only: mutating
// routes answer 503 and GET /status reports the error. See DESIGN.md §10.
//
// Without -wal, -snapshot alone keeps the old behavior: restore at startup,
// checkpoint once at shutdown — durable only across clean exits.
//
// With -shards N (N > 1) the document stream is partitioned across N fully
// independent sources, each with its own write lock, WAL subdirectory
// (shard-000, …), group-commit queue and staggered background checkpointer,
// routed by rendezvous hashing on a stable document key: the -shard-key
// request header of POST /documents, the per-item "keys" array of
// POST /documents/batch, falling back to a content hash. DTD registrations,
// triggers, forced evolutions and re-classifications broadcast to every
// shard. The shard count and hash seed are recorded in <wal>/manifest.json;
// restarting with a different -shards value is a refused configuration
// error (resharding requires migration). One degraded shard leaves the
// others writable: only requests touching it answer 503, and GET /status
// reports per-shard health. -snapshot is ignored sharded — checkpoints live
// at <wal>/checkpoint-NNN.json. See DESIGN.md §13.
//
// With -wal set, the server also serves the WAL-shipping replication
// protocol under /replication/v1/: followers pull sealed segments plus the
// active segment's durable prefix, acknowledge what they have applied, and
// checkpoint-time WAL truncation never deletes a segment an active follower
// still needs. GET /status and GET /metrics gain a "replication" section
// listing registered followers and their ack floors. See DESIGN.md §14.
//
// With -follow <primary-url> the process runs as a read-only follower
// replica instead: it bootstraps from the primary's latest checkpoint into
// the -wal directory (the local replica mirror — required), tails shipped
// WAL segments per shard with jittered retry/backoff, and serves GET
// traffic on -replica-listen. Mutating routes answer 503 with a
// Retry-After; with -max-staleness > 0 reads degrade to 503 too (except
// /status and /metrics) once replication lag exceeds the bound. POST
// /replication/promote turns a caught-up follower into a writable primary
// over the same directory.
//
// With -pprof the server also exposes the net/http/pprof profiling handlers
// under /debug/pprof/, for live CPU and allocation profiling of the ingest
// pipeline (e.g. go tool pprof http://host/debug/pprof/allocs).
//
// Shutdown: the first SIGINT/SIGTERM drains in-flight requests (bounded at
// 5s), writes a final checkpoint, and closes the log; a second signal exits
// immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"

	"dtdevolve"
	"dtdevolve/internal/api"
	"dtdevolve/internal/docstore"
	"dtdevolve/internal/replicate"
	"dtdevolve/internal/source"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	sigma := flag.Float64("sigma", 0.7, "classification threshold σ")
	tau := flag.Float64("tau", 0.25, "evolution activation threshold τ")
	minDocs := flag.Int("mindocs", 20, "minimum documents between evolutions")
	storeDir := flag.String("store", "", "directory for the durable document store (empty: no store)")
	snapshotPath := flag.String("snapshot", "", "checkpoint file (default with -wal: <wal>/checkpoint.json)")
	walDir := flag.String("wal", "", "directory for the write-ahead log (empty: no journaling)")
	fsyncMode := flag.String("fsync", "interval", "WAL fsync policy: always, interval or off")
	fsyncEvery := flag.Duration("fsync-interval", 100*time.Millisecond, "flush period under -fsync interval")
	walSegment := flag.Int64("wal-segment", 4<<20, "WAL segment size in bytes")
	checkpointEvery := flag.Duration("checkpoint", 30*time.Second, "background checkpoint interval (with -wal)")
	shards := flag.Int("shards", 1, "number of independent ingest shards (1: unsharded; omit to adopt an existing -wal directory's manifest)")
	shardKey := flag.String("shard-key", api.DefaultKeyHeader, "request header carrying the document routing key (with -shards)")
	shardSeed := flag.Uint64("shard-seed", 0, "rendezvous hash seed for a NEW sharded deployment (0: default; existing manifests keep their seed)")
	follow := flag.String("follow", "", "primary base URL; run as a read-only follower replica (requires -wal as the local replica directory)")
	replicaListen := flag.String("replica-listen", ":8081", "listen address in follower mode (with -follow)")
	maxStaleness := flag.Duration("max-staleness", 0, "bounded-staleness read gate in follower mode: reads answer 503 once lag exceeds this (0: serve regardless of lag)")
	followerID := flag.String("follower-id", "", "stable follower identity for the primary's ack/GC registry (default: hostname)")
	maxDocBytes := flag.Int64("max-doc-bytes", 0, "streaming ingest byte budget: POST /documents?stream=1 rejects bigger documents with 413 (0: unlimited)")
	maxChildren := flag.Int("max-children", 0, "streaming ingest width budget: an element exceeding this many children degrades to an ANY-style summary instead of growing memory (0: unlimited)")
	pprofFlag := flag.Bool("pprof", false, "expose /debug/pprof/ profiling handlers")
	flag.Parse()

	cfg := dtdevolve.DefaultConfig()
	cfg.Sigma = *sigma
	cfg.Tau = *tau
	cfg.MinDocs = *minDocs
	cfg.MaxDocBytes = *maxDocBytes
	cfg.MaxChildren = *maxChildren

	syncPolicy, err := dtdevolve.ParseSyncPolicy(*fsyncMode)
	if err != nil {
		log.Fatalf("dtdserved: %v", err)
	}
	walOpts := dtdevolve.WALOptions{
		SegmentSize: *walSegment,
		Sync:        syncPolicy,
		SyncEvery:   *fsyncEvery,
	}
	if *follow != "" {
		runFollower(cfg, walOpts, followerParams{
			primary:      *follow,
			listen:       *replicaListen,
			dir:          *walDir,
			id:           *followerID,
			maxStaleness: *maxStaleness,
			pprof:        *pprofFlag,
		})
		return
	}

	// A WAL directory with a shard manifest was created by a sharded
	// deployment; recovering it through the single-source path would
	// silently start empty (and write a conflicting legacy layout on top).
	// Restarting without -shards adopts the manifest's count; an explicit
	// -shards 1 against a sharded directory is the same config error a
	// wrong count would be, so let shard.Recover report it.
	sharded := *shards > 1
	if !sharded && *walDir != "" {
		if _, err := os.Stat(filepath.Join(*walDir, "manifest.json")); err == nil {
			sharded = true
			explicit := false
			flag.Visit(func(f *flag.Flag) { explicit = explicit || f.Name == "shards" })
			if !explicit {
				*shards = 0 // adopt the manifest's shard count
			}
		}
	}
	if sharded {
		runSharded(cfg, walOpts, shardedParams{
			addr:            *addr,
			shards:          *shards,
			seed:            *shardSeed,
			keyHeader:       *shardKey,
			storeDir:        *storeDir,
			snapshotPath:    *snapshotPath,
			walDir:          *walDir,
			syncPolicy:      syncPolicy,
			checkpointEvery: *checkpointEvery,
			pprof:           *pprofFlag,
		})
		return
	}

	checkpointPath := *snapshotPath
	if checkpointPath == "" && *walDir != "" {
		checkpointPath = filepath.Join(*walDir, "checkpoint.json")
	}

	src, err := buildSource(cfg, checkpointPath, *walDir, walOpts)
	if err != nil {
		log.Fatalf("dtdserved: %v", err)
	}
	if *storeDir != "" {
		// The store mirrors the WAL's fsync discipline: with journaling on,
		// the log is the durability source of truth and the store can flush
		// lazily; without it, the store is all there is.
		if err := src.EnableStore(*storeDir, docstore.WithSync(syncPolicy)); err != nil {
			log.Fatalf("dtdserved: %v", err)
		}
		defer src.CloseStore()
	}

	var stopCheckpointer func()
	var handler http.Handler = api.New(src)
	if *walDir != "" {
		src.SetWALGCLogger(func(err error) { log.Printf("dtdserved: WAL GC: %v", err) })
		stopCheckpointer = src.StartCheckpointer(checkpointPath, *checkpointEvery, func(err error) {
			log.Printf("dtdserved: background checkpoint failed: %v", err)
		})
		log.Printf("dtdserved: journaling to %s (fsync %s), checkpointing to %s every %s",
			*walDir, *fsyncMode, checkpointPath, *checkpointEvery)
		prim := replicate.ForSource(src, *walDir, checkpointPath, replicate.PrimaryOptions{})
		handler = mountReplication(
			api.NewEngine(api.SourceEngine(src), api.Options{Replication: prim.Status}),
			prim)
	}

	serveAndWait(*addr, handler, *pprofFlag, func() {
		m := src.Metrics()
		log.Printf("dtdserved: shutting down (added %d: %d classified, %d to repository; %d evolutions, %d reclassified)",
			m.Added, m.Classified, m.Repository, m.Evolutions, m.Reclassified)
	})
	if stopCheckpointer != nil {
		stopCheckpointer() // runs one final checkpoint
		log.Printf("dtdserved: final checkpoint written to %s", checkpointPath)
	} else if checkpointPath != "" {
		if err := writeSnapshot(src, checkpointPath); err != nil {
			log.Printf("dtdserved: checkpoint failed: %v", err)
		} else {
			log.Printf("dtdserved: checkpoint written to %s", checkpointPath)
		}
	}
	if err := src.CloseWAL(); err != nil {
		log.Printf("dtdserved: closing WAL: %v", err)
	}
}

// shardedParams carries the flag values of a -shards > 1 deployment.
type shardedParams struct {
	addr            string
	shards          int
	seed            uint64
	keyHeader       string
	storeDir        string
	snapshotPath    string
	walDir          string
	syncPolicy      dtdevolve.SyncPolicy
	checkpointEvery time.Duration
	pprof           bool
}

// runSharded is main's -shards > 1 path: a router over N independent
// shards, each with its own WAL subdirectory, group-commit queue and
// staggered checkpointer, served through the same HTTP handler.
func runSharded(cfg dtdevolve.Config, walOpts dtdevolve.WALOptions, p shardedParams) {
	if p.snapshotPath != "" {
		log.Printf("dtdserved: -snapshot is ignored with -shards > 1 (checkpoints live at <wal>/checkpoint-NNN.json)")
	}
	opts := dtdevolve.ShardOptions{Shards: p.shards, Seed: p.seed}
	var router *dtdevolve.ShardRouter
	if p.walDir == "" {
		router = dtdevolve.NewShardRouter(cfg, opts)
	} else {
		var infos []dtdevolve.RecoveryInfo
		var err error
		router, infos, err = dtdevolve.RecoverShardRouter(cfg, p.walDir, walOpts, opts)
		if err != nil {
			log.Fatalf("dtdserved: %v", err)
		}
		replayed := 0
		restored := 0
		for i, info := range infos {
			replayed += info.Replayed
			if info.SnapshotRestored {
				restored++
			}
			if info.Truncated {
				log.Printf("dtdserved: shard %d: torn final WAL record truncated (crash mid-append)", i)
			}
			if info.Corrupted {
				log.Printf("dtdserved: shard %d: corrupt WAL suffix quarantined, NOT applied: %v", i, info.Quarantined)
			}
		}
		log.Printf("dtdserved: recovered %d shards (seed %d; %d checkpoints restored, %d WAL records replayed)",
			router.Shards(), router.Seed(), restored, replayed)
	}
	if p.storeDir != "" {
		if err := router.EnableStore(p.storeDir, docstore.WithSync(p.syncPolicy)); err != nil {
			log.Fatalf("dtdserved: %v", err)
		}
		defer router.CloseStores()
	}
	var prim *replicate.Primary
	if p.walDir != "" {
		for i := 0; i < router.Shards(); i++ {
			router.Shard(i).SetWALGCLogger(func(err error) {
				log.Printf("dtdserved: shard %d: WAL GC: %v", i, err)
			})
		}
		if _, err := router.StartCheckpointers(p.checkpointEvery, func(shard int, err error) {
			log.Printf("dtdserved: shard %d: background checkpoint failed: %v", shard, err)
		}); err != nil {
			log.Fatalf("dtdserved: %v", err)
		}
		log.Printf("dtdserved: journaling %d shards under %s (staggered checkpoints every %s)",
			router.Shards(), p.walDir, p.checkpointEvery)
		prim = replicate.ForRouter(router, replicate.PrimaryOptions{})
	}

	apiOpts := api.Options{KeyHeader: p.keyHeader}
	if prim != nil {
		apiOpts.Replication = prim.Status
	}
	var handler http.Handler = api.NewEngine(router, apiOpts)
	if prim != nil {
		handler = mountReplication(handler, prim)
	}
	serveAndWait(p.addr, handler, p.pprof, func() {
		m, _ := router.Metrics()
		degraded := 0
		for _, st := range router.ShardStatuses() {
			if st.Degraded {
				degraded++
			}
		}
		log.Printf("dtdserved: shutting down %d shards (added %d: %d classified, %d to repository; %d evolutions, %d reclassified; %d shards degraded)",
			router.Shards(), m.Added, m.Classified, m.Repository, m.Evolutions, m.Reclassified, degraded)
	})
	// Close stops every checkpointer (each writes a final per-shard
	// checkpoint) and closes every shard WAL.
	if err := router.Close(); err != nil {
		log.Printf("dtdserved: closing shards: %v", err)
	} else if p.walDir != "" {
		log.Printf("dtdserved: final per-shard checkpoints written under %s", p.walDir)
	}
}

// followerParams carries the flag values of a -follow deployment.
type followerParams struct {
	primary      string
	listen       string
	dir          string
	id           string
	maxStaleness time.Duration
	pprof        bool
}

// runFollower is main's -follow path: bootstrap a read-only replica of the
// primary into the -wal directory, tail shipped WAL segments, and serve
// GETs on -replica-listen until signalled.
func runFollower(cfg dtdevolve.Config, walOpts dtdevolve.WALOptions, p followerParams) {
	if p.dir == "" {
		log.Fatalf("dtdserved: -follow requires -wal (the local replica directory)")
	}
	if p.id == "" {
		if host, err := os.Hostname(); err == nil {
			p.id = host
		}
	}
	// Bootstrap retries against an unreachable primary until the first
	// signal; once tailing, the tailers own retry/backoff.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	f, err := replicate.Open(ctx, cfg, p.primary, replicate.FollowerOptions{
		ID:           p.id,
		Dir:          p.dir,
		MaxStaleness: p.maxStaleness,
		WAL:          walOpts,
		Logf:         log.Printf,
	})
	cancel()
	if err != nil {
		log.Fatalf("dtdserved: %v", err)
	}
	f.Start()
	log.Printf("dtdserved: following %s as %q (%d shards, replica dir %s, max staleness %s)",
		p.primary, p.id, f.Shards(), p.dir, p.maxStaleness)
	serveAndWait(p.listen, f.Handler(), p.pprof, func() {
		st := f.Status()
		behind := int64(0)
		for _, lag := range st.Shards {
			behind += lag.BytesBehind
		}
		log.Printf("dtdserved: follower shutting down (promoted=%v, caught up=%v, %d bytes behind)",
			st.Promoted, f.CaughtUp(), behind)
	})
	if err := f.Close(); err != nil {
		log.Printf("dtdserved: closing follower: %v", err)
	}
}

// mountReplication serves the shipping protocol under /replication/v1/
// next to the ordinary API.
func mountReplication(apiHandler http.Handler, prim *replicate.Primary) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/replication/", prim.Handler())
	mux.Handle("/", apiHandler)
	return mux
}

// serveAndWait runs the HTTP server until the first SIGINT/SIGTERM, drains
// in-flight requests (bounded at 5s; a second signal exits immediately),
// and returns so the caller can finalize durability state. logState runs
// after the first signal, before the drain.
func serveAndWait(addr string, handler http.Handler, pprofOn bool, logState func()) {
	var inflight atomic.Int64
	handler = countInflight(&inflight, handler)
	if pprofOn {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
		log.Printf("dtdserved: profiling enabled at /debug/pprof/")
	}
	server := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go func() {
		log.Printf("dtdserved: listening on %s", addr)
		if err := server.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("dtdserved: %v", err)
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	// A second signal while draining means "now": skip the graceful path.
	go func() {
		<-stop
		log.Printf("dtdserved: second signal, exiting immediately")
		os.Exit(1)
	}()
	if logState != nil {
		logState()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := server.Shutdown(ctx); err != nil {
		log.Printf("dtdserved: graceful shutdown incomplete (%d requests still in flight): %v; closing",
			inflight.Load(), err)
		_ = server.Close()
	} else {
		log.Printf("dtdserved: in-flight requests drained")
	}
}

// countInflight tracks the number of requests currently being served, for
// the shutdown drain log line.
func countInflight(n *atomic.Int64, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.Add(1)
		defer n.Add(-1)
		next.ServeHTTP(w, r)
	})
}

// buildSource restores state. With a WAL directory the snapshot is only the
// checkpoint floor — the journal tail on top of it is replayed and the log
// reattached; without one, the snapshot alone (when present) is the state.
func buildSource(cfg dtdevolve.Config, snapshotPath, walDir string, walOpts dtdevolve.WALOptions) (*source.Source, error) {
	var snapshot []byte
	if snapshotPath != "" {
		data, err := os.ReadFile(snapshotPath)
		switch {
		case err == nil:
			snapshot = data
		case !os.IsNotExist(err):
			return nil, err
		}
	}
	if walDir == "" {
		if snapshot == nil {
			return dtdevolve.NewSource(cfg), nil
		}
		src, err := dtdevolve.RestoreSource(cfg, snapshot)
		if err != nil {
			return nil, fmt.Errorf("restoring %s: %w", snapshotPath, err)
		}
		log.Printf("dtdserved: restored from %s", snapshotPath)
		return src, nil
	}
	src, info, err := dtdevolve.RecoverSource(cfg, snapshot, walDir, walOpts)
	if err != nil {
		return nil, fmt.Errorf("recovering from %s + %s: %w", snapshotPath, walDir, err)
	}
	log.Printf("dtdserved: recovered (snapshot: %v, %d WAL records replayed)", info.SnapshotRestored, info.Replayed)
	if info.Truncated {
		log.Printf("dtdserved: torn final WAL record truncated (crash mid-append)")
	}
	if info.Corrupted {
		log.Printf("dtdserved: corrupt WAL suffix quarantined, NOT applied: %v", info.Quarantined)
	}
	return src, nil
}

func writeSnapshot(src *source.Source, path string) error {
	data, err := src.Snapshot()
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
