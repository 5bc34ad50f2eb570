package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"dtdevolve"
	"dtdevolve/internal/api"
	"dtdevolve/internal/replicate"
	"dtdevolve/internal/source"
	"dtdevolve/internal/wal"
)

// serverFlags are the dtdserved flags a workload runs with; every flag not
// named here keeps its dtdserved default.
type serverFlags struct {
	shards      int     // -shards
	fsync       string  // -fsync
	groupCommit bool    // -group-commit; the sharded server only
	tau         float64 // -tau, 0 for the default
	minDocs     int     // -mindocs, 0 for the default
}

// config is the source configuration dtdserved derives from the flags.
func (f serverFlags) config() source.Config {
	cfg := dtdevolve.DefaultConfig()
	if f.tau > 0 {
		cfg.Tau = f.tau
	}
	if f.minDocs > 0 {
		cfg.MinDocs = f.minDocs
	}
	return cfg
}

// checkpointEvery is the -checkpoint interval: longer than any run, so the
// background checkpointer never fires inside the measured window and every
// run replays the same WAL records at recovery.
const checkpointEvery = time.Hour

// server is an in-process dtdserved: the engine built the way
// cmd/dtdserved builds it for the same flags, served on loopback.
type server struct {
	dir      string
	src      *source.Source         // unsharded
	router   *dtdevolve.ShardRouter // sharded
	stop     func()                 // stops the checkpointers (one final checkpoint each)
	http     *http.Server
	url      string
	served   chan error
	replayed int // WAL records replayed at start
	closed   bool
}

// startServer recovers (or creates) the engine over dir and serves it on a
// loopback port. With a tracer, the served handler, the engine and the WAL
// filesystem are wrapped to record spans; the program itself is unchanged.
func startServer(dir string, f serverFlags, tr *tracer) (*server, error) {
	cfg := f.config()
	policy, err := wal.ParseSyncPolicy(f.fsync)
	if err != nil {
		return nil, err
	}
	walOpts := wal.Options{SegmentSize: 4 << 20, Sync: policy, SyncEvery: 100 * time.Millisecond}
	if tr != nil {
		walOpts.FS = tracedFS{t: tr}
	}
	wrap := func(e api.Engine) api.Engine {
		if tr != nil {
			return tracedEngine{Engine: e, t: tr}
		}
		return e
	}

	s := &server{dir: dir}
	var handler http.Handler
	if f.shards > 1 {
		router, infos, err := dtdevolve.RecoverShardRouter(cfg, dir, walOpts, dtdevolve.ShardOptions{Shards: f.shards})
		if err != nil {
			return nil, err
		}
		for _, info := range infos {
			s.replayed += info.Replayed
		}
		s.router = router
		if f.groupCommit {
			router.EnableGroupCommit(source.GroupCommitOptions{MaxGroup: source.DefaultMaxGroup})
		}
		stop, err := router.StartCheckpointers(checkpointEvery, nil)
		if err != nil {
			router.Close()
			return nil, err
		}
		s.stop = stop
		prim := replicate.ForRouter(router, replicate.PrimaryOptions{})
		handler = mountReplication(api.NewEngine(wrap(router), api.Options{KeyHeader: api.DefaultKeyHeader, Replication: prim.Status}), prim)
	} else {
		checkpoint := filepath.Join(dir, "checkpoint.json")
		var snapshot []byte
		if data, err := os.ReadFile(checkpoint); err == nil {
			snapshot = data
		} else if !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
		src, info, err := dtdevolve.RecoverSource(cfg, snapshot, dir, walOpts)
		if err != nil {
			return nil, err
		}
		s.replayed = info.Replayed
		s.src = src
		s.stop = src.StartCheckpointer(checkpoint, checkpointEvery, nil)
		prim := replicate.ForSource(src, dir, checkpoint, replicate.PrimaryOptions{})
		handler = mountReplication(api.NewEngine(wrap(api.SourceEngine(src)), api.Options{Replication: prim.Status}), prim)
	}
	var inflight atomic.Int64
	handler = countInflight(&inflight, handler)
	if tr != nil {
		handler = traceHandler(tr, handler)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.closeEngine()
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.http = &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	s.served = make(chan error, 1)
	go func() { s.served <- s.http.Serve(ln) }()
	return s, nil
}

// mountReplication and countInflight repeat cmd/dtdserved's handler stack.
func mountReplication(apiHandler http.Handler, prim *replicate.Primary) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/replication/", prim.Handler())
	mux.Handle("/", apiHandler)
	return mux
}

func countInflight(n *atomic.Int64, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.Add(1)
		defer n.Add(-1)
		next.ServeHTTP(w, r)
	})
}

// checkpoint takes the end-of-setup checkpoint on every shard.
func (s *server) checkpoint() error {
	if s.router == nil {
		return s.src.Checkpoint(filepath.Join(s.dir, "checkpoint.json"))
	}
	for i := 0; i < s.router.Shards(); i++ {
		if err := s.router.Shard(i).Checkpoint(s.router.CheckpointFile(i)); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// close shuts the server down the way dtdserved does on SIGINT: drain the
// listener, stop the checkpointers, close the logs. Closing a closed
// server does nothing.
func (s *server) close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := s.closeEngine(); err == nil {
		err = cerr
	}
	return err
}

func (s *server) closeEngine() error {
	if s.router != nil {
		return s.router.Close() // stops the checkpointers too
	}
	if s.stop != nil {
		s.stop()
	}
	return s.src.CloseWAL()
}

// copyDir copies the regular files of the tree at src to dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
