package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dtdevolve"
	"dtdevolve/internal/api"
	"dtdevolve/internal/classify"
	"dtdevolve/internal/dtd"
	ingest "dtdevolve/internal/metrics"
	"dtdevolve/internal/source"
	"dtdevolve/internal/xmltree"
)

// A pass sets the server up at least setupRuns times, and until the
// set-ups took setupSeconds in all: a set-up of a few tens of
// milliseconds, its fsyncs included, varies by a quarter from one to the
// next. setup_s is their median, and the last one serves the window.
const (
	setupRuns    = 5
	setupSeconds = 2.0
)

// options are the command-line settings of one run.
type options struct {
	seed    int64
	window  time.Duration
	workdir string
}

// pass is everything one set-up, measured window and recovery yield.
type pass struct {
	setupS         []float64
	writes, reads  loopStats
	window         time.Duration
	ackedBytes     int64 // request bytes acknowledged in the window
	cpu            time.Duration
	gcCPU, usedCPU float64 // runtime/metrics seconds in the window
	allocBytes     float64
	before, after  metricsResp
	repoStart      int
	repositoryEnd  int
	heapLiveMB     float64
	recoverS       float64
	replayed       int
	layers         layerTimes
	windowFrom     int64 // tracer time of the window start
	checks         checkLog
	dataFS         string
	// setupPh, windowPh and recoverPh are when the set-ups, the window
	// and the recoveries ran; speed samples the host throughout.
	setupPh, windowPh, recoverPh phase
	speed                        *sampler
}

// attempted counts the window's requests and the run's output checks;
// failed, those that failed.
func (p *pass) attempted() int { return p.writes.attempted + p.reads.attempted + p.checks.run }
func (p *pass) failed() int    { return p.checks.failed }

// metricsResp is the GET /metrics body: the rolled-up counters, plus the
// per-shard ones when sharded.
type metricsResp struct {
	ingest.IngestSnapshot
	Shards []ingest.IngestSnapshot `json:"shards"`
}

// addResponse is the POST /documents body.
type addResponse struct {
	Classified bool    `json:"classified"`
	DTD        string  `json:"dtd"`
	Similarity float64 `json:"similarity"`
}

// statusResponse is the part of the GET /status body the checks read.
type statusResponse struct {
	Degraded bool              `json:"degraded"`
	DTDs     []json.RawMessage `json:"dtds"`
}

// checkLog counts output checks and collects their failures. A request
// that fails counts as a failure without a check of its own: the request
// itself is the attempt. Safe for concurrent use.
type checkLog struct {
	mu          sync.Mutex
	run, failed int
	msgs        []string
}

// check records one run-level check.
func (c *checkLog) check(ok bool, format string, args ...any) {
	c.mu.Lock()
	c.run++
	c.mu.Unlock()
	if !ok {
		c.fail(format, args...)
	}
}

// fail records one failure.
func (c *checkLog) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failed++
	if len(c.msgs) < 8 {
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
}

// parseAdd checks one POST /documents response: a well-formed body whose
// fields agree with each other.
func parseAdd(data []byte) (addResponse, error) {
	var r addResponse
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("malformed add response: %w", err)
	}
	if math.IsNaN(r.Similarity) || r.Similarity < 0 || r.Similarity > 1 {
		return r, fmt.Errorf("add response similarity %v outside [0,1]", r.Similarity)
	}
	if r.Classified != (r.DTD != "") {
		return r, fmt.Errorf("add response classified=%v with dtd %q", r.Classified, r.DTD)
	}
	return r, nil
}

// runPass sets the workload's server up, drives one measured window,
// recovers a copy of its data directory and checks every output, with the
// host's speed sampled throughout.
func runPass(w *workload, c *corpus, o options, tr *tracer) (*pass, error) {
	p := &pass{}
	var expected []classify.Result
	if w.sample > 0 {
		var err error
		if expected, err = offlineClassify(c.dtds, c.warm[:w.sample]); err != nil {
			return nil, err
		}
	}
	root, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	p.dataFS = fsType(root)
	if p.speed, err = startSampler(); err != nil {
		return nil, err
	}
	defer p.speed.close()

	var srv *server
	var warmAdds []addResponse
	p.setupPh.begin()
	for i, total := 0, 0.0; i < setupRuns || total < setupSeconds; i++ {
		if srv != nil {
			if err := srv.close(); err != nil {
				return nil, fmt.Errorf("closing setup server: %w", err)
			}
		}
		// Collect the previous set-up's server before timing the next one.
		runtime.GC()
		dir := filepath.Join(root, fmt.Sprintf("live%d", i))
		start := time.Now()
		srv, warmAdds, err = setup(w, c, dir, tr)
		if err != nil {
			if srv != nil {
				srv.close()
			}
			return nil, err
		}
		p.setupS = append(p.setupS, time.Since(start).Seconds())
		total += p.setupS[i]
	}
	p.setupPh.end()
	defer func() {
		if srv != nil {
			srv.close()
		}
	}()
	for i, want := range expected {
		got := warmAdds[i]
		p.checks.check(got.Classified == want.Classified && got.Similarity == want.Similarity &&
			(!want.Classified || got.DTD == want.DTDName),
			"sample document %d: server classified it (%v, %q, %v), offline exhaustive (%v, %q, %v)",
			i, got.Classified, got.DTD, got.Similarity, want.Classified, want.DTDName, want.Similarity)
	}

	if err := p.drive(w, c, o, srv, tr); err != nil {
		return nil, err
	}
	if err := p.finish(w, c, root, srv, len(warmAdds)); err != nil {
		return nil, err
	}
	return p, nil
}

// setup builds the server over dir, registers the DTDs over HTTP, sends
// the warm-up documents and takes the end-of-setup checkpoint.
func setup(w *workload, c *corpus, dir string, tr *tracer) (*server, []addResponse, error) {
	srv, err := startServer(dir, w.flags, tr)
	if err != nil {
		return nil, nil, err
	}
	cl := newConn(srv.url, nil)
	defer cl.close()
	for _, d := range c.dtds {
		if _, err := cl.do(http.MethodPut, "/dtds/"+d.name+"?root="+d.root, nil, []byte(d.text), false); err != nil {
			return srv, nil, err
		}
	}
	adds := make([]addResponse, 0, len(c.warm))
	for i, b := range c.warm {
		path, hdr := docRequest(w, fmt.Sprintf("warm-%d", i))
		data, err := cl.do(http.MethodPost, path, hdr, b, false)
		if err != nil {
			return srv, nil, fmt.Errorf("warm-up document %d: %w", i, err)
		}
		r, err := parseAdd(data)
		if err != nil {
			return srv, nil, fmt.Errorf("warm-up document %d: %w", i, err)
		}
		adds = append(adds, r)
	}
	return srv, adds, srv.checkpoint()
}

// docRequest is the path and headers of one document add.
func docRequest(w *workload, key string) (string, http.Header) {
	if !w.stream {
		return "/documents", nil
	}
	return "/documents?stream=1", http.Header{api.DefaultKeyHeader: {key}}
}

// drive runs the measured window: the writers, and on drift the reader,
// against the set-up server.
func (p *pass) drive(w *workload, c *corpus, o options, srv *server, tr *tracer) error {
	ctl := newConn(srv.url, nil)
	defer ctl.close()
	if err := ctl.getJSON("/metrics", &p.before); err != nil {
		return err
	}
	var err error
	if p.repoStart, err = repositorySize(ctl); err != nil {
		return err
	}
	ctl.close()

	writers := make([]*conn, min(w.writers, maxConns()))
	for i := range writers {
		writers[i] = newConn(srv.url, tr)
		defer writers[i].close()
		// Open the connection before the window starts.
		if _, err := writers[i].do(http.MethodGet, "/repository", nil, nil, false); err != nil {
			return err
		}
	}
	var reader *conn
	if w.readRate > 0 && len(writers) < maxConns() {
		reader = newConn(srv.url, nil)
		defer reader.close()
		if _, err := reader.do(http.MethodGet, "/repository", nil, nil, false); err != nil {
			return err
		}
	}
	var ackedBytes atomic.Int64
	send := func(worker, i int) bool {
		b := c.doc(i)
		path, hdr := docRequest(w, fmt.Sprintf("doc-%d", i))
		data, err := writers[worker].do(http.MethodPost, path, hdr, b, true)
		if err == nil {
			var r addResponse
			if r, err = parseAdd(data); err == nil && w.stream && (!r.Classified || r.Similarity != 1) {
				err = fmt.Errorf("log document classified (%v, %q, %v), want the log DTD at 1", r.Classified, r.DTD, r.Similarity)
			}
		}
		if err != nil {
			p.checks.fail("document %d: %v", i, err)
			return false
		}
		ackedBytes.Add(int64(len(b)))
		return true
	}
	read := func(_, i int) bool {
		if err := checkStatus(reader, len(c.dtds)); err != nil {
			p.checks.fail("status read %d: %v", i, err)
			return false
		}
		return true
	}

	// Start the window on a collected heap, not on the set-up's garbage.
	runtime.GC()
	cpu0 := cpuTime()
	rt0 := readRuntime()
	p.windowPh.begin()
	start := p.windowPh.from
	if tr != nil {
		p.windowFrom = tr.at(start)
	}
	clk := wallClock{start: start}
	interval := time.Duration(float64(time.Second) / w.rate)
	var writes, reads []sample
	var wg sync.WaitGroup
	if reader != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Reads fall due half-way between two adds. Due together,
			// each add raced a read to the server, and add_p50_ms sat
			// between the adds that waited for a read and those that did
			// not.
			n := int(o.window.Seconds() * w.readRate)
			reads = openLoop(wallClock{start: start.Add(interval / 2)}, n, time.Duration(float64(time.Second)/w.readRate), 1, read)
		}()
	}
	n := int(o.window.Seconds() * w.rate)
	writes = openLoop(clk, n, interval, len(writers), send)
	wg.Wait()
	p.windowPh.end()
	p.cpu = cpuTime() - cpu0
	rt1 := readRuntime()
	p.writes = summarize(writes)
	p.reads = summarize(reads)
	p.window = max(p.writes.end, p.reads.end)
	p.ackedBytes = ackedBytes.Load()
	p.gcCPU = rt1.gc - rt0.gc
	p.usedCPU = rt1.used - rt0.used
	p.allocBytes = rt1.alloc - rt0.alloc
	for _, wr := range writers {
		wr.close()
	}
	return nil
}

// repositorySize reads GET /repository.
func repositorySize(c *conn) (int, error) {
	var repo struct {
		Size int `json:"size"`
	}
	err := c.getJSON("/repository", &repo)
	return repo.Size, err
}

// checkStatus reads GET /status and checks the service is healthy and
// lists every registered DTD.
func checkStatus(c *conn, dtds int) error {
	var st statusResponse
	if err := c.getJSON("/status", &st); err != nil {
		return err
	}
	if st.Degraded {
		return fmt.Errorf("service degraded")
	}
	if len(st.DTDs) != dtds {
		return fmt.Errorf("status lists %d DTDs, want %d", len(st.DTDs), dtds)
	}
	return nil
}

// finish reads the end-of-window state, recovers a copy of the data
// directory, and runs the output checks and workload-shape guards.
func (p *pass) finish(w *workload, c *corpus, root string, srv *server, warm int) error {
	ctl := newConn(srv.url, nil)
	defer ctl.close()
	if err := ctl.getJSON("/metrics", &p.after); err != nil {
		return err
	}
	var err error
	if p.repositoryEnd, err = repositorySize(ctl); err != nil {
		return err
	}
	live, err := ctl.do(http.MethodGet, "/snapshot", nil, nil, false)
	if err != nil {
		return err
	}
	p.checks.check(json.Valid(live), "live snapshot is not well-formed JSON")
	ctl.close()

	// Two collections: the second also empties the sync.Pool victim caches
	// the first one left.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.heapLiveMB = float64(ms.HeapAlloc) / 1e6

	acked := int64(warm + len(p.writes.latencyMS))
	p.checks.check(p.after.Added == acked, "/metrics added = %d, %d documents acknowledged", p.after.Added, acked)
	d := p.delta()
	if w.stream {
		p.checks.check(d.StreamDocs == int64(len(p.writes.latencyMS)) && d.StreamBytes == p.ackedBytes,
			"stream counters moved by %d docs / %d bytes, %d docs / %d bytes were sent",
			d.StreamDocs, d.StreamBytes, len(p.writes.latencyMS), p.ackedBytes)
		p.checks.check(d.WALSyncs > 0, "guard: no WAL fsync in the window")
	}
	if w.evolve {
		err := evolveGuard(d, len(c.dtds), p.repoStart)
		p.checks.check(err == nil, "guard: %v", err)
		ref, err := referenceSnapshot(w.flags.config(), c, len(p.writes.latencyMS))
		if err != nil {
			return err
		}
		err = sameBytes("reference snapshot", live, ref)
		p.checks.check(err == nil, "%v", err)
	}
	if w.minPruneRatio > 0 {
		pr := 1 - ratio(float64(d.ClassifyScored), float64(d.ClassifyPossible))
		p.checks.check(pr >= w.minPruneRatio, "guard: prune ratio %.3f below %.2f (%d of %d possible alignments scored)",
			pr, w.minPruneRatio, d.ClassifyScored, d.ClassifyPossible)
	}

	// Recovery: new engines over copies of the data directory, each timed
	// to its first answered request. The copies are taken from the running
	// server, as a crash would leave the directory. The servers are then
	// closed, and each recovery starts on a collected heap, as a restarted
	// process would.
	copies := make([]string, w.recoveries)
	for i := range copies {
		copies[i] = filepath.Join(root, fmt.Sprintf("recovered%d", i))
		if err := copyDir(srv.dir, copies[i]); err != nil {
			return err
		}
	}
	if err := srv.close(); err != nil {
		return err
	}
	var secs []float64
	p.recoverPh.begin()
	for _, dir := range copies {
		runtime.GC()
		t, replayed, recovered, err := recoverCopy(w, dir)
		if err != nil {
			return err
		}
		secs = append(secs, t)
		p.replayed = replayed
		err = sameBytes("recovered snapshot", live, recovered)
		p.checks.check(err == nil, "%v", err)
	}
	p.recoverPh.end()
	p.recoverS = median(secs)
	return nil
}

// recoverCopy starts a server over the copied data directory dir, and
// returns the seconds until it answered its first request, the WAL
// records it replayed and its snapshot.
func recoverCopy(w *workload, dir string) (float64, int, []byte, error) {
	defer os.RemoveAll(dir)
	start := time.Now()
	rec, err := startServer(dir, w.flags, nil)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("recovering: %w", err)
	}
	defer rec.close()
	rc := newConn(rec.url, nil)
	defer rc.close()
	if _, err := rc.do(http.MethodGet, "/repository", nil, nil, false); err != nil {
		return 0, 0, nil, fmt.Errorf("recovered server: %w", err)
	}
	secs := time.Since(start).Seconds()
	snap, err := rc.do(http.MethodGet, "/snapshot", nil, nil, false)
	if err != nil {
		return 0, 0, nil, err
	}
	return secs, rec.replayed, snap, nil
}

// evolveGuard checks, from the server's counters over the window d, that
// the window evolved a DTD and re-scored the whole repository it started
// with (repoStart documents) at least once. Every classification, of an
// add or of a repository document being reclassified, scores the document
// against each of the dtds registered DTDs and adds dtds to
// classify_possible; what the adds do not account for was reclassification.
func evolveGuard(d ingest.IngestSnapshot, dtds, repoStart int) error {
	rescored := d.ClassifyPossible/int64(dtds) - d.Added
	switch {
	case d.Evolutions < 1:
		return fmt.Errorf("the window evolved no DTD")
	case repoStart < 1:
		return fmt.Errorf("the window started with an empty repository")
	case rescored < int64(repoStart):
		return fmt.Errorf("%d evolutions re-scored %d repository documents, fewer than the %d the window started with",
			d.Evolutions, rescored, repoStart)
	}
	return nil
}

// delta is the change of the rolled-up counters over the window.
func (p *pass) delta() ingest.IngestSnapshot {
	a, b := p.after.IngestSnapshot, p.before.IngestSnapshot
	return ingest.IngestSnapshot{
		Added:              a.Added - b.Added,
		Evolutions:         a.Evolutions - b.Evolutions,
		Reclassified:       a.Reclassified - b.Reclassified,
		ClassifyNS:         a.ClassifyNS - b.ClassifyNS,
		ClassifyCalls:      a.ClassifyCalls - b.ClassifyCalls,
		CommitNS:           a.CommitNS - b.CommitNS,
		CommitCalls:        a.CommitCalls - b.CommitCalls,
		WALBytes:           a.WALBytes - b.WALBytes,
		WALSyncs:           a.WALSyncs - b.WALSyncs,
		WALGroups:          a.WALGroups - b.WALGroups,
		WALGroupSizeMean:   ratio(a.WALGroupSizeMean*float64(a.WALGroups)-b.WALGroupSizeMean*float64(b.WALGroups), float64(a.WALGroups-b.WALGroups)),
		StreamDocs:         a.StreamDocs - b.StreamDocs,
		StreamBytes:        a.StreamBytes - b.StreamBytes,
		ClassifyPossible:   a.ClassifyPossible - b.ClassifyPossible,
		ClassifyCandidates: a.ClassifyCandidates - b.ClassifyCandidates,
		ClassifyScored:     a.ClassifyScored - b.ClassifyScored,
	}
}

// shardSkew is the largest shard's share of the window's documents over
// the mean share (1 unsharded).
func (p *pass) shardSkew() float64 {
	if len(p.after.Shards) == 0 || len(p.after.Shards) != len(p.before.Shards) {
		return 1
	}
	var maxN, sum float64
	for i := range p.after.Shards {
		n := float64(p.after.Shards[i].Added - p.before.Shards[i].Added)
		sum += n
		maxN = max(maxN, n)
	}
	return ratio(maxN, sum/float64(len(p.after.Shards)))
}

// sameBytes fails with the first differing offset unless got equals want
// byte for byte.
func sameBytes(what string, want, got []byte) error {
	if bytes.Equal(want, got) {
		return nil
	}
	i := 0
	for i < len(want) && i < len(got) && want[i] == got[i] {
		i++
	}
	return fmt.Errorf("%s differs from the live one at byte %d (%d vs %d bytes)", what, i, len(got), len(want))
}

// parseDTD parses a registered DTD the way PUT /dtds does.
func parseDTD(s dtdSpec) (*dtd.DTD, error) {
	d, err := dtd.ParseString(s.text)
	if err != nil {
		return nil, fmt.Errorf("DTD %s: %w", s.name, err)
	}
	d.Name = s.root
	return d, nil
}

// offlineClassify classifies docs exhaustively against the DTD set,
// without the server's candidate index.
func offlineClassify(dtds []dtdSpec, docs [][]byte) ([]classify.Result, error) {
	cfg := dtdevolve.DefaultConfig()
	c := classify.New(cfg.Sigma, cfg.Similarity)
	for _, s := range dtds {
		d, err := parseDTD(s)
		if err != nil {
			return nil, err
		}
		c.Set(s.name, d)
	}
	out := make([]classify.Result, len(docs))
	for i, b := range docs {
		doc, err := xmltree.Parse(bytes.NewReader(b))
		if err != nil {
			return nil, err
		}
		out[i] = c.ClassifyExhaustive(doc)
	}
	return out, nil
}

// referenceSnapshot feeds an in-process Source the operations the server
// received — the registrations, the warm-up and the first n window
// documents, in order — through Source.Add, and returns its snapshot.
func referenceSnapshot(cfg source.Config, c *corpus, n int) ([]byte, error) {
	src := source.New(cfg)
	for _, s := range c.dtds {
		d, err := parseDTD(s)
		if err != nil {
			return nil, err
		}
		src.AddDTD(s.name, d)
	}
	docs := append(append([][]byte(nil), c.warm...), c.docs[:n]...)
	for _, b := range docs {
		doc, err := xmltree.Parse(bytes.NewReader(b))
		if err != nil {
			return nil, err
		}
		src.Add(doc)
	}
	return src.Snapshot()
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSample is the runtime/metrics state the per-layer runtime
// metrics difference.
type runtimeSample struct{ gc, used, alloc float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return runtimeSample{gc: val(0), used: val(1) - val(2), alloc: val(3)}
}

// maxConns is how many connections the load generator may hold: one per
// core.
func maxConns() int { return max(1, runtime.NumCPU()) }
