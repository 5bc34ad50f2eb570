package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dtdevolve/internal/api"
	"dtdevolve/internal/source"
	"dtdevolve/internal/wal"
	"dtdevolve/internal/xmltree"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	spanClient   spanKind = iota // load generator: request sent to response read
	spanHTTP                     // the http.Handler the server serves
	spanEngine                   // the api.Engine call the handler makes
	spanWALWrite                 // one wal.FS file Write
	spanWALSync                  // one wal.FS file Sync
)

var spanNames = [...]string{"client", "http", "engine", "wal.write", "wal.sync"}

// span is one timed interval at a layer boundary. Spans of one request
// share req (the id of its client span); parent is the span that caused
// this one, 0 for none — WAL spans have none, because group commit and
// the background flusher detach them from any single request.
type span struct {
	id, parent, req uint64
	kind            spanKind
	evolved         bool  // engine spans: the add triggered an evolution
	start, end      int64 // nanoseconds since the tracer's base
}

func (s span) dur() int64 { return s.end - s.start }

// spanHeader carries the client span id to the server side of a traced
// request.
const spanHeader = "X-Bench-Span"

// tracer keeps spans in memory until the run ends. Every method is safe
// for concurrent use.
type tracer struct {
	base  time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, capacity)}
}

// now is the monotonic time since the tracer's base.
func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// at converts a wall-clock instant taken by the load generator to tracer
// time.
func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.base)) }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeTo writes every span as one tab-separated line: name, id, parent,
// request, start and end in nanoseconds, evolved.
func (t *tracer) writeTo(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "name\tid\tparent\treq\tstart_ns\tend_ns\tevolved")
	for _, s := range t.snapshot() {
		fmt.Fprintf(bw, "%s\t%d\t%d\t%d\t%d\t%d\t%t\n",
			spanNames[s.kind], s.id, s.parent, s.req, s.start, s.end, s.evolved)
	}
	return bw.Flush()
}

// writeFile writes the spans to path.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.writeTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanCtx is what the traced handler hands the traced engine through the
// request context.
type spanCtx struct{ req, parent uint64 }

type spanCtxKey struct{}

// traceHandler records an http span for every request that carries a
// client span id, and passes its ids to the engine through the context.
func traceHandler(t *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		if err != nil || req == 0 {
			next.ServeHTTP(w, r)
			return
		}
		s := span{id: t.newID(), parent: req, req: req, kind: spanHTTP, start: t.now()}
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanCtxKey{}, spanCtx{req: req, parent: s.id})))
		s.end = t.now()
		t.add(s)
	})
}

// tracedEngine records an engine span around every document add of a
// traced request. Every other Engine method passes straight through.
type tracedEngine struct {
	api.Engine
	t *tracer
}

func (e tracedEngine) AddDocument(ctx context.Context, key string, doc *xmltree.Document) (source.AddResult, error) {
	start := e.t.now()
	res, err := e.Engine.AddDocument(ctx, key, doc)
	e.finish(ctx, start, res)
	return res, err
}

func (e tracedEngine) AddDocumentStream(ctx context.Context, key string, r io.Reader) (source.AddResult, error) {
	start := e.t.now()
	res, err := e.Engine.AddDocumentStream(ctx, key, r)
	e.finish(ctx, start, res)
	return res, err
}

func (e tracedEngine) finish(ctx context.Context, start int64, res source.AddResult) {
	sc, ok := ctx.Value(spanCtxKey{}).(spanCtx)
	if !ok {
		return
	}
	e.t.add(span{id: e.t.newID(), parent: sc.parent, req: sc.req, kind: spanEngine,
		evolved: res.Evolved, start: start, end: e.t.now()})
}

// tracedFS is the real filesystem with a span around every segment Write
// and Sync.
type tracedFS struct{ t *tracer }

func (f tracedFS) Create(path string) (wal.File, error) {
	file, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return tracedFile{f: file, t: f.t}, nil
}

func (tracedFS) Remove(path string) error { return os.Remove(path) }

type tracedFile struct {
	f *os.File
	t *tracer
}

func (f tracedFile) Write(p []byte) (int, error) {
	start := f.t.now()
	n, err := f.f.Write(p)
	f.t.add(span{id: f.t.newID(), kind: spanWALWrite, start: start, end: f.t.now()})
	return n, err
}

func (f tracedFile) Sync() error {
	start := f.t.now()
	err := f.f.Sync()
	f.t.add(span{id: f.t.newID(), kind: spanWALSync, start: start, end: f.t.now()})
	return err
}

func (f tracedFile) Close() error { return f.f.Close() }

// selfTime is the part of parent's interval that none of children covers:
// overlapping children count once, and child time outside the parent does
// not count.
func selfTime(parent span, children []span) int64 {
	type iv struct{ s, e int64 }
	var ivs []iv
	for _, c := range children {
		s, e := max(c.start, parent.start), min(c.end, parent.end)
		if e > s {
			ivs = append(ivs, iv{s, e})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].s < ivs[j].s })
	var covered, curS, curE int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curS, curE, open = v.s, v.e, true
		case v.s <= curE:
			curE = max(curE, v.e)
		default:
			covered += curE - curS
			curS, curE = v.s, v.e
		}
	}
	if open {
		covered += curE - curS
	}
	return parent.dur() - covered
}

// layerTimes are the per-request and per-call timings a trace yields for
// one measured window.
type layerTimes struct {
	httpSelfUS, apiSelfUS, engineUS dist // per traced document request
	evolvingMS                      dist // engine spans that evolved
	walWriteUS, walSyncUS           dist // WAL calls inside the window
	walSyncBusyNS                   int64
}

// analyze folds the spans of requests whose client span starts inside
// [from, to) and the WAL calls that start inside it.
func analyze(spans []span, from, to int64) layerTimes {
	var lt layerTimes
	type req struct {
		client, http *span
		engine       []span
	}
	reqs := make(map[uint64]*req)
	get := func(id uint64) *req {
		r := reqs[id]
		if r == nil {
			r = &req{}
			reqs[id] = r
		}
		return r
	}
	inWindow := func(s span) bool { return s.start >= from && s.start < to }
	for i := range spans {
		s := &spans[i]
		switch s.kind {
		case spanClient:
			if inWindow(*s) {
				get(s.id).client = s
			}
		case spanHTTP:
			get(s.req).http = s
		case spanEngine:
			r := get(s.req)
			r.engine = append(r.engine, *s)
		case spanWALWrite:
			if inWindow(*s) {
				lt.walWriteUS = append(lt.walWriteUS, float64(s.dur())/1e3)
			}
		case spanWALSync:
			if inWindow(*s) {
				lt.walSyncUS = append(lt.walSyncUS, float64(s.dur())/1e3)
				lt.walSyncBusyNS += s.dur()
			}
		}
	}
	for _, r := range reqs {
		if r.client == nil || r.http == nil || len(r.engine) == 0 {
			continue
		}
		lt.httpSelfUS = append(lt.httpSelfUS, float64(selfTime(*r.client, []span{*r.http}))/1e3)
		lt.apiSelfUS = append(lt.apiSelfUS, float64(selfTime(*r.http, r.engine))/1e3)
		for _, e := range r.engine {
			lt.engineUS = append(lt.engineUS, float64(e.dur())/1e3)
			if e.evolved {
				lt.evolvingMS = append(lt.evolvingMS, float64(e.dur())/1e6)
			}
		}
	}
	for _, d := range []dist{lt.httpSelfUS, lt.apiSelfUS, lt.engineUS, lt.evolvingMS, lt.walWriteUS, lt.walSyncUS} {
		d.sorted()
	}
	return lt
}
