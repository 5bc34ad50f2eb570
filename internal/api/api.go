// Package api exposes the source lifecycle over HTTP: the paper's scenario
// is a Web document source, and this handler turns the library into the
// long-lived service a downstream user would deploy — register DTDs, stream
// documents in, watch evolutions happen, manage triggers, checkpoint state.
//
// Routes (all JSON unless noted):
//
//	GET  /status                  per-DTD status + durability health (+ per-shard health)
//	GET  /dtds                    registered DTD names
//	PUT  /dtds/{name}?root=r      register/replace a DTD (body: DTD text)
//	GET  /dtds/{name}             current DTD (text/plain)
//	POST /dtds/{name}/evolve      force the evolution phase
//	POST /documents               classify+record one document (body: XML)
//	POST /documents?stream=1      same, via the bounded-memory one-pass path
//	                              (body streams straight into the parser; the
//	                              engine's MaxDocBytes budget replaces the
//	                              handler's body cap; sharded ingest needs
//	                              the routing-key header)
//	POST /documents/batch         batch ingest (body: {"documents": [xml, …], "keys": [k, …]})
//	GET  /repository              repository size
//	POST /repository/reclassify   re-classify the repository
//	PUT  /triggers                install trigger rules (body: rule list)
//	GET  /triggers                installed rules
//	GET  /metrics                 ingest counters and per-phase latencies (+ per-shard)
//	GET  /snapshot                JSON checkpoint of the whole source
//
// The handler serves any Engine: a single *source.Source (New) or a
// *shard.Router (NewEngine) that partitions documents across N independent
// shards by a routing key — the X-Doc-Key request header on
// POST /documents (configurable via Options.KeyHeader), the per-item
// "keys" array on POST /documents/batch, falling back to a content hash.
// Unsharded deployments ignore keys, so clients can always send them.
//
// Documents in a batch are scored concurrently (one read-lock section per
// shard, each document fanning out per DTD) and committed per shard in a
// single write-lock section, so a batch is both faster than and equivalent
// to the same documents POSTed one by one. A client that disconnects
// mid-batch cancels the remaining scoring work before anything commits.
//
// When the source's write-ahead log fails (disk full, dying device), the
// service degrades to read-only: every mutating route answers 503 with the
// sticky durability error, while reads — including GET /snapshot, the
// operator's escape hatch for saving state — keep working. Sharded, the
// blanket read-only gate engages only when EVERY shard is degraded; while
// some shards are healthy, requests touching a degraded shard answer 503
// individually (broadcast mutations like PUT /dtds need all shards), and
// GET /status reports the per-shard failures. See DESIGN.md §10 and §13.
package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"dtdevolve/internal/classify"
	"dtdevolve/internal/dtd"
	"dtdevolve/internal/evolve"
	"dtdevolve/internal/metrics"
	"dtdevolve/internal/shard"
	"dtdevolve/internal/source"
	"dtdevolve/internal/xmltree"
)

// maxBodyBytes bounds request bodies (documents, DTDs, rule lists). A
// variable so handler tests can exercise the limit without 16 MiB bodies.
var maxBodyBytes int64 = 16 << 20

// DefaultKeyHeader is the request header carrying the routing key of
// POST /documents when Options.KeyHeader is unset.
const DefaultKeyHeader = "X-Doc-Key"

// Engine is the lifecycle surface the handler serves: implemented by
// *shard.Router, and by sourceEngine for a single unsharded Source. The
// key parameters and per-shard results are no-ops on the single source.
type Engine interface {
	AddDTD(name string, d *dtd.DTD) error
	DTD(name string) *dtd.DTD
	Names() []string
	AddDocument(ctx context.Context, key string, doc *xmltree.Document) (source.AddResult, error)
	// AddDocumentStream ingests one document through the bounded-memory
	// one-pass path without materializing the tree. Sharded engines require
	// a non-empty key (shard.ErrStreamKeyRequired otherwise): the router
	// never sees the bytes, so there is no content-hash fallback.
	AddDocumentStream(ctx context.Context, key string, r io.Reader) (source.AddResult, error)
	AddBatchKeyed(ctx context.Context, keys []string, docs []*xmltree.Document) ([]source.AddResult, error)
	EvolveNow(name string) (evolve.Report, int, error)
	Reclassify() (int, error)
	RepositorySize() int
	SetTriggerRules(src string) error
	TriggerRules() []string
	Snapshot() ([]byte, error)
	Degraded() error
	DTDStatus() []source.DTDStatus
	// ShardStatuses returns per-shard health, nil for unsharded engines.
	ShardStatuses() []shard.ShardStatus
	// Metrics returns the rolled-up counters plus per-shard snapshots (nil
	// for unsharded engines, keeping the single-source JSON unchanged).
	Metrics() (metrics.IngestSnapshot, []metrics.IngestSnapshot)
}

// sourceEngine adapts one *source.Source to the Engine interface. Routing
// keys are ignored: there is nothing to route between.
type sourceEngine struct{ src *source.Source }

// SourceEngine wraps a single Source as an Engine, for callers composing
// their own handler options.
func SourceEngine(src *source.Source) Engine { return sourceEngine{src} }

func (e sourceEngine) AddDTD(name string, d *dtd.DTD) error {
	return e.src.AddDTD(name, d)
}
func (e sourceEngine) DTD(name string) *dtd.DTD { return e.src.DTD(name) }
func (e sourceEngine) Names() []string          { return e.src.Names() }
func (e sourceEngine) AddDocument(_ context.Context, _ string, doc *xmltree.Document) (source.AddResult, error) {
	return e.src.Add(doc), nil
}
func (e sourceEngine) AddDocumentStream(_ context.Context, _ string, r io.Reader) (source.AddResult, error) {
	return e.src.AddStream(r)
}
func (e sourceEngine) AddBatchKeyed(ctx context.Context, _ []string, docs []*xmltree.Document) ([]source.AddResult, error) {
	return e.src.AddBatchContext(ctx, docs)
}
func (e sourceEngine) EvolveNow(name string) (evolve.Report, int, error) {
	return e.src.EvolveNow(name)
}
func (e sourceEngine) Reclassify() (int, error)           { return e.src.ReclassifyRepository(), nil }
func (e sourceEngine) RepositorySize() int                { return e.src.RepositorySize() }
func (e sourceEngine) SetTriggerRules(src string) error   { return e.src.SetTriggerRules(src) }
func (e sourceEngine) TriggerRules() []string             { return e.src.TriggerRules() }
func (e sourceEngine) Snapshot() ([]byte, error)          { return e.src.Snapshot() }
func (e sourceEngine) Degraded() error                    { return e.src.Degraded() }
func (e sourceEngine) DTDStatus() []source.DTDStatus      { return e.src.Status() }
func (e sourceEngine) ShardStatuses() []shard.ShardStatus { return nil }
func (e sourceEngine) Metrics() (metrics.IngestSnapshot, []metrics.IngestSnapshot) {
	return e.src.Metrics(), nil
}

// Options tunes the handler.
type Options struct {
	// KeyHeader is the request header read as the routing key of
	// POST /documents; empty means DefaultKeyHeader.
	KeyHeader string
	// Replication, when set, is called on each GET /status and GET /metrics
	// and its result is embedded under "replication" in the response. The
	// value is opaque to the handler (any JSON-marshalable value): the
	// replication runtime — primary follower registry or follower lag —
	// injects its state without the api package depending on it.
	Replication func() any
}

// Handler serves the lifecycle API for one Engine.
type Handler struct {
	eng         Engine
	keyHeader   string
	replication func() any
	mux         *http.ServeMux
}

// New returns an http.Handler managing a single unsharded Source.
func New(src *source.Source) *Handler {
	return NewEngine(SourceEngine(src), Options{})
}

// NewEngine returns an http.Handler managing any Engine — pass a
// *shard.Router for the sharded service.
func NewEngine(eng Engine, opts Options) *Handler {
	if opts.KeyHeader == "" {
		opts.KeyHeader = DefaultKeyHeader
	}
	h := &Handler{eng: eng, keyHeader: opts.KeyHeader, replication: opts.Replication, mux: http.NewServeMux()}
	h.mux.HandleFunc("GET /status", h.status)
	h.mux.HandleFunc("GET /dtds", h.listDTDs)
	h.mux.HandleFunc("PUT /dtds/{name}", h.putDTD)
	h.mux.HandleFunc("GET /dtds/{name}", h.getDTD)
	h.mux.HandleFunc("POST /dtds/{name}/evolve", h.evolve)
	h.mux.HandleFunc("POST /documents", h.addDocument)
	h.mux.HandleFunc("POST /documents/batch", h.addBatch)
	h.mux.HandleFunc("GET /metrics", h.metrics)
	h.mux.HandleFunc("GET /repository", h.repository)
	h.mux.HandleFunc("POST /repository/reclassify", h.reclassify)
	h.mux.HandleFunc("PUT /triggers", h.putTriggers)
	h.mux.HandleFunc("GET /triggers", h.getTriggers)
	h.mux.HandleFunc("GET /snapshot", h.snapshot)
	return h
}

// statusClientClosedRequest is nginx's non-standard code for a client that
// disconnected before the response was produced.
const statusClientClosedRequest = 499

// ServeHTTP implements http.Handler. Mutating requests are refused with 503
// while the engine is degraded (a single source's write-ahead log stopped
// accepting records — or, sharded, every shard's did): the in-memory state
// could still change, but its durability can no longer be promised, and a
// lost-on-restart mutation acknowledged with 200 would be a silent lie.
// All routes mutate iff their method is not GET. Partially-degraded shard
// failures are mapped per request by writeEngineError.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		if err := h.eng.Degraded(); err != nil {
			writeError(w, http.StatusServiceUnavailable, "source degraded (read-only): %v", err)
			return
		}
	}
	h.mux.ServeHTTP(w, r)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// writeEngineError maps an engine failure: a degraded shard answers 503
// (the mutation's durability cannot be promised there), anything else gets
// the caller's fallback status.
func writeEngineError(w http.ResponseWriter, err error, fallback int, context string) {
	var de *shard.DegradedError
	if errors.As(err, &de) {
		writeError(w, http.StatusServiceUnavailable, "%s: shard degraded (read-only): %v", context, err)
		return
	}
	writeError(w, fallback, "%s: %v", context, err)
}

func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		// Only an over-limit body is 413; any other read failure (client
		// disconnect, malformed chunking) is the client's bad request.
		status := http.StatusBadRequest
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, "reading body: %v", err)
		return nil, false
	}
	return data, true
}

// statusResponse is the JSON shape of GET /status: per-DTD state plus the
// service's durability health. Sharded, the DTD states are rolled up by
// name, degraded means "no shard left writable", and shards / a degraded
// shard count carry the per-shard detail.
type statusResponse struct {
	Degraded bool               `json:"degraded"`
	Error    string             `json:"error,omitempty"`
	DTDs     []source.DTDStatus `json:"dtds"`
	// DegradedShards counts shards currently read-only (omitted unsharded
	// and when all healthy).
	DegradedShards int `json:"degraded_shards,omitempty"`
	// Shards is the per-shard health and volume detail (sharded only).
	Shards []shard.ShardStatus `json:"shards,omitempty"`
	// Replication is the replication runtime's state (Options.Replication):
	// follower registry on a primary, per-shard lag on a follower.
	Replication any `json:"replication,omitempty"`
}

func (h *Handler) status(w http.ResponseWriter, _ *http.Request) {
	resp := statusResponse{DTDs: h.eng.DTDStatus(), Shards: h.eng.ShardStatuses()}
	if err := h.eng.Degraded(); err != nil {
		resp.Degraded = true
		resp.Error = err.Error()
	}
	for _, st := range resp.Shards {
		if st.Degraded {
			resp.DegradedShards++
		}
	}
	if h.replication != nil {
		resp.Replication = h.replication()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (h *Handler) listDTDs(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"dtds": h.eng.Names()})
}

func (h *Handler) putDTD(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	data, ok := readBody(w, r)
	if !ok {
		return
	}
	d, err := dtd.ParseString(string(data))
	if err != nil {
		writeError(w, http.StatusBadRequest, "parsing DTD: %v", err)
		return
	}
	if root := r.URL.Query().Get("root"); root != "" {
		d.Name = root
	}
	if err := h.eng.AddDTD(name, d); err != nil {
		writeEngineError(w, err, http.StatusInternalServerError, "registering DTD")
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{"registered": name, "elements": len(d.Elements)})
}

func (h *Handler) getDTD(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	d := h.eng.DTD(name)
	if d == nil {
		writeError(w, http.StatusNotFound, "no DTD named %q", name)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = io.WriteString(w, d.String())
}

// evolveResponse is the JSON shape of a forced evolution.
type evolveResponse struct {
	Reclassified int             `json:"reclassified"`
	Changes      []elementChange `json:"changes"`
}

type elementChange struct {
	Name       string  `json:"name"`
	Action     string  `json:"action"`
	Invalidity float64 `json:"invalidity"`
	Old        string  `json:"old,omitempty"`
	New        string  `json:"new"`
}

func (h *Handler) evolve(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	report, reclassified, err := h.eng.EvolveNow(name)
	if err != nil {
		writeEngineError(w, err, http.StatusNotFound, "evolving")
		return
	}
	resp := evolveResponse{Reclassified: reclassified}
	for _, c := range report.Changes {
		resp.Changes = append(resp.Changes, elementChange{
			Name:       c.Name,
			Action:     c.Action.String(),
			Invalidity: c.Invalidity,
			Old:        c.Old,
			New:        c.New,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// addResponse is the JSON shape of a document classification.
type addResponse struct {
	Classified   bool     `json:"classified"`
	DTD          string   `json:"dtd,omitempty"`
	Similarity   float64  `json:"similarity"`
	Evolved      bool     `json:"evolved"`
	Reclassified int      `json:"reclassified,omitempty"`
	Triggered    []string `json:"triggered,omitempty"`
	// Candidates echoes the runner-up scores for single-document adds,
	// capped at maxEchoCandidates: the payload must stay O(1) in the size
	// of the registry, whatever the classifier scored.
	Candidates []classify.Candidate `json:"candidates,omitempty"`
}

// maxEchoCandidates caps how many scored candidates POST /documents echoes
// back. Batch responses omit candidates entirely.
const maxEchoCandidates = 5

// streamRequested reports whether the client asked for the one-pass
// streaming ingest (?stream=1 / ?stream=true on POST /documents).
func streamRequested(r *http.Request) bool {
	switch r.URL.Query().Get("stream") {
	case "1", "true":
		return true
	}
	return false
}

// writeStreamError maps a streaming-ingest failure onto a status: the byte
// budget is 413 like an over-limit buffered body, malformed XML is the
// client's 400, a missing routing key on a sharded engine is 400, and the
// bounded-mode refusals (no spool kept for the repository or for re-scoring
// after a DTD change) are 409 — the document was not ingested and the
// client should re-send it, buffered.
func writeStreamError(w http.ResponseWriter, err error) {
	var se *xmltree.SizeError
	var pe *xmltree.ParseError
	switch {
	case errors.As(err, &se):
		writeError(w, http.StatusRequestEntityTooLarge, "streaming document: %v", err)
	case errors.As(err, &pe):
		writeError(w, http.StatusBadRequest, "parsing document: %v", err)
	case errors.Is(err, shard.ErrStreamKeyRequired):
		writeError(w, http.StatusBadRequest, "streaming document: %v", err)
	case errors.Is(err, source.ErrStreamRepository), errors.Is(err, source.ErrStreamStale):
		writeError(w, http.StatusConflict, "streaming document: %v", err)
	default:
		writeEngineError(w, err, http.StatusInternalServerError, "streaming document")
	}
}

func (h *Handler) addDocument(w http.ResponseWriter, r *http.Request) {
	var res source.AddResult
	var err error
	if streamRequested(r) {
		// The body flows straight into the one-pass ingest: no read-side
		// buffer, no maxBodyBytes — the engine's MaxDocBytes budget is the
		// cap, enforced as the bytes stream (SizeError → 413).
		res, err = h.eng.AddDocumentStream(r.Context(), r.Header.Get(h.keyHeader), r.Body)
		if err != nil {
			writeStreamError(w, err)
			return
		}
	} else {
		data, ok := readBody(w, r)
		if !ok {
			return
		}
		doc, perr := parseDocument(data)
		if perr != nil {
			writeError(w, parseStatus(perr), "parsing document: %v", perr)
			return
		}
		res, err = h.eng.AddDocument(r.Context(), r.Header.Get(h.keyHeader), doc)
		if err != nil {
			writeEngineError(w, err, http.StatusInternalServerError, "adding document")
			return
		}
	}
	cands := res.Candidates
	if len(cands) > maxEchoCandidates {
		cands = cands[:maxEchoCandidates]
	}
	writeJSON(w, http.StatusOK, addResponse{
		Classified:   res.Classified,
		DTD:          res.DTDName,
		Similarity:   res.Similarity,
		Evolved:      res.Evolved,
		Reclassified: res.Reclassified,
		Triggered:    res.Triggered,
		Candidates:   cands,
	})
}

// batchRequest is the JSON body of POST /documents/batch. Keys, when
// present, must parallel Documents: keys[i] routes documents[i] to its
// shard (ignored by unsharded deployments, content-hash fallback when
// empty).
type batchRequest struct {
	Documents []string `json:"documents"`
	Keys      []string `json:"keys,omitempty"`
}

// batchResponse is the JSON shape of a batch ingest.
type batchResponse struct {
	Results    []addResponse `json:"results"`
	Classified int           `json:"classified"`
	Repository int           `json:"repository"`
}

func (h *Handler) addBatch(w http.ResponseWriter, r *http.Request) {
	data, ok := readBody(w, r)
	if !ok {
		return
	}
	var req batchRequest
	if err := json.Unmarshal(data, &req); err != nil {
		writeError(w, http.StatusBadRequest, "parsing batch request: %v", err)
		return
	}
	if len(req.Documents) == 0 {
		writeError(w, http.StatusBadRequest, "batch request has no documents")
		return
	}
	if len(req.Keys) != 0 && len(req.Keys) != len(req.Documents) {
		writeError(w, http.StatusBadRequest, "batch request has %d keys for %d documents", len(req.Keys), len(req.Documents))
		return
	}
	docs := make([]*xmltree.Document, len(req.Documents))
	for i, src := range req.Documents {
		doc, err := parseDocument([]byte(src))
		if err != nil {
			writeError(w, parseStatus(err), "parsing document %d: %v", i, err)
			return
		}
		docs[i] = doc
	}
	results, err := h.eng.AddBatchKeyed(r.Context(), req.Keys, docs)
	if err != nil {
		// Either a shard refused the batch (degraded → 503) or the client
		// went away mid-batch; in the latter case scoring was cancelled and
		// nothing committed — nobody reads this response, but access logs
		// should not record the abort as a server fault.
		writeEngineError(w, err, statusClientClosedRequest, "batch cancelled")
		return
	}
	resp := batchResponse{Results: make([]addResponse, len(results))}
	for i, res := range results {
		resp.Results[i] = addResponse{
			Classified:   res.Classified,
			DTD:          res.DTDName,
			Similarity:   res.Similarity,
			Evolved:      res.Evolved,
			Reclassified: res.Reclassified,
			Triggered:    res.Triggered,
		}
		if res.Classified {
			resp.Classified++
		} else {
			resp.Repository++
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// shardedMetrics is the GET /metrics shape of a sharded engine: the
// rolled-up counters at the top level — field-compatible with the
// single-source shape, so dashboards keep working — plus the per-shard
// snapshots and, when a replication runtime is attached, its state.
type shardedMetrics struct {
	metrics.IngestSnapshot
	Shards      []metrics.IngestSnapshot `json:"shards,omitempty"`
	Replication any                      `json:"replication,omitempty"`
}

func (h *Handler) metrics(w http.ResponseWriter, _ *http.Request) {
	total, per := h.eng.Metrics()
	if per == nil && h.replication == nil {
		writeJSON(w, http.StatusOK, total)
		return
	}
	resp := shardedMetrics{IngestSnapshot: total, Shards: per}
	if h.replication != nil {
		resp.Replication = h.replication()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (h *Handler) repository(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"size": h.eng.RepositorySize()})
}

func (h *Handler) reclassify(w http.ResponseWriter, _ *http.Request) {
	recovered, err := h.eng.Reclassify()
	if err != nil {
		writeEngineError(w, err, http.StatusInternalServerError, "reclassifying")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"recovered": recovered})
}

func (h *Handler) putTriggers(w http.ResponseWriter, r *http.Request) {
	data, ok := readBody(w, r)
	if !ok {
		return
	}
	if err := h.eng.SetTriggerRules(string(data)); err != nil {
		writeEngineError(w, err, http.StatusBadRequest, "installing triggers")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"rules": h.eng.TriggerRules()})
}

func (h *Handler) getTriggers(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"rules": h.eng.TriggerRules()})
}

func (h *Handler) snapshot(w http.ResponseWriter, _ *http.Request) {
	data, err := h.eng.Snapshot()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "snapshot: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}
