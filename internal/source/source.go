// Package source implements the paper's full lifecycle (Figure 1): a
// source of XML documents described by a set of DTDs, with
//
//   - an initialization phase (the DTD set and the similarity threshold σ);
//   - a classification phase associating each incoming document with the
//     DTD best describing its structure, or with the repository of
//     unclassified documents when no similarity reaches σ;
//   - a recording phase extracting structural information into the
//     extended DTD;
//   - a check phase triggering evolution for a DTD when the normalized
//     amount of non-valid elements exceeds the threshold τ;
//   - an evolution phase rewriting the DTD (package evolve);
//   - re-classification of the repository against the evolved DTD set.
//
// A Source is safe for concurrent use. Ingest is two-phase: classification
// (the expensive per-DTD alignment) runs under a read lock, so many
// documents score concurrently; only the commit — record, check, evolve,
// re-classify — takes the write lock. A generation counter detects DTD-set
// changes between the two phases, in which case the document is re-scored
// under the write lock, so a stale similarity is never recorded. See
// DESIGN.md §8 for the full concurrency model.
package source

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dtdevolve/internal/adapt"
	"dtdevolve/internal/classify"
	"dtdevolve/internal/docstore"
	"dtdevolve/internal/dtd"
	"dtdevolve/internal/evolve"
	"dtdevolve/internal/intern"
	"dtdevolve/internal/metrics"
	"dtdevolve/internal/record"
	"dtdevolve/internal/similarity"
	"dtdevolve/internal/trigger"
	"dtdevolve/internal/wal"
	"dtdevolve/internal/xmltree"
)

// The durability layer must never drop a Sync/Close/Write error.
// dtdvet:strict errsync
//
// Every goroutine this package starts (checkpointers, scoring workers)
// must be tied to a stop signal or a WaitGroup.
// dtdvet:strict golife

// Config holds the source parameters.
type Config struct {
	// Sigma is the classification threshold σ: documents below it against
	// every DTD go to the repository.
	Sigma float64
	// Tau is the evolution activation threshold τ of the check phase.
	Tau float64
	// MinDocs is the minimum number of documents classified in a DTD since
	// the last evolution before the check phase may trigger; it prevents
	// evolving on a couple of outliers.
	MinDocs int
	// AutoEvolve runs the evolution phase automatically whenever the check
	// phase triggers. When false, callers poll NeedsEvolution / call
	// EvolveNow themselves.
	AutoEvolve bool
	// Similarity configures the structural similarity measure.
	Similarity similarity.Config
	// Evolve configures the evolution phase.
	Evolve evolve.Config
	// MaxDocBytes bounds the size of one document on the streaming ingest
	// path (and, at the serving layer, the tree path), counting the text
	// its declared entities expand to; 0 means unlimited. Oversized
	// documents are rejected with xmltree.SizeError.
	MaxDocBytes int64
	// MaxChildren bounds the kept children of one element on the streaming
	// path; an element over the budget degrades (its sequence escalates to
	// a set summary) instead of growing per-element state without bound.
	// 0 means unlimited. The budget in force is journaled with each
	// degraded document, so replay reproduces identical statistics.
	MaxChildren int
}

// DefaultConfig returns the thresholds used by the evaluation harness:
// σ = 0.7, τ = 0.25, at least 20 documents between evolutions.
func DefaultConfig() Config {
	return Config{
		Sigma:      0.7,
		Tau:        0.25,
		MinDocs:    20,
		AutoEvolve: true,
		Similarity: similarity.DefaultConfig(),
		Evolve:     evolve.DefaultConfig(),
	}
}

// entry is the per-DTD state: the DTD itself, its recorder (extended DTD)
// and bookkeeping.
type entry struct {
	d *dtd.DTD
	// text is d's journal form, the text every checkpoint keeps, and d is
	// what that text reads back as: registerLocked's parse of it, or an
	// evolved DTD, whose text parses back to it. Status and every
	// checkpoint read text; serializing 1,000 DTDs on each call took ~8 ms.
	text       string
	rec        *record.Recorder
	docs       int // documents classified since last evolution
	evolutions int
}

// Source is the document source: a DTD set, the extended-DTD recorders and
// the repository of unclassified documents.
//
// Lock discipline: mu is held for reading during classification (the DTD
// set and σ are read-mostly) and for writing during every state mutation
// (record, check, evolve, re-classify, trigger actions). gen increments on
// every DTD-set change — AddDTD and each evolution — and lets the
// two-phase Add/AddBatch detect that a similarity computed under the read
// lock is stale.
//
// The discipline below is machine-checked by dtdvet (DESIGN.md §11): the
// guarded_by fields may only be touched with mu held, and every exported
// mutator must journal before its first write (the journaled directive).
// cfg, classifier, tab and metrics are deliberately unguarded: cfg is
// immutable after New, and the other three synchronize internally
// (classifier snapshots its pool, tab and metrics are atomics).
//
// dtdvet:journaled
type Source struct {
	mu         sync.RWMutex
	cfg        Config
	entries    map[string]*entry // dtdvet:guarded_by mu
	classifier *classify.Classifier
	// tab is the per-source symbol table: every classifier pool and every
	// recorder keys its label work by the same dense IDs, and the commit
	// step interns each document's new names (commit.go).
	tab        *intern.Table
	repository []*xmltree.Document // dtdvet:guarded_by mu
	added      int                 // dtdvet:guarded_by mu
	gen        uint64              // dtdvet:guarded_by mu
	triggers   []*trigger.Rule     // dtdvet:guarded_by mu
	store      *docstore.Store     // dtdvet:guarded_by mu
	metrics    *metrics.Ingest
	// wal, when attached, journals every state-changing operation before
	// (in commit order with) its in-memory effect; replaying marks WAL
	// recovery, during which ops re-applied from the log must not be
	// re-journaled. walErr is the sticky durability failure (degraded
	// mode). See durability.go and DESIGN.md §10.
	wal       *wal.Log // dtdvet:guarded_by mu
	walErr    error    // dtdvet:guarded_by mu
	replaying bool     // dtdvet:guarded_by mu
	// journalSink, when set, diverts journalLocked's encoded records into
	// the pointed-at slice instead of appending them to the WAL. The
	// group-commit leader uses it to collect a whole group's records — docs
	// interleaved with the auto-evolutions their applies journal — into one
	// batched append (groupcommit.go).
	journalSink *[][]byte // dtdvet:guarded_by mu
	// retain, when set, floors checkpoint-time WAL truncation: segments at
	// or above retain() survive even when the snapshot covers them. The
	// replication primary pins history its followers have not acknowledged.
	// gcLogf, when set, receives the first segment-removal error of each
	// checkpoint.
	retain func() uint64 // dtdvet:guarded_by mu
	gcLogf func(error)   // dtdvet:guarded_by mu
	// gc is the group-commit queue every commit goes through
	// (groupcommit.go). Unguarded: set once by New, and it synchronizes
	// internally.
	gc *groupCommitter
	// streamers pools the one-pass ingest consumers (stream.go). Unguarded:
	// sync.Pool synchronizes internally.
	streamers sync.Pool
}

// New returns an empty Source.
func New(cfg Config) *Source {
	tab := intern.NewTable()
	classifier := classify.NewWithTable(cfg.Sigma, cfg.Similarity, tab)
	s := &Source{
		cfg:        cfg,
		entries:    make(map[string]*entry),
		classifier: classifier,
		tab:        tab,
		metrics:    new(metrics.Ingest),
	}
	s.gc = &groupCommitter{s: s}
	return s
}

// ErrDTDRoundTrip is AddDTD's refusal of a DTD whose text, the form the
// journal and every checkpoint keep, fails to parse or parses to other
// element declarations. Only a DTD built in Go can be refused: a nil
// model, ANY or EMPTY nested in a group, an element missing from Order or
// listed twice, an attribute default holding both quote characters.
var ErrDTDRoundTrip = errors.New("source: DTD does not read back from its text")

// AddDTD registers a DTD under the given name (initialization phase). It
// replaces any previous DTD with that name and resets its recorder. The
// source registers the parse of d's text, not d, so later changes to d do
// not reach it. A DTD whose text does not parse back to d is refused with
// ErrDTDRoundTrip, and nothing is journaled.
func (s *Source) AddDTD(name string, d *dtd.DTD) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.registerLocked(walOp{Op: "dtd", Name: name, Root: d.Name, Text: d.String()}, d); err != nil {
		return fmt.Errorf("%w: DTD %q: %v", ErrDTDRoundTrip, name, err)
	}
	return nil
}

// registerLocked parses op.Text, the DTD text of a "dtd" record, journals
// op, and registers the parse, rooted at op.Root, under op.Name with a
// fresh recorder. That parse is the one reading of a DTD a source holds:
// AddDTD, replayed records and RestoreAt all register through this step.
// A text that fails to parse, or whose parse is not want (when want is
// non-nil), changes nothing.
// dtdvet:requires mu
func (s *Source) registerLocked(op walOp, want *dtd.DTD) (*entry, error) {
	d, err := dtd.ParseString(op.Text)
	if err == nil && want != nil && !d.Equal(want) {
		err = errors.New("its text declares other elements")
	}
	if err != nil {
		return nil, err
	}
	d.Name = op.Root
	s.journalLocked(op)
	e := &entry{d: d, text: op.Text, rec: record.NewWithTable(d, s.tab)}
	s.entries[op.Name] = e
	s.classifier.Set(op.Name, d)
	s.gen++
	return e, nil
}

// DTD returns a deep copy of the DTD currently registered under name, or
// nil. The copy is stable: later evolutions replace the live declaration,
// and callers must not observe (or cause) mutations of engine state.
func (s *Source) DTD(name string) *dtd.DTD {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if e, ok := s.entries[name]; ok {
		return e.d.Clone()
	}
	return nil
}

// Names returns the registered DTD names, sorted.
func (s *Source) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.names()
}

// dtdvet:requires mu:r
func (s *Source) names() []string {
	out := make([]string, 0, len(s.entries))
	for name := range s.entries { // dtdvet:allow replaydet -- keys sorted below before returning
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// AddResult reports what happened to one added document.
type AddResult struct {
	// DTDName is the DTD the document was classified in ("" when it went
	// to the repository).
	DTDName string
	// Similarity is the best similarity value observed.
	Similarity float64
	// Classified reports whether the similarity reached σ.
	Classified bool
	// Evolved reports whether this addition triggered an evolution.
	Evolved bool
	// Report is the evolution report when Evolved is true.
	Report *evolve.Report
	// Reclassified is the number of repository documents recovered by the
	// evolution.
	Reclassified int
	// Triggered lists the trigger rules (source text) fired by this
	// addition.
	Triggered []string
	// Candidates are the DTDs the classifier actually scored for this
	// document, best first — a handful under the candidate index, never
	// one per registered DTD.
	Candidates []classify.Candidate
}

// Add classifies a document against the DTD set, records it (or stores it
// in the repository), and — with AutoEvolve — runs the check and evolution
// phases.
//
// Add is two-phase: the similarity scoring runs under the read lock (so
// concurrent Adds classify in parallel), then the commit step (commit.go)
// takes the write lock. If the DTD set changed in between (another Add
// evolved a DTD, or AddDTD ran), the document is re-scored under the write
// lock before being recorded.
//
// Classification only looks tags up; the commit interns them, so symbol
// IDs follow journal order.
func (s *Source) Add(doc *xmltree.Document) AddResult {
	start := time.Now() // dtdvet:allow replaydet -- wall clock feeds phase metrics only; never journaled or replayed
	r, journal := s.score(doc)
	defer freeReq(r)
	s.metrics.ObserveClassifyPhase(time.Since(start)) // dtdvet:allow replaydet -- metrics only
	if journal {
		r.encode()
	}
	s.commit(r)
	return r.res
}

// score classifies doc under the read lock, which a panic in the scoring
// releases too, and reports whether its record is to be journaled.
func (s *Source) score(doc *xmltree.Document) (*commitReq, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return newReq(doc, s.classifier.Classify(doc), s.gen), s.journalingLocked()
}

// AddBatch ingests many documents at once: every document is scored under
// one read-lock section, on a worker pool sized to the core count, then
// all results are committed (record/check/evolve/triggers, exactly as
// repeated Adds would) through the group-commit queue, in groups of up to
// DefaultMaxGroup. The returned slice has one AddResult per document, in
// input order.
//
// If a document's classification triggers an evolution mid-batch, later
// documents of the batch are re-scored against the updated DTD set before
// being committed, so the batch is equivalent to a serial Add sequence.
func (s *Source) AddBatch(docs []*xmltree.Document) []AddResult {
	results, _ := s.AddBatchContext(context.Background(), docs)
	return results
}

// AddBatchContext is AddBatch under a context: when ctx is cancelled — a
// disconnected client, a server shutdown — the per-document scoring fan-out
// stops launching new documents, in-flight scorings drain, and the batch
// returns ctx's error with nothing committed. Cancellation is checked
// between documents; a single document's scoring always runs to
// completion. Once the commit phase has begun the batch is applied in full
// (the commit is cheap and must stay equivalent to a serial Add sequence).
// A panic while scoring surfaces here, once the workers have stopped and
// the read lock is released, with nothing committed.
func (s *Source) AddBatchContext(ctx context.Context, docs []*xmltree.Document) ([]AddResult, error) {
	results := make([]AddResult, len(docs))
	if len(docs) == 0 {
		return results, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.metrics.ObserveBatch()

	start := time.Now()
	s.mu.RLock()
	gen := s.gen
	journal := s.journalingLocked()
	cls := make([]classify.Result, len(docs))
	// A worker pool sized to the core count, not one goroutine per
	// document: a large batch must not spawn thousands of goroutines that
	// all contend for the same cores. A worker that panics keeps the panic
	// for the caller and stops.
	workers := min(runtime.GOMAXPROCS(0), len(docs))
	panics := make([]any, workers)
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := range workers {
		go func() {
			defer wg.Done()
			defer func() { panics[w] = recover() }()
			for {
				i := int(next.Add(1))
				if i >= len(docs) || ctx.Err() != nil {
					return
				}
				cls[i] = s.classifier.Classify(docs[i])
			}
		}()
	}
	wg.Wait()
	s.mu.RUnlock()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	s.metrics.ObserveClassifyPhase(time.Since(start))
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// The batch commits in input order, so it stays equivalent to a serial
	// Add sequence; it interleaves with concurrent writers at group
	// granularity. Every request carries the batch's generation, so once
	// an evolution mid-batch moves it, every later document re-scores
	// against the updated set.
	reqs := make([]*commitReq, len(docs))
	for i, doc := range docs {
		reqs[i] = newReq(doc, cls[i], gen)
		if journal {
			reqs[i].encode()
		}
	}
	s.commit(reqs...)
	for i, r := range reqs {
		results[i] = r.res
		freeReq(r)
	}
	return results, nil
}

// Metrics returns a snapshot of the ingest counters (documents classified
// or sent to the repository, evolutions, per-phase latencies), folding in
// the attached WAL's durability counters, the classifier's candidate-index
// counters and the symbol-table size.
func (s *Source) Metrics() metrics.IngestSnapshot {
	snap := s.metrics.Snapshot()
	cs := s.classifier.Stats()
	snap.ClassifyPossible = cs.Possible
	snap.ClassifyCandidates = cs.Candidates
	snap.ClassifyScored = cs.Scored
	snap.ClassifyPruned = cs.Pruned
	snap.ClassifyPruneRatio = cs.PruneRatio()
	snap.InternedSymbols = int64(s.tab.Len())
	s.mu.RLock()
	w := s.wal
	s.mu.RUnlock()
	if w != nil {
		st := w.Stats()
		snap.WALAppends = st.Appends
		snap.WALBytes = st.Bytes
		snap.WALSyncs = st.Syncs
		snap.WALRotations = st.Rotations
		if snap.Added > 0 {
			// The amortized durability cost: well below 1 when group commit
			// folds concurrent writers into shared fsyncs.
			snap.FsyncsPerDoc = float64(st.Syncs) / float64(snap.Added)
		}
	}
	return snap
}

// AddTriggerRule installs one rule of the evolution trigger language, e.g.
//
//	on article when check_ratio > 0.3 and docs >= 50 do evolve, reclassify
//
// Rules are evaluated after every Add, in installation order; "on *"
// watches every DTD. Trigger rules complement (and can replace) the
// built-in AutoEvolve policy.
func (s *Source) AddTriggerRule(src string) error {
	rule, err := trigger.Parse(src)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journalLocked(walOp{Op: "trigger", Text: src})
	s.triggers = append(s.triggers, rule)
	return nil
}

// SetTriggerRules replaces the installed rules with a newline-separated
// rule list ('#' comments allowed).
func (s *Source) SetTriggerRules(src string) error {
	rules, err := trigger.ParseAll(src)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journalLocked(walOp{Op: "triggers", Text: src})
	s.triggers = rules
	return nil
}

// TriggerRules returns the source text of the installed rules.
func (s *Source) TriggerRules() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, len(s.triggers))
	for i, r := range s.triggers {
		out[i] = r.String()
	}
	return out
}

// lockedState adapts the source to the trigger.State interface; it must
// only be used while holding s.mu.
type lockedState struct{ s *Source }

// dtdvet:requires Source.mu:r
func (l lockedState) CheckRatio(name string) float64 {
	if e, ok := l.s.entries[name]; ok {
		return e.rec.CheckRatio()
	}
	return 0
}

// dtdvet:requires Source.mu:r
func (l lockedState) Docs(name string) int {
	if e, ok := l.s.entries[name]; ok {
		return e.docs
	}
	return 0
}

// dtdvet:requires Source.mu:r
func (l lockedState) Repository() int { return len(l.s.repository) }

// dtdvet:requires Source.mu:r
func (l lockedState) Invalidity(name, element string) float64 {
	if e, ok := l.s.entries[name]; ok {
		return e.rec.InvalidityRatio(element)
	}
	return 0
}

// fireTriggers evaluates every installed rule against every DTD and runs
// the actions of those that hold. Callers hold s.mu (write side: trigger
// actions evolve and re-classify).
// dtdvet:requires mu
func (s *Source) fireTriggers(res *AddResult) {
	// Suppressed during replay: every firing that happened live was
	// journaled as its own record ("autoevolve"/"autoreclassify") and is
	// re-applied from the log, not re-derived.
	if len(s.triggers) == 0 || s.replaying {
		return
	}
	state := lockedState{s: s}
	for _, rule := range s.triggers {
		for _, name := range s.names() {
			if !rule.Eval(name, state) {
				continue
			}
			res.Triggered = append(res.Triggered, rule.String())
			for _, action := range rule.Actions {
				switch action {
				case trigger.Evolve:
					report, reclassified, _ := s.evolveLocked(walOp{Op: "autoevolve", Name: name})
					res.Evolved = true
					res.Report = &report
					res.Reclassified += reclassified
				case trigger.Reclassify:
					reclassified, _ := s.reclassifyLocked(walOp{Op: "autoreclassify"})
					res.Reclassified += reclassified
				}
			}
			break // one firing per rule per Add
		}
	}
}

// EnableStore attaches a document store: every subsequently classified
// document is kept in the store under its DTD's name (durably when dir is
// non-empty, in memory otherwise), so that AdaptStored can rewrite the
// stored population after an evolution — the paper's §6 open problem.
// dtdvet:nojournal -- attaching a store changes no replayable state
func (s *Source) EnableStore(dir string, opts ...docstore.Option) error {
	store, err := docstore.Open(dir, opts...)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.store = store
	return nil
}

// CloseStore releases the attached store's files.
// dtdvet:nojournal -- detaching a store changes no replayable state
func (s *Source) CloseStore() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.store == nil {
		return nil
	}
	err := s.store.Close()
	s.store = nil
	return err
}

// StoredDocs returns the stored documents classified in the named DTD.
func (s *Source) StoredDocs(name string) []*xmltree.Document {
	s.mu.RLock()
	store := s.store
	s.mu.RUnlock()
	if store == nil {
		return nil
	}
	return store.Docs(name)
}

// AdaptStored rewrites the documents stored for the named DTD so they
// conform to its current (typically just-evolved) declaration, replacing
// the stored collection. It returns how many documents needed changes.
func (s *Source) AdaptStored(name string, opts adapt.Options) (int, error) {
	s.mu.RLock()
	var d *dtd.DTD
	if e, ok := s.entries[name]; ok {
		// Clone so the adapter never reads a declaration that a concurrent
		// evolution is replacing.
		d = e.d.Clone()
	}
	store := s.store
	s.mu.RUnlock()
	if d == nil {
		return 0, fmt.Errorf("source: no DTD named %q", name)
	}
	if store == nil {
		return 0, fmt.Errorf("source: no document store attached (EnableStore)")
	}
	adapter := adapt.New(d, opts)
	docs := store.Docs(name)
	changed := 0
	out := make([]*xmltree.Document, len(docs))
	for i, doc := range docs {
		adapted, report := adapter.Adapt(doc)
		out[i] = adapted
		if len(report.Changes) > 0 {
			changed++
		}
	}
	if err := store.Replace(name, out); err != nil {
		return changed, err
	}
	return changed, nil
}

// NeedsEvolution returns the names of DTDs whose check-phase condition
// currently exceeds τ (with at least MinDocs documents recorded).
func (s *Source) NeedsEvolution() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []string
	for _, name := range s.names() {
		e := s.entries[name]
		if e.docs >= s.cfg.MinDocs && e.rec.ShouldEvolve(s.cfg.Tau) {
			out = append(out, name)
		}
	}
	return out
}

// EvolveNow forces the evolution phase for the named DTD, returning the
// report and the number of repository documents recovered.
func (s *Source) EvolveNow(name string) (evolve.Report, int, error) {
	return s.evolveOp(walOp{Op: "evolve", Name: name})
}

// evolveOp runs one evolution command — forced, or replayed from the
// journal — under the write lock.
func (s *Source) evolveOp(op walOp) (evolve.Report, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[op.Name]; !ok {
		return evolve.Report{}, 0, fmt.Errorf("source: no DTD named %q", op.Name)
	}
	return s.evolveLocked(op)
}

// evolveLocked runs the evolution phase for the DTD op names and
// re-classifies the repository against the updated DTD set. op is the
// command that fired it; it is journaled with the reclassification's
// outcome before any guarded state changes, so the order is: evolve.Evolve
// (pure over the recorder), installing the evolved DTD in the classifier
// (which synchronizes itself), re-scoring the repository, journaling, and
// only then applying the evolution and the recovered documents. A replayed
// op carries its outcome and skips the re-scoring; an error means that
// outcome does not fit this repository, and nothing was changed. Callers
// hold s.mu.
// dtdvet:requires mu
func (s *Source) evolveLocked(op walOp) (evolve.Report, int, error) {
	if err := s.checkRecoveredLocked(op.Recovered); err != nil {
		return evolve.Report{}, 0, err
	}
	e := s.entries[op.Name]
	evolved, report := evolve.Evolve(e.rec, s.cfg.Evolve)
	s.classifier.Set(op.Name, evolved)
	if op.Recovered == nil {
		op.Recovered = s.rescoreLocked()
	}
	s.journalLocked(op)
	e.d, e.text = evolved, evolved.String()
	e.rec.SetDTD(evolved)
	e.docs = 0
	e.evolutions++
	s.gen++
	s.metrics.ObserveEvolution()
	return report, s.recoverLocked(*op.Recovered), nil
}

// ReclassifyRepository re-classifies every repository document against the
// current DTD set, recording those that now reach σ. It returns how many
// documents were recovered.
func (s *Source) ReclassifyRepository() int {
	n, _ := s.reclassifyOp(walOp{Op: "reclassify"})
	return n
}

// reclassifyOp runs one reclassification command — forced, or replayed
// from the journal — under the write lock.
func (s *Source) reclassifyOp(op walOp) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reclassifyLocked(op)
}

// reclassifyLocked re-scores the repository unless op already carries the
// outcome, journals op with it, and applies it.
// dtdvet:requires mu
func (s *Source) reclassifyLocked(op walOp) (int, error) {
	if err := s.checkRecoveredLocked(op.Recovered); err != nil {
		return 0, err
	}
	if op.Recovered == nil {
		op.Recovered = s.rescoreLocked()
	}
	s.journalLocked(op)
	return s.recoverLocked(*op.Recovered), nil
}

// rescoreLocked classifies every repository document against the current
// DTD set and returns those that reach σ, in repository order. The result
// is never nil: recovering nothing is an outcome too.
// dtdvet:requires mu:r
func (s *Source) rescoreLocked() *[]recovery {
	out := []recovery{}
	for i, doc := range s.repository {
		if cls := s.classifier.Classify(doc); cls.Classified {
			out = append(out, recovery{Pos: i, DTD: cls.DTDName})
		}
	}
	return &out
}

// checkRecoveredLocked verifies that a journaled reclassification outcome
// fits this repository: positions ascending and inside it, each naming a
// registered DTD. nil (nothing journaled) passes.
// dtdvet:requires mu:r
func (s *Source) checkRecoveredLocked(recovered *[]recovery) error {
	if recovered == nil {
		return nil
	}
	prev := -1
	for _, r := range *recovered {
		if r.Pos <= prev || r.Pos >= len(s.repository) {
			return fmt.Errorf("recovered repository position %d out of order or past the repository's %d documents", r.Pos, len(s.repository))
		}
		if _, ok := s.entries[r.DTD]; !ok {
			return fmt.Errorf("recovered document classified in unregistered DTD %q", r.DTD)
		}
		prev = r.Pos
	}
	return nil
}

// recoverLocked records the recovered repository documents in their DTDs,
// in ascending position, and keeps the rest in the repository.
// dtdvet:requires mu
func (s *Source) recoverLocked(recovered []recovery) int {
	var remaining []*xmltree.Document
	next := 0
	for i, doc := range s.repository {
		if next < len(recovered) && recovered[next].Pos == i {
			e := s.entries[recovered[next].DTD]
			intern.InternDocument(s.tab, doc.Root)
			e.rec.Record(doc)
			e.docs++
			next++
			continue
		}
		remaining = append(remaining, doc)
	}
	s.repository = remaining
	s.metrics.ObserveReclassified(len(recovered))
	return len(recovered)
}

// RepositorySize returns the number of unclassified documents currently
// held in the repository.
func (s *Source) RepositorySize() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.repository)
}

// Repository returns a copy of the repository's documents.
func (s *Source) Repository() []*xmltree.Document {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]*xmltree.Document(nil), s.repository...)
}

// DTDStatus summarizes the state of one DTD in the source.
type DTDStatus struct {
	Name       string
	Docs       int     // documents classified since the last evolution
	CheckRatio float64 // the check-phase quantity against τ
	Evolutions int     // how many evolutions have run
	Model      string  // serialized DTD
}

// Status returns a summary of every DTD in the source.
func (s *Source) Status() []DTDStatus {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []DTDStatus
	for _, name := range s.names() {
		e := s.entries[name]
		out = append(out, DTDStatus{
			Name:       name,
			Docs:       e.docs,
			CheckRatio: e.rec.CheckRatio(),
			Evolutions: e.evolutions,
			Model:      e.text,
		})
	}
	return out
}

// snapshotVersion is the current checkpoint codec version. Version 2 added
// the interned symbol list. Snapshots written while classification
// signatures were persisted also carry a "signatures" field; decoding
// ignores it, and Restore rebuilds every signature from the DTDs.
const snapshotVersion = 2

// snapshot is the JSON checkpoint format.
type snapshot struct {
	Version    int                         `json:"version,omitempty"`
	DTDs       map[string]string           `json:"dtds"`
	Roots      map[string]string           `json:"roots"`
	Docs       map[string]int              `json:"docs"`
	Evolutions map[string]int              `json:"evolutions"`
	Recorders  map[string]*record.Snapshot `json:"recorders"`
	Repository []string                    `json:"repository"`
	Added      int                         `json:"added"`
	// Triggers is the source text of the installed trigger rules, so a
	// restored service keeps firing them.
	Triggers []string `json:"triggers,omitempty"`
	// Symbols is the interned label table in ID order (ID 1 first): Restore
	// re-interns it before anything else, so every interned ID in the
	// snapshot — in particular the recorders' — stays valid and later
	// symbols get the IDs the live source gave them.
	Symbols []string `json:"symbols,omitempty"`
	// WALSeq is the first WAL segment NOT covered by this snapshot:
	// recovery replays only segments >= WALSeq on top (see Checkpoint;
	// 0 for snapshots taken without a WAL).
	WALSeq uint64 `json:"wal_seq,omitempty"`
}

// Snapshot serializes the source state (DTD set, extended-DTD statistics,
// repository, trigger rules) to JSON, so a long-lived service can
// checkpoint and resume.
func (s *Source) Snapshot() ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.snapshotLocked(0)
}

// snapshotLocked marshals the state with the given WAL position. Callers
// hold s.mu (read side suffices). Snapshot bytes are compared across
// primary/replica pairs and across recover-checkpoint cycles, so the
// encoder must be byte-deterministic.
// dtdvet:requires mu:r
// dtdvet:replayroot
func (s *Source) snapshotLocked(walSeq uint64) ([]byte, error) {
	snap := snapshot{
		Version:    snapshotVersion,
		DTDs:       make(map[string]string),
		Roots:      make(map[string]string),
		Docs:       make(map[string]int),
		Evolutions: make(map[string]int),
		Recorders:  make(map[string]*record.Snapshot),
		Added:      s.added,
		Symbols:    s.tab.Names(),
		WALSeq:     walSeq,
	}
	// Iterate in sorted-name order, not map order: the per-entry calls
	// (record snapshots) must run in the same order on every node so any
	// state they touch — and any future non-map field derived from them —
	// keeps checkpoint bytes identical across primary/replica pairs and
	// recover-checkpoint cycles.
	for _, name := range s.names() {
		e := s.entries[name]
		snap.DTDs[name] = e.text
		snap.Roots[name] = e.d.Name
		snap.Docs[name] = e.docs
		snap.Evolutions[name] = e.evolutions
		snap.Recorders[name] = e.rec.Snapshot()
	}
	for _, doc := range s.repository {
		snap.Repository = append(snap.Repository, doc.String())
	}
	for _, r := range s.triggers {
		snap.Triggers = append(snap.Triggers, r.String())
	}
	return json.Marshal(snap)
}

// Restore rebuilds a Source from a Snapshot produced with the same Config.
func Restore(cfg Config, data []byte) (*Source, error) {
	s, _, err := RestoreAt(cfg, data)
	return s, err
}

// RestoreAt is Restore that also returns the WAL position the snapshot
// covers: the first segment whose records are not folded into it (0 for
// snapshots taken without a WAL — replay everything). Recovery, and a
// follower bootstrapping from a shipped checkpoint, resume replay there.
// dtdvet:allow locks -- builds a fresh Source not yet shared with any goroutine
func RestoreAt(cfg Config, data []byte) (*Source, uint64, error) {
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, 0, fmt.Errorf("source: decoding snapshot: %w", err)
	}
	s := New(cfg)
	if snap.Version >= 2 && len(snap.Symbols) > 0 {
		// Re-intern the saved symbols first, in their original ID order
		// (InternAll assigns dense IDs in slice order on a fresh table), so
		// the recorders' interned IDs resolve to the same names.
		s.tab.InternAll(snap.Symbols)
	}
	// Restore DTDs in sorted-name order, not map order: building a
	// recorder or classifier entry interns labels into the shared symbol
	// table, and for pre-v2 snapshots (no saved Symbols slice) the
	// iteration order IS the ID assignment order. Two restores of the same
	// snapshot must produce identical tables, or their next checkpoints —
	// which a follower compares byte-for-byte — diverge.
	names := make([]string, 0, len(snap.DTDs))
	for name := range snap.DTDs { // dtdvet:allow replaydet -- keys sorted below before any state is touched
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		e, err := s.registerLocked(walOp{Op: "dtd", Name: name, Root: snap.Roots[name], Text: snap.DTDs[name]}, nil)
		if err != nil {
			return nil, 0, fmt.Errorf("source: snapshot DTD %q: %w", name, err)
		}
		e.docs, e.evolutions = snap.Docs[name], snap.Evolutions[name]
		if rs := snap.Recorders[name]; rs != nil {
			e.rec.Restore(rs)
		}
	}
	for _, src := range snap.Repository {
		doc, err := xmltree.ParseString(src)
		if err != nil {
			return nil, 0, fmt.Errorf("source: snapshot repository document: %w", err)
		}
		s.repository = append(s.repository, doc)
	}
	for _, src := range snap.Triggers {
		rule, err := trigger.Parse(src)
		if err != nil {
			return nil, 0, fmt.Errorf("source: snapshot trigger rule: %w", err)
		}
		s.triggers = append(s.triggers, rule)
	}
	s.added = snap.Added
	return s, snap.WALSeq, nil
}
