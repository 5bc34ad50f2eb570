package similarity

import (
	"cmp"
	"slices"
	"sync"

	"dtdevolve/internal/dtd"
	"dtdevolve/internal/intern"
	"dtdevolve/internal/xmltree"
)

// sharedTables holds the per-DTD memo tables shared by every Evaluator of a
// Pool: the symbol table, the declarations by interned ID, the required
// weights of the declared elements, the compiled alignment automata, and
// the interned label sets of mixed models. Each per-DTD table is sized by
// the DTD, not by the symbol table all the DTDs of a source share. All are
// built once — the declarations on first use, the rest at Pool
// construction — and are read-only afterwards (the Table extends itself
// internally and is safe for concurrent use), so pooled evaluators consult
// them without locking.
type sharedTables struct {
	tab *intern.Table
	// decls are the declared elements, by ascending interned ID. Only the
	// streaming evaluator reads them, so the pool's first GetStream builds
	// them (declOnce) and a pool that never streams does without.
	declOnce sync.Once
	decls    []declRef
	req      map[string]float64
	autos    map[*dtd.Content]automaton
	mixed    map[*dtd.Content]*labelSet
}

// declRef is one declared element: the interned ID of its name and its
// model (nil for ANY).
type declRef struct {
	id    int32
	model *dtd.Content
}

// indexDecls fills the declaration table from the IDs InternDTD gave d's
// names. They were interned before the pool was built, so a streamed
// document's provisional ID for a name the symbol table lacked when the
// document started is none of them, and reads as undeclared.
func (t *sharedTables) indexDecls(d *dtd.DTD) {
	t.decls = make([]declRef, 0, len(d.Elements))
	for name, model := range d.Elements { // dtdvet:allow replaydet -- sorted by ID below
		if id := t.tab.ID(name); id != intern.None {
			t.decls = append(t.decls, declRef{id: id, model: model})
		}
	}
	slices.SortFunc(t.decls, func(a, b declRef) int { return cmp.Compare(a.id, b.id) })
}

// decl returns the model declared for the element with interned ID id,
// and whether the DTD declares it.
// dtdvet:noalloc
func (t *sharedTables) decl(id int32) (*dtd.Content, bool) {
	i, ok := slices.BinarySearchFunc(t.decls, id, compareDeclID)
	if !ok {
		return nil, false
	}
	return t.decls[i].model, true
}

func compareDeclID(r declRef, id int32) int { return cmp.Compare(r.id, id) }

// Pool hands out Evaluators for one DTD so that many goroutines can score
// documents against it concurrently. The evaluator memo structures are
// unsynchronized by design (they sit on the scoring hot path); the pool
// keeps the expensive, DTD-derived tables — required weights, compiled
// alignment automata and mixed-model alphabets — in a shared read-only
// structure precompiled at construction, and gives each borrowed evaluator
// its own private memos for anything not precompiled.
//
// Get/Put follow the usual sync.Pool discipline; Evaluate and GlobalSim
// wrap a borrow-score-return cycle for the common case.
type Pool struct {
	d      *dtd.DTD
	shared *sharedTables
	bound  Bound
	pool   sync.Pool
	// streams pools StreamEvals (each owning a borrowed evaluator) for the
	// streaming ingest path; see stream.go.
	streams sync.Pool
}

// NewPool precompiles the alignment automata and required-weight table of d
// and returns a pool of evaluators sharing them, interning d's labels into
// a fresh symbol table. The DTD must not be mutated while the pool is in
// use; register a fresh pool after an evolution instead.
func NewPool(d *dtd.DTD, cfg Config) *Pool {
	return NewPoolWithTable(d, cfg, intern.NewTable())
}

// NewPoolWithTable is NewPool with a caller-provided symbol table, so one
// source can share a single table across the pools of all its DTDs and its
// recorders — IDs stamped on a document stay valid everywhere.
func NewPoolWithTable(d *dtd.DTD, cfg Config, tab *intern.Table) *Pool {
	intern.InternDTD(tab, d)
	seed := newEvaluator(d, cfg, tab)
	seed.precompile()
	shared := &sharedTables{
		tab:   tab,
		req:   seed.reqMemo,
		autos: seed.autoMemo,
		mixed: seed.mixedMemo,
	}
	p := &Pool{d: d, shared: shared, bound: computeBound(d, cfg, seed)}
	p.pool.New = func() any {
		e := newEvaluator(d, cfg, tab)
		e.shared = shared
		return e
	}
	return p
}

// isElementContent reports whether elementTriple would compile an alignment
// automaton for model (i.e. it is regular element content, not EMPTY, ANY,
// (#PCDATA) or mixed).
func isElementContent(m *dtd.Content) bool {
	if m == nil {
		return false
	}
	switch m.Kind {
	case dtd.Any, dtd.Empty, dtd.PCDATA:
		return false
	}
	return !m.IsMixed()
}

// DTD returns the DTD the pool scores against.
func (p *Pool) DTD() *dtd.DTD { return p.d }

// Table returns the symbol table shared by the pool's evaluators.
func (p *Pool) Table() *intern.Table { return p.shared.tab }

// Get borrows an evaluator. Return it with Put when done; evaluators must
// not be used concurrently or after Put.
func (p *Pool) Get() *Evaluator { return p.pool.Get().(*Evaluator) }

// Put returns a borrowed evaluator to the pool. Evaluators built for a
// different DTD are dropped.
func (p *Pool) Put(e *Evaluator) {
	if e != nil && e.d == p.d {
		p.pool.Put(e)
	}
}

// Evaluate scores root with a pooled evaluator. Safe for concurrent use.
func (p *Pool) Evaluate(root *xmltree.Node) Result {
	e := p.Get()
	defer p.Put(e)
	return e.Evaluate(root)
}

// GlobalSim returns only the global degree of Evaluate. Safe for concurrent
// use.
func (p *Pool) GlobalSim(root *xmltree.Node) float64 {
	return p.Evaluate(root).Global
}
