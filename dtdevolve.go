// Package dtdevolve evolves a set of DTDs according to a dynamic set of
// XML documents, implementing Bertino, Guerrini, Mesiti & Tosetto (EDBT
// 2002 Workshops).
//
// A Source holds a set of DTDs describing the documents of an XML database.
// Each added document is classified against the set using a numeric
// structural-similarity measure (instead of a rigid boolean validator);
// compact structural statistics of classified documents accumulate in an
// "extended DTD", and once enough documents deviate from a DTD, the
// declaration of each drifting element is rewritten — guided by association
// rules mined over the observed child structures — so the schema tracks the
// actual document population.
//
// # Quick start
//
//	d, _ := dtdevolve.ParseDTDString(`
//	  <!ELEMENT article (title, body)>
//	  <!ELEMENT title (#PCDATA)>
//	  <!ELEMENT body (#PCDATA)>`)
//	d.Name = "article"
//
//	src := dtdevolve.NewSource(dtdevolve.DefaultConfig())
//	if err := src.AddDTD("article", d); err != nil {
//	    log.Fatal(err)
//	}
//	for _, xml := range corpus {
//	    doc, _ := dtdevolve.ParseDocumentString(xml)
//	    res := src.Add(doc) // classify + record (+ evolve when triggered)
//	    if res.Evolved {
//	        fmt.Println("schema evolved:", src.DTD("article"))
//	    }
//	}
//
// The subpackages are wired together by this facade; the exported aliases
// below are the supported API surface.
package dtdevolve

import (
	"io"

	"dtdevolve/internal/adapt"
	"dtdevolve/internal/classify"
	"dtdevolve/internal/dtd"
	"dtdevolve/internal/evolve"
	"dtdevolve/internal/record"
	"dtdevolve/internal/shard"
	"dtdevolve/internal/similarity"
	"dtdevolve/internal/source"
	"dtdevolve/internal/thesaurus"
	"dtdevolve/internal/validate"
	"dtdevolve/internal/wal"
	"dtdevolve/internal/xmltree"
	"dtdevolve/internal/xsd"
	"dtdevolve/internal/xtract"
)

// Core data model.
type (
	// Document is a parsed XML document.
	Document = xmltree.Document
	// Node is a vertex of a document tree.
	Node = xmltree.Node
	// Doctype is a parsed <!DOCTYPE> declaration.
	Doctype = xmltree.Doctype
	// DTD is a parsed document type definition.
	DTD = dtd.DTD
	// Content is a node of a DTD content model.
	Content = dtd.Content
)

// Lifecycle engine.
type (
	// Source is the document source with its DTD set, extended-DTD
	// statistics, repository, and automatic evolution.
	Source = source.Source
	// Config parameterizes a Source (σ, τ, similarity and evolution
	// settings).
	Config = source.Config
	// AddResult reports the classification (and possible evolution)
	// outcome for one added document.
	AddResult = source.AddResult
	// DTDStatus summarizes one DTD's state inside a Source.
	DTDStatus = source.DTDStatus
)

// Component types for advanced use.
type (
	// SimilarityConfig parameterizes the structural similarity measure.
	SimilarityConfig = similarity.Config
	// SimilarityResult carries global and local degrees and the (p, m, c)
	// triple.
	SimilarityResult = similarity.Result
	// EvolveConfig parameterizes the evolution phase (ψ, µ, confidence).
	EvolveConfig = evolve.Config
	// EvolveReport describes what an evolution run changed.
	EvolveReport = evolve.Report
	// ElementChange is one entry of an EvolveReport.
	ElementChange = evolve.ElementChange
	// Violation is a single validation failure.
	Violation = validate.Violation
	// Classifier matches documents against a DTD set by similarity.
	Classifier = classify.Classifier
	// ClassifyResult is a Classifier outcome.
	ClassifyResult = classify.Result
	// Recorder accumulates extended-DTD statistics for one DTD.
	Recorder = record.Recorder
)

// DefaultConfig returns the source configuration used throughout the
// paper reproduction: σ = 0.7, τ = 0.25, ψ = 0.15, µ = 0.2.
func DefaultConfig() Config { return source.DefaultConfig() }

// NewSource returns an empty document source.
func NewSource(cfg Config) *Source { return source.New(cfg) }

// RestoreSource rebuilds a Source from a Snapshot checkpoint.
func RestoreSource(cfg Config, snapshot []byte) (*Source, error) {
	return source.Restore(cfg, snapshot)
}

// Crash-safe durability (DESIGN.md §10): a write-ahead log journals every
// state-changing operation, background checkpoints bound replay time, and
// recovery tolerates torn and corrupt log tails.
type (
	// WAL is a segmented, CRC-framed append-only log.
	WAL = wal.Log
	// WALOptions configures segment size and fsync policy.
	WALOptions = wal.Options
	// SyncPolicy selects when appended records are fsynced.
	SyncPolicy = wal.SyncPolicy
	// RecoveryInfo describes what RecoverSource rebuilt the state from.
	RecoveryInfo = source.RecoveryInfo
)

// Fsync policies for WALOptions.Sync.
const (
	SyncInterval = wal.SyncInterval
	SyncAlways   = wal.SyncAlways
	SyncOff      = wal.SyncOff
)

// OpenWAL opens (creating if needed) the write-ahead log at dir. Attach it
// with Source.AttachWAL to journal every subsequent mutation.
func OpenWAL(dir string, opts WALOptions) (*WAL, error) { return wal.Open(dir, opts) }

// ParseSyncPolicy parses "always", "interval" or "off".
func ParseSyncPolicy(s string) (SyncPolicy, error) { return wal.ParseSyncPolicy(s) }

// RecoverSource rebuilds a Source from an optional checkpoint (nil: start
// empty) plus the write-ahead log at walDir — truncating a torn tail and
// quarantining corruption — then reattaches the log so the recovered source
// is immediately durable again.
func RecoverSource(cfg Config, snapshot []byte, walDir string, opts WALOptions) (*Source, RecoveryInfo, error) {
	return source.Recover(cfg, snapshot, walDir, opts)
}

// Sharded ingest (DESIGN.md §13): partition the document stream across N
// fully independent Sources, each with its own lock, WAL directory,
// group-commit queue and checkpointer, routed by rendezvous hashing on a
// stable document key.
type (
	// ShardRouter routes documents across N independent Source shards.
	ShardRouter = shard.Router
	// ShardOptions sets the shard count and the rendezvous hash seed.
	ShardOptions = shard.Options
	// ShardStatus is one shard's health and volume summary.
	ShardStatus = shard.ShardStatus
	// ShardDegradedError reports an operation refused because a specific
	// shard is in the sticky degraded (read-only) state.
	ShardDegradedError = shard.DegradedError
)

// NewShardRouter returns a router over opts.Shards fresh in-memory shards.
func NewShardRouter(cfg Config, opts ShardOptions) *ShardRouter {
	return shard.New(cfg, opts)
}

// RecoverShardRouter rebuilds a durable router from dir: the manifest fixes
// the shard count and hash seed (a changed count is a configuration error —
// resharding requires migration), and each shard recovers in parallel from
// its own checkpoint plus WAL tail, then reattaches its log.
func RecoverShardRouter(cfg Config, dir string, walOpts WALOptions, opts ShardOptions) (*ShardRouter, []RecoveryInfo, error) {
	return shard.Recover(cfg, dir, walOpts, opts)
}

// ParseDocument reads an XML document from r.
func ParseDocument(r io.Reader) (*Document, error) { return xmltree.Parse(r) }

// ParseDocumentString parses an XML document held in a string.
func ParseDocumentString(s string) (*Document, error) { return xmltree.ParseString(s) }

// ParseDocumentFile parses the XML document stored at path.
func ParseDocumentFile(path string) (*Document, error) { return xmltree.ParseFile(path) }

// ParseDTD reads DTD declarations from r.
func ParseDTD(r io.Reader) (*DTD, error) { return dtd.Parse(r) }

// ParseDTDString parses DTD declarations held in a string.
func ParseDTDString(s string) (*DTD, error) { return dtd.ParseString(s) }

// ParseDTDFile parses the DTD stored at path.
func ParseDTDFile(path string) (*DTD, error) { return dtd.ParseFile(path) }

// DocumentDTD extracts the DTD embedded in a document's internal DOCTYPE
// subset, returning nil when the document carries none.
func DocumentDTD(doc *Document) (*DTD, error) {
	if doc == nil || doc.Doctype == nil || doc.Doctype.InternalSubset == "" {
		return nil, nil
	}
	d, err := dtd.ParseString(doc.Doctype.InternalSubset)
	if err != nil {
		return nil, err
	}
	d.Name = doc.Doctype.Name
	return d, nil
}

// Validate returns all violations of doc against d; an empty slice means
// the document is valid.
func Validate(doc *Document, d *DTD) []Violation {
	return validate.New(d).ValidateDocument(doc)
}

// Similarity returns the global structural similarity of doc against d in
// [0, 1], with the default measure configuration. Validity coincides with
// similarity 1.
func Similarity(doc *Document, d *DTD) float64 {
	return similarity.Global(doc.Root, d)
}

// SimilarityDetail returns global and local degrees and the (plus, minus,
// common) triple under a custom configuration.
func SimilarityDetail(doc *Document, d *DTD, cfg SimilarityConfig) SimilarityResult {
	return similarity.NewEvaluator(d, cfg).Evaluate(doc.Root)
}

// DefaultSimilarityConfig returns the default measure parameters.
func DefaultSimilarityConfig() SimilarityConfig { return similarity.DefaultConfig() }

// NewClassifier returns a similarity classifier with threshold σ.
func NewClassifier(sigma float64, cfg SimilarityConfig) *Classifier {
	return classify.New(sigma, cfg)
}

// InferDTD infers a DTD from scratch for a set of documents sharing a root
// element (the XTRACT-style baseline).
func InferDTD(docs []*Document) (*DTD, error) { return xtract.Infer(docs) }

// Thesaurus generalizes tag equality to tag similarity (the paper's §6
// extension): synonym classes and weighted related-term pairs. Install it
// via SimilarityConfig.TagSimilarity = th.SimilarityFunc().
type Thesaurus = thesaurus.Thesaurus

// NewThesaurus returns an empty thesaurus.
func NewThesaurus() *Thesaurus { return thesaurus.New() }

// LoadThesaurus reads a thesaurus in the line format
//
//	author = writer = byline
//	price ~ cost : 0.8
func LoadThesaurus(r io.Reader) (*Thesaurus, error) { return thesaurus.Load(r) }

// LoadThesaurusString is LoadThesaurus over a string.
func LoadThesaurusString(s string) (*Thesaurus, error) { return thesaurus.LoadString(s) }

// DefaultEvolveConfig returns the default evolution parameters.
func DefaultEvolveConfig() EvolveConfig { return evolve.DefaultConfig() }

// EvolveOnce records the documents against d and runs a single evolution
// phase, returning the evolved DTD and the per-element report. It is the
// one-shot batch form of the Source lifecycle.
func EvolveOnce(d *DTD, docs []*Document, cfg EvolveConfig) (*DTD, EvolveReport) {
	rec := record.New(d)
	for _, doc := range docs {
		rec.Record(doc)
	}
	return evolve.Evolve(rec, cfg)
}

// Document adaptation (the paper's §6 open problem: adapting stored
// documents to the structure prescribed by the evolved DTDs).
type (
	// Adapter transforms documents to conform to a DTD.
	Adapter = adapt.Adapter
	// AdaptOptions configures an Adapter.
	AdaptOptions = adapt.Options
	// AdaptReport records the transformations applied to one document.
	AdaptReport = adapt.Report
)

// NewAdapter returns an Adapter for d.
func NewAdapter(d *DTD, opts AdaptOptions) *Adapter { return adapt.New(d, opts) }

// DefaultAdaptOptions returns full adaptation: drop extras, insert missing
// mandatory elements.
func DefaultAdaptOptions() AdaptOptions { return adapt.DefaultOptions() }

// XML Schema support (the paper's §6 extension to XSD evolution).
type (
	// Schema is a structural XSD-subset schema.
	Schema = xsd.Schema
)

// DTDToSchema converts a DTD to the XSD subset (lossless for the
// structural content).
func DTDToSchema(d *DTD) *Schema { return xsd.FromDTD(d) }

// SchemaToDTD converts an XSD-subset schema to a DTD; the notes report
// occurrence ranges DTDs cannot express exactly.
func SchemaToDTD(s *Schema) (*DTD, []string) { return xsd.ToDTD(s) }

// ParseSchema reads an XSD document (the supported subset) from r.
func ParseSchema(r io.Reader) (*Schema, error) { return xsd.Parse(r) }

// EvolveSchema adapts a schema to a document corpus via the DTD evolution
// engine (one-shot batch form).
func EvolveSchema(s *Schema, docs []*Document, cfg EvolveConfig) (*Schema, EvolveReport, []string) {
	return xsd.Evolve(s, docs, cfg)
}

// CheckDeterminism returns, per element, the XML 1.0 determinism conflicts
// of the DTD's content models; an empty map means every declaration is
// deterministic. Evolved DTDs — in particular misc-window merges — may be
// nondeterministic; strictly conforming XML processors reject such models,
// while this library's validator handles them.
func CheckDeterminism(d *DTD) map[string][]string { return validate.DTDDeterminism(d) }
