package main

import (
	"fmt"
	"math/rand"

	"dtdevolve/internal/dtd"
	"dtdevolve/internal/gen"
	"dtdevolve/internal/similarity"
	"dtdevolve/internal/xmltree"
)

// workload is one traffic mix: the server's flags, the load shape, and the
// generator of its DTDs and documents.
type workload struct {
	name  string
	flags serverFlags
	// writers is the number of POST /documents connections.
	writers int
	// rate is the open-loop document rate per second.
	rate float64
	// readRate, when set, adds one connection polling GET /status at this
	// rate inside the window, if the writers leave a connection free.
	readRate float64
	// stream sends POST /documents?stream=1 with an X-Doc-Key header, and
	// guards that every document took the streaming path and that the
	// window fsynced.
	stream bool
	// recoveries is how many copies of the data directory are recovered;
	// recover_s is the median.
	recoveries int
	// sample is how many of the setup's warm-up documents are checked
	// against an offline exhaustive classification.
	sample int
	corpus func(seed int64, window int) *corpus
	// minPruneRatio and evolve are the other workload-shape guards: the
	// window must skip at least that share of the possible alignments, and
	// must evolve over a non-empty repository.
	minPruneRatio float64
	evolve        bool
}

// dtdSpec is one DTD registered with PUT /dtds/{name}?root=root.
type dtdSpec struct {
	name, root, text string
}

// corpus is everything a run sends, generated from the seed before the
// server is built.
type corpus struct {
	dtds []dtdSpec
	// warm are the setup documents, docs the window documents; the window
	// cycles through docs when it needs more than were generated.
	warm, docs [][]byte
}

// doc returns the body of window request i.
func (c *corpus) doc(i int) []byte { return c.docs[i%len(c.docs)] }

const (
	// registryRate is about a sixth of the closed-loop capacity of
	// registry-1k with two writers (about 3,000 documents per second on a
	// 2-core Intel Xeon VM at the commit that introduced this benchmark).
	// At a half and at a third of capacity, CPU taken by co-tenants of the
	// VM was enough to grow a backlog in some runs.
	registryRate = 500
	// driftRate is the single writer's rate on drift; driftReadRate the
	// reader's. A GET /status takes about twice as long as an add; at the
	// writer's rate, reads kept the server busy for a third of the window.
	driftRate     = 300
	driftReadRate = 100
	// streamRate is about a tenth of the closed-loop capacity of
	// durable-stream with two writers (100 to 270 documents per second on
	// the same VM). In a closed loop, docs_per_s followed how often the
	// host let both virtual cores run at once, and spread by over a
	// quarter between runs on a host whose speed per core stayed within 4%.
	streamRate = 25
)

var workloads = []*workload{
	{
		name:          "registry-1k",
		flags:         serverFlags{shards: 1, fsync: "interval"},
		writers:       2,
		rate:          registryRate,
		recoveries:    5,
		sample:        16,
		corpus:        registryCorpus,
		minPruneRatio: 0.9,
	},
	{
		name:       "drift",
		flags:      serverFlags{shards: 1, fsync: "interval", tau: 0.1, minDocs: 10},
		writers:    1,
		rate:       driftRate,
		readRate:   driftReadRate,
		recoveries: 5,
		corpus:     driftCorpus,
		evolve:     true,
	},
	{
		name:       "durable-stream",
		flags:      serverFlags{shards: 2, fsync: "always", groupCommit: true},
		writers:    2,
		rate:       streamRate,
		recoveries: 3,
		stream:     true,
		corpus:     streamCorpus,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func spec(name string, d *dtd.DTD) dtdSpec {
	return dtdSpec{name: name, root: d.Name, text: d.String()}
}

func body(doc *xmltree.Document) []byte { return []byte(doc.String()) }

// registryFamily is the base of registry-1k's version family: the
// documents' schema, whose root tag the 94 unrelated same-root DTDs share.
const registryFamily = `
<!ELEMENT hub (head, section+)>
<!ELEMENT head (title, meta*)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT meta EMPTY>
<!ELEMENT section (heading?, (para | list)*)>
<!ELEMENT heading (#PCDATA)>
<!ELEMENT para (#PCDATA)>
<!ELEMENT list (item+)>
<!ELEMENT item (#PCDATA)>`

// registryMinBytes and registryMaxBytes bound a registry-1k document's
// size, around the family base's mean instance of about 205 bytes.
// Unbounded, the mean document size, and with it mb_per_s and the work of
// a window, moved by ±20% with how far the seed's drifted versions grew;
// bounded, by ±3%.
const registryMinBytes, registryMaxBytes = 150, 270

// registrySchemaSeed draws registry-1k's DTDs; the run's seed draws every
// document. With the DTDs drawn from the run's seed too, how many of the 94
// same-root DTDs a document had to be aligned with, and so the cost of a
// request and of its replay, moved with the seed: add_p50_ms and recover_s
// spread by a fifth to a quarter over seeds on a steady host.
const registrySchemaSeed = 1

// registryCorpus registers 1,000 DTDs shaped like BenchmarkClassifyManyDTDs
// — 900 random DTDs with distinct roots, 94 random DTDs sharing the
// documents' root tag, and a family of six versions (a fixed base and five
// followable gen.Drift successors) — and sends lightly mutated instances of
// the family versions. The DTDs are drawn from registrySchemaSeed and the
// base is fixed, so that document sizes, and with them the cost of a
// request, do not hinge on the seed.
func registryCorpus(seed int64, window int) *corpus {
	g := gen.New(gen.DefaultConfig(seed))
	schemas := gen.New(gen.DefaultConfig(registrySchemaSeed))
	c := &corpus{}
	for i := 0; i < 900; i++ {
		c.dtds = append(c.dtds, spec(fmt.Sprintf("solo%03d", i), schemas.RandomDTD(fmt.Sprintf("s%03d", i), 6)))
	}
	for i := 0; i < 94; i++ {
		c.dtds = append(c.dtds, spec(fmt.Sprintf("hub%02d", i), rootedAs(schemas.RandomDTD(fmt.Sprintf("h%02d", i), 6), "hub")))
	}
	versions := followableDrift(schemas, mustParse(registryFamily), 6, 2)
	for i, d := range versions {
		c.dtds = append(c.dtds, spec(fmt.Sprintf("family%02d", i), d))
	}
	pick := rand.New(rand.NewSource(seed))
	for i := 0; i < 200+window; i++ {
		b := mutated(g, versions[pick.Intn(len(versions))], 0.5, registryMinBytes, registryMaxBytes)
		if i < 200 {
			c.warm = append(c.warm, b)
		} else {
			c.docs = append(c.docs, b)
		}
	}
	return c
}

// mustParse parses a constant DTD whose first declaration is its root.
func mustParse(text string) *dtd.DTD {
	d, err := dtd.ParseString(text)
	if err != nil {
		panic(err) // a constant
	}
	d.Name = d.Order[0]
	return d
}

// rootedAs renames d's root element to root, so its documents carry that
// root tag.
func rootedAs(d *dtd.DTD, root string) *dtd.DTD {
	old := d.Name
	d.Elements[root] = d.Elements[old]
	delete(d.Elements, old)
	for j, n := range d.Order {
		if n == old {
			d.Order[j] = root
		}
	}
	d.Name = root
	return d
}

// driftBases are the schemas drift's families start from, one DTD each.
var driftBases = []string{`
<!ELEMENT feed (channel)>
<!ELEMENT channel (name, entry*)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT entry (headline, when, summary?)>
<!ELEMENT headline (#PCDATA)>
<!ELEMENT when (#PCDATA)>
<!ELEMENT summary (#PCDATA)>`, `
<!ELEMENT doc (head, section+)>
<!ELEMENT head (title, meta*)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT meta EMPTY>
<!ELEMENT section (heading?, (para | list)*)>
<!ELEMENT heading (#PCDATA)>
<!ELEMENT para (#PCDATA)>
<!ELEMENT list (item+)>
<!ELEMENT item (#PCDATA)>`, `
<!ELEMENT article (headline, byline?, body)>
<!ELEMENT headline (#PCDATA)>
<!ELEMENT byline (#PCDATA)>
<!ELEMENT body (para+)>
<!ELEMENT para (#PCDATA)>`, `
<!ELEMENT event (ts, level, msg)>
<!ELEMENT ts (#PCDATA)>
<!ELEMENT level (#PCDATA)>
<!ELEMENT msg (#PCDATA)>`, `
<!ELEMENT catalog (product+)>
<!ELEMENT product (name, price, stock?, tag*)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT price (#PCDATA)>
<!ELEMENT stock (#PCDATA)>
<!ELEMENT tag (#PCDATA)>`, `
<!ELEMENT order (customer, line+, total)>
<!ELEMENT customer (name, email?)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT email (#PCDATA)>
<!ELEMENT line (sku, qty)>
<!ELEMENT sku (#PCDATA)>
<!ELEMENT qty (#PCDATA)>
<!ELEMENT total (#PCDATA)>`, `
<!ELEMENT recipe (title, ingredient+, step+)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT ingredient (qty?, item)>
<!ELEMENT qty (#PCDATA)>
<!ELEMENT item (#PCDATA)>
<!ELEMENT step (#PCDATA)>`, `
<!ELEMENT ticket (id, status, owner?, comment*)>
<!ELEMENT id (#PCDATA)>
<!ELEMENT status (#PCDATA)>
<!ELEMENT owner (#PCDATA)>
<!ELEMENT comment (author, text)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT text (#PCDATA)>`}

const (
	// driftSteps is how many schema versions each drift family steps
	// through over the run.
	driftSteps = 24
	// driftFollow is the similarity a step's documents keep against the
	// version before it: a step that drops below is drawn again, so every
	// family drifts at a pace the evolving DTD can follow and the share of
	// the population it describes does not hinge on one unlucky draw.
	driftFollow = 0.85
	// driftStepGrowth and driftGrowth bound how much larger a version's
	// documents may be than the previous version's and the base's.
	driftStepGrowth = 1.5
	driftGrowth     = 3
	// driftNoise: every driftNoise-th round of documents, each family
	// receives a document of the next family's schema under its own root
	// tag instead. Such documents land in the repository, and every
	// evolution aligns each of them again when it reclassifies it. The
	// schemas are fixed and the rounds counted, not drawn, so the
	// repository's size and cost do not hinge on the seed.
	driftNoise = 20
	// driftBacklog is how many such documents the setup sends first, so
	// the window starts with the repository backlog of a service that has
	// been running, and every evolution in it stalls for about as long.
	// Each evolution reclassifies the whole repository inside the write
	// lock. With this backlog the stalls delay 2 to 3% of the window's
	// adds by over 2 ms: add_p99_ms falls inside them and add_p50_ms well
	// outside. With 2,048 the share was 13%, and in a slow phase of the
	// machine it reached the median.
	driftBacklog = 256
	// driftSchemaSeed draws the families' drift steps; the run's seed draws
	// every document. With the steps drawn from the run's seed too, how
	// many of them changed the schema, and so the number of evolutions in
	// a window, ranged from 28 to 55 across seeds, and the cost of the
	// window and of its recovery with it.
	driftSchemaSeed = 1
	// maxDocBytes bounds a generated document (see mutated), so a
	// recursive schema cannot put one huge document into a run.
	maxDocBytes = 4 << 10
)

// driftCorpus registers eight families of schemas and sends mutated
// documents that step, round robin across the families, through
// successively drifted versions of each (gen.Drift, drawn from
// driftSchemaSeed): each step makes the live DTD stale, the check phase
// fires, evolution rewrites it and reclassifies the repository. Some
// documents belong to no registered schema but carry a registered root
// tag (driftNoise, driftBacklog).
func driftCorpus(seed int64, window int) *corpus {
	g := gen.New(gen.DefaultConfig(seed))
	schemas := gen.New(gen.DefaultConfig(driftSchemaSeed))
	c := &corpus{}
	var families [][]*dtd.DTD
	var noise []*dtd.DTD
	for i, text := range driftBases {
		base := mustParse(text)
		c.dtds = append(c.dtds, spec(base.Name, base))
		families = append(families, followableDrift(schemas, base, driftSteps, 1))
		noise = append(noise, rootedAs(mustParse(driftBases[(i+1)%len(driftBases)]), base.Name))
	}
	for i := 0; i < driftBacklog; i++ {
		c.warm = append(c.warm, mutated(g, noise[i%len(noise)], 0.2, 0, maxDocBytes))
	}
	const warm = 64
	total := warm + window
	per := (total + len(families) - 1) / len(families)
	// Family f steps f/len(families) of a step ahead of family 0, so the
	// families' evolutions interleave instead of stalling the writer one
	// after another.
	stagger := per / driftSteps
	for i := 0; i < total; i++ {
		f, round := i%len(families), i/len(families)
		v := families[f][min(driftSteps-1, (round+f*stagger/len(families))*driftSteps/per)]
		if round%driftNoise == driftNoise-1 {
			v = noise[f]
		}
		b := mutated(g, v, 0.2, 0, maxDocBytes)
		if i < warm {
			c.warm = append(c.warm, b)
		} else {
			c.docs = append(c.docs, b)
		}
	}
	return c
}

// followableDrift returns n versions of base, each gen.Drift(prev, ops)
// of the one before. A step is redrawn, up to eight times, when its
// instances fall below driftFollow against the previous version or grow
// past driftStepGrowth times the previous version's or driftGrowth times
// the base's, and skipped after that: a
// step that replaces the root's content with one new element, or makes a
// large subtree repeatable, would change what a request costs from seed
// to seed.
func followableDrift(g *gen.Generator, base *dtd.DTD, n, ops int) []*dtd.DTD {
	cfg := similarity.DefaultConfig()
	baseSize := meanSize(g.Documents(base, 8))
	prevSize := baseSize
	versions := []*dtd.DTD{base}
	for len(versions) < n {
		prev := versions[len(versions)-1]
		eval := similarity.NewEvaluator(prev, cfg)
		next := prev // when no draw follows, the family skips this step
		for try := 0; try < 8; try++ {
			cand := g.Drift(prev, ops)
			docs := g.Documents(cand, 8)
			size := meanSize(docs)
			follows := size <= driftStepGrowth*prevSize && size <= driftGrowth*baseSize
			for _, doc := range docs {
				follows = follows && eval.GlobalSim(doc.Root) >= driftFollow
			}
			if follows {
				next, prevSize = cand, size
				break
			}
		}
		versions = append(versions, next)
	}
	return versions
}

// meanSize is the mean serialized size of docs.
func meanSize(docs []*xmltree.Document) float64 {
	var n int
	for _, d := range docs {
		n += len(d.String())
	}
	return float64(n) / float64(len(docs))
}

// mutated returns an instance of d of lo to hi bytes, mutated once with
// probability rate. A draw outside the range is redrawn, up to 64 times,
// after which the draw nearest to it is kept.
func mutated(g *gen.Generator, d *dtd.DTD, rate float64, lo, hi int) []byte {
	var best []byte
	bestOff := -1
	for try := 0; try < 64; try++ {
		b := body(g.MutatedDocuments(d, 1, 1, rate)[0])
		off := max(0, lo-len(b), len(b)-hi)
		if off == 0 {
			return b
		}
		if bestOff < 0 || off < bestOff {
			best, bestOff = b, off
		}
	}
	return best
}

// logDTD is a log-event schema in the style of examples/logstream: one
// document carries hundreds of events.
const logDTD = `<!ELEMENT log (event)*>
<!ELEMENT event (ts, level, msg, trace?)>
<!ELEMENT ts (#PCDATA)>
<!ELEMENT level (#PCDATA)>
<!ELEMENT msg (#PCDATA)>
<!ELEMENT trace (#PCDATA)>`

// streamDocs is the size of durable-stream's document pool; the window
// cycles through it with a fresh routing key per request.
const streamDocs = 48

// streamCorpus generates log documents of 400 to 1,200 generated events
// each (about 25 to 80 KiB). The event counts are spaced evenly over that
// range and shuffled, so the pool's mean size is the same for every seed.
func streamCorpus(seed int64, _ int) *corpus {
	d := mustParse(logDTD)
	event := d.Clone()
	event.Name = "event"
	g := gen.New(gen.DefaultConfig(seed))
	c := &corpus{dtds: []dtdSpec{spec("log", d)}}
	mk := func(events int) []byte {
		root := xmltree.NewElement("log")
		for i := 0; i < events; i++ {
			root.Children = append(root.Children, g.Document(event).Root)
		}
		return body(&xmltree.Document{Root: root})
	}
	order := rand.New(rand.NewSource(seed)).Perm(streamDocs)
	for i := 0; i < 16; i++ {
		c.warm = append(c.warm, mk(400+order[i]*800/(streamDocs-1)))
	}
	for _, k := range order {
		c.docs = append(c.docs, mk(400+k*800/(streamDocs-1)))
	}
	return c
}
