// Command httpbench is the repository's end-to-end benchmark. For one
// workload it builds an in-process dtdserved the way cmd/dtdserved builds
// it for that workload's flags, serves it on loopback, drives it from a
// seeded load generator in the same process, checks every output, and
// prints the end-to-end metrics. With -trace 1 it runs the workload again
// with spans recorded around the HTTP handler, the api.Engine and the WAL
// filesystem, and prints the per-layer metrics instead.
//
// Usage (from the repository root):
//
//	bash httpbench/run.sh -workload registry-1k -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it record the
// host, the sample sizes behind each percentile and, when traced, the
// traced run's own end-to-end metrics.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"dtdevolve/internal/xmltree"
)

func main() {
	if os.Getenv(samplerEnv) != "" {
		os.Exit(runSampler(os.Stdin, os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("httpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: registry-1k, drift or durable-stream")
	seed := fs.Int64("seed", 1, "seed of every generated DTD and document")
	seconds := fs.Int("seconds", 10, "length of the measured window in seconds")
	traced := fs.Int("trace", 0, "1: run again with tracing and print the per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for data directories and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "httpbench: need -workload registry-1k|drift|durable-stream, -seconds >= 1, -trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "httpbench: %v\n", err)
		return 1
	}
	o := options{seed: *seed, window: time.Duration(*seconds) * time.Second, workdir: *workdir}
	c := w.corpus(*seed, int(o.window.Seconds()*w.rate))

	p, err := runPass(w, c, o, nil)
	if err != nil {
		fmt.Fprintf(stderr, "httpbench: %s: %v\n", w.name, err)
		return 1
	}
	res := result{Correct: p.checks.failed == 0, Attempted: p.attempted(), Failed: p.failed(), Metrics: endToEnd(p, p.scales())}
	emit(stdout, map[string]any{"host": host(w, p.dataFS)})
	emit(stdout, details(w, o, p))
	emit(stdout, speedRecord(p))
	report(stderr, w, p)

	if *traced == 1 {
		tr := newTracer(1 << 16)
		tp, err := runPass(w, c, o, tr)
		if err != nil {
			fmt.Fprintf(stderr, "httpbench: %s traced: %v\n", w.name, err)
			return 1
		}
		tp.layers = analyze(tr.snapshot(), tp.windowFrom, tp.windowFrom+int64(tp.window))
		spans := filepath.Join(*workdir, fmt.Sprintf("spans-%s-%d.tsv", w.name, *seed))
		if err := tr.writeFile(spans); err != nil {
			fmt.Fprintf(stderr, "httpbench: writing spans: %v\n", err)
			return 1
		}
		emit(stdout, map[string]any{"traced_end_to_end": endToEnd(tp, tp.scales()), "spans": spans})
		report(stderr, w, tp)
		layers, err := perLayer(w, c, p, tp, parseBudget)
		if err != nil {
			fmt.Fprintf(stderr, "httpbench: %s: %v\n", w.name, err)
			return 1
		}
		res = result{
			Correct:   res.Correct && tp.checks.failed == 0,
			Attempted: res.Attempted + tp.attempted(),
			Failed:    res.Failed + tp.failed(),
			Metrics:   layers,
		}
	}
	emit(stdout, res)
	if !res.Correct {
		return 1
	}
	return 0
}

// emit prints v as one JSON line.
func emit(w io.Writer, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // every emitted value is plain data
	}
	fmt.Fprintf(w, "%s\n", data)
}

// report writes the pass's check failures to stderr.
func report(w io.Writer, wl *workload, p *pass) {
	for _, m := range p.checks.msgs {
		fmt.Fprintf(w, "httpbench: %s: check failed: %s\n", wl.name, m)
	}
}

// details records the sample behind each figure: how many requests each
// percentile was taken over and which percentile the reporting rule
// allowed.
func details(w *workload, o options, p *pass) map[string]any {
	pctInfo := func(d dist) map[string]any {
		k := slices(len(d))
		_, p99 := append(dist(nil), d[:len(d)/k]...).sorted().pct(0.99)
		return map[string]any{"n": len(d), "slices": k, "p99_reported": p99}
	}
	reads := "none"
	if p.reads.attempted > 0 {
		reads = fmt.Sprintf("open %.0f/s", w.readRate)
	}
	return map[string]any{
		"workload":      w.name,
		"seed":          o.seed,
		"writers":       min(w.writers, maxConns()),
		"rate":          w.rate,
		"reads":         reads,
		"window_s":      p.window.Seconds(),
		"adds":          pctInfo(p.writes.latencyMS),
		"status_reads":  pctInfo(p.reads.latencyMS),
		"setup_s":       p.setupS,
		"wal_replayed":  p.replayed,
		"evolutions":    p.after.Evolutions - p.before.Evolutions,
		"reclassified":  p.after.Reclassified - p.before.Reclassified,
		"repository":    p.repositoryEnd,
		"checks_run":    p.checks.run,
		"checks_failed": p.checks.failed,
	}
}

// scales are the factors that bring a pass's timed figures to the
// reference speed (see speed.go), one for each kind of figure:
//
//   - the window's CPU time, by the samples' CPU time;
//   - the window's latencies, by the samples' CPU time plus the time the
//     host stole from them. The window's open loop leaves the VM's cores
//     mostly idle, and /proc/stat's steal share over all cores then counts
//     mostly the host's delays in waking an idle core, which said little
//     about a request's latency: scaled by it, registry-1k's add_p50_ms
//     spread 0.63 over five runs where unscaled it spread 0.17;
//   - the set-ups' and recoveries' wall-clock times, by the samples' CPU
//     time and /proc/stat's steal share (phase.steal). These phases keep
//     a core busy, and the samples, taken on a third thread contending
//     with theirs for two cores, caught the host's steal less well: scaled
//     by the samples' stolen time, recover_s spread 0.13 to 0.17 on drift
//     and durable-stream over runs where the steal share gave 0.07.
type scales struct{ setup, latency, cpu, recover float64 }

// unscaled reports figures as timed.
var unscaled = scales{1, 1, 1, 1}

func (p *pass) scales() scales {
	if p.speed == nil {
		return unscaled
	}
	return scales{
		setup:   p.speed.wallScale(p.setupPh),
		latency: p.speed.runScale(p.windowPh),
		cpu:     p.speed.scale(p.windowPh),
		recover: p.speed.wallScale(p.recoverPh),
	}
}

// endToEnd computes the metrics a user of the service sees, with the
// timed ones multiplied by the scale of their phase. Every workload runs an
// open loop, whose rates are the offered rate and stay unscaled.
func endToEnd(p *pass, s scales) map[string]metric {
	docs := float64(len(p.writes.latencyMS))
	win := p.window.Seconds()
	return map[string]metric{
		"setup_s":         {median(p.setupS) * s.setup, "s"},
		"docs_per_s":      {docs / win, "1/s"},
		"mb_per_s":        {float64(p.ackedBytes) / 1e6 / win, "MB/s"},
		"add_p50_ms":      {slicedPct(p.writes.latencyMS, 0.5) * s.latency, "ms"},
		"classified_frac": {1 - ratio(float64(p.repositoryEnd), float64(p.after.Added)), "frac"},
		"cpu_ms_per_doc":  {ratio(float64(p.cpu)/1e6, docs) * s.cpu, "ms"},
		"heap_live_mb":    {p.heapLiveMB, "MB"},
		"recover_s":       {p.recoverS * s.recover, "s"},
	}
}

// speedRecord records the scales of the pass and its end-to-end figures
// as timed.
func speedRecord(p *pass) map[string]any {
	s := p.scales()
	return map[string]any{"speed": map[string]any{
		"samples":        len(p.speed.ms),
		"scale_setup":    s.setup,
		"scale_latency":  s.latency,
		"scale_cpu":      s.cpu,
		"scale_recovery": s.recover,
		"unscaled":       endToEnd(p, unscaled),
	}}
}

// perLayer computes the per-layer metrics from the traced pass tp, its
// counters and spans. The untraced pass p supplies the base of the tracing
// overhead and the request latencies reported here: add_p99_ms, whose
// run-to-run spread on a 2-core VM is wider than any bound a regression
// gate could use, and read_p50_ms and read_p99_ms, which only drift
// measures (its reader is the one connection the other workloads' two
// writers leave none for).
func perLayer(w *workload, c *corpus, p, tp *pass, budget int64) (map[string]metric, error) {
	d := tp.delta()
	lt := tp.layers
	docs := float64(len(tp.writes.latencyMS))
	late99, _ := tp.writes.lateMS.pct(0.99)
	pct := func(x dist, q float64) float64 {
		v, _ := x.pct(q)
		return v
	}
	treeUSPerKB, streamMBps, err := parseRates(c, budget)
	if err != nil {
		return nil, err
	}
	// Both at the reference speed, so the host's speed between the passes
	// does not count as overhead.
	untracedCPU := ratio(float64(p.cpu), float64(len(p.writes.latencyMS))) * p.scales().cpu
	tracedCPU := ratio(float64(tp.cpu), docs) * tp.scales().cpu
	return map[string]metric{
		"add_p99_ms":                        {slicedPct(p.writes.latencyMS, 0.99), "ms"},
		"read_p50_ms":                       {slicedPct(p.reads.latencyMS, 0.5), "ms"},
		"read_p99_ms":                       {slicedPct(p.reads.latencyMS, 0.99), "ms"},
		"loadgen.late_p99_ms":               {late99, "ms"},
		"http.self_us_p50":                  {pct(lt.httpSelfUS, 0.5), "us"},
		"api.self_us_p50":                   {pct(lt.apiSelfUS, 0.5), "us"},
		"xmltree.parse_us_per_kb":           {treeUSPerKB, "us/KB"},
		"xmltree.stream_mb_per_s":           {streamMBps, "MB/s"},
		"engine.add_us_p50":                 {pct(lt.engineUS, 0.5), "us"},
		"engine.add_us_p99":                 {pct(lt.engineUS, 0.99), "us"},
		"engine.evolving_add_ms_p50":        {pct(lt.evolvingMS, 0.5), "ms"},
		"source.classify_us_mean":           {ratio(float64(d.ClassifyNS), float64(d.ClassifyCalls)) / 1e3, "us"},
		"source.commit_us_mean":             {ratio(float64(d.CommitNS), float64(d.CommitCalls)) / 1e3, "us"},
		"source.group_size_mean":            {d.WALGroupSizeMean, "docs"},
		"classify.alignments_per_doc":       {ratio(float64(d.ClassifyScored), float64(d.Added)), "1/doc"},
		"classify.candidates_per_doc":       {ratio(float64(d.ClassifyCandidates), float64(d.Added)), "1/doc"},
		"classify.prune_ratio":              {1 - ratio(float64(d.ClassifyScored), float64(d.ClassifyPossible)), "frac"},
		"evolve.evolutions":                 {float64(d.Evolutions), "count"},
		"evolve.reclassified_per_evolution": {ratio(float64(d.Reclassified), float64(d.Evolutions)), "docs"},
		"source.repository_end":             {float64(tp.repositoryEnd), "docs"},
		"stream.bytes_per_doc":              {ratio(float64(d.StreamBytes), float64(d.StreamDocs)), "B/doc"},
		"wal.bytes_per_doc":                 {ratio(float64(d.WALBytes), float64(d.Added)), "B/doc"},
		"wal.fsyncs_per_doc":                {ratio(float64(d.WALSyncs), float64(d.Added)), "1/doc"},
		"wal.fsync_us_p50":                  {pct(lt.walSyncUS, 0.5), "us"},
		"wal.fsync_us_p99":                  {pct(lt.walSyncUS, 0.99), "us"},
		"wal.write_us_p50":                  {pct(lt.walWriteUS, 0.5), "us"},
		"wal.fsync_busy_frac":               {ratio(float64(lt.walSyncBusyNS), float64(tp.window)), "frac"},
		"shard.doc_skew":                    {tp.shardSkew(), "ratio"},
		"recover.records_per_s":             {ratio(float64(tp.replayed), tp.recoverS), "1/s"},
		"runtime.gc_cpu_frac":               {ratio(tp.gcCPU, tp.usedCPU), "frac"},
		"runtime.alloc_kb_per_doc":          {ratio(tp.allocBytes/1e3, docs), "KB/doc"},
		"trace.overhead_frac":               {ratio(tracedCPU, untracedCPU) - 1, "frac"},
	}, nil
}

// parseBudget is how many body bytes each parse rate is measured over.
const parseBudget = 8 << 20

// parseRates times the public parsers over budget bytes of the workload's
// own request bodies: the tree parser the buffered handler uses, in
// microseconds per kilobyte, and the pull parser behind ?stream=1, in
// megabytes per second.
func parseRates(c *corpus, budget int64) (treeUSPerKB, streamMBps float64, err error) {
	var n int64
	start := time.Now()
	for i := 0; n < budget; i++ {
		b := c.doc(i)
		if _, err := xmltree.ParseWithOptions(bytes.NewReader(b), xmltree.Options{}); err != nil {
			return 0, 0, err
		}
		n += int64(len(b))
	}
	treeUSPerKB = float64(time.Since(start)) / 1e3 / (float64(n) / 1e3)

	n = 0
	st := xmltree.StreamParse(bytes.NewReader(nil), xmltree.StreamOptions{})
	start = time.Now()
	for i := 0; n < budget; i++ {
		b := c.doc(i)
		st.Reset(bytes.NewReader(b), xmltree.StreamOptions{})
		for {
			_, err := st.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return 0, 0, err
			}
		}
		n += int64(len(b))
	}
	streamMBps = float64(n) / 1e6 / time.Since(start).Seconds()
	return treeUSPerKB, streamMBps, nil
}
