package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	ingest "dtdevolve/internal/metrics"
)

// TestMain lets the test binary serve as the speed sampler process.
func TestMain(m *testing.M) {
	if os.Getenv(samplerEnv) != "" {
		os.Exit(runSampler(os.Stdin, os.Stdout))
	}
	os.Exit(m.Run())
}

func TestTailIndexLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n        int
		want     float64
		reported float64
	}{
		{n: 1000, want: 0.99, reported: 0.99},
		{n: 5000, want: 0.99, reported: 0.99},
		{n: 500, want: 0.99, reported: 0.98},
		{n: 300, want: 0.99, reported: 290.0 / 300},
		{n: 20, want: 0.5, reported: 0.5},
		{n: 15, want: 0.5, reported: 5.0 / 15},
	} {
		d := make(dist, tc.n)
		for i := range d {
			d[i] = float64(i)
		}
		v, reported := d.pct(tc.want)
		if reported != tc.reported {
			t.Errorf("n=%d want p%v: reported p%v, want p%v", tc.n, tc.want, reported, tc.reported)
		}
		if beyond := tc.n - 1 - int(v); beyond < minBeyond {
			t.Errorf("n=%d want p%v: %d samples beyond the reported value", tc.n, tc.want, beyond)
		}
	}
	// The reported rank is the highest that keeps the rule: one rank higher
	// leaves fewer than minBeyond samples beyond it, or exceeds the want.
	for n := minBeyond + 1; n <= 3000; n++ {
		idx := tailIndex(n, 0.99)
		if n-1-idx < minBeyond {
			t.Fatalf("n=%d: %d beyond", n, n-1-idx)
		}
		if idx+1 < n && n-2-idx >= minBeyond && float64(idx+2)/float64(n) <= 0.99 {
			t.Fatalf("n=%d: rank %d is not the highest allowed", n, idx)
		}
	}
	if v, _ := dist(nil).pct(0.99); v != 0 {
		t.Errorf("empty sample: %v", v)
	}
}

func TestSlicedPctIgnoresOneNoisySlice(t *testing.T) {
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = float64(i % 100)
	}
	// A burst of interference in the second slice.
	for i := 1000; i < 2000; i++ {
		xs[i] += 1000
	}
	if got := slicedPct(xs, 0.99); got != 98 {
		t.Errorf("sliced p99 = %v, want 98", got)
	}
	if k := slices(999); k != 1 {
		t.Errorf("slices(999) = %d", k)
	}
	if k := slices(1e6); k != maxSlices {
		t.Errorf("slices(1e6) = %d", k)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	parent := span{start: 0, end: 100}
	children := []span{
		{start: 10, end: 40},
		{start: 30, end: 60},  // overlaps the first: [10,60] counts once
		{start: 90, end: 120}, // ends after the parent: only [90,100] counts
		{start: -5, end: 5},   // starts before the parent: only [0,5] counts
		{start: 20, end: 25},  // inside the first
	}
	if got := selfTime(parent, children); got != 35 {
		t.Errorf("self time = %d, want 35", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self time without children = %d, want 100", got)
	}
	if got := selfTime(parent, []span{{start: -10, end: 200}}); got != 0 {
		t.Errorf("self time under a covering child = %d, want 0", got)
	}
}

func TestAnalyzeAttributesSpansByRequest(t *testing.T) {
	spans := []span{
		{id: 1, req: 1, kind: spanClient, start: 0, end: 1000},
		{id: 2, parent: 1, req: 1, kind: spanHTTP, start: 100, end: 900},
		{id: 3, parent: 2, req: 1, kind: spanEngine, start: 300, end: 800, evolved: true},
		{id: 4, kind: spanWALSync, start: 400, end: 600},
		{id: 5, kind: spanWALSync, start: 5000, end: 5100}, // after the window
		{id: 6, req: 6, kind: spanClient, start: 5000, end: 6000},
	}
	lt := analyze(spans, 0, 2000)
	want := layerTimes{
		httpSelfUS:    dist{0.2},
		apiSelfUS:     dist{0.3},
		engineUS:      dist{0.5},
		evolvingMS:    dist{0.0005},
		walSyncUS:     dist{0.2},
		walSyncBusyNS: 200,
	}
	if !reflect.DeepEqual(lt, want) {
		t.Errorf("analyze = %+v, want %+v", lt, want)
	}
}

// fakeClock is a single-worker clock: sleeping jumps to the wake time and
// each request advances time by its service time.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration { return c.t }

func (c *fakeClock) sleepUntil(t time.Duration) {
	if t > c.t {
		c.t = t
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const interval = 10 * time.Millisecond
	clk := &fakeClock{}
	// The first three requests take 25ms each: the worker falls behind
	// and sends every later request late. Then service drops to 1ms and
	// the worker catches up with the schedule.
	service := []time.Duration{25, 25, 25, 1, 1, 1, 1, 1}
	samples := openLoop(clk, len(service), interval, 1, func(_, i int) bool {
		clk.t += service[i] * time.Millisecond
		return true
	})
	wantLate := []time.Duration{0, 15, 30, 45, 36, 27, 18, 9}
	for i, s := range samples {
		if s.due != time.Duration(i)*interval {
			t.Errorf("request %d due at %v", i, s.due)
		}
		if s.late() != wantLate[i]*time.Millisecond {
			t.Errorf("request %d sent %v late, want %v", i, s.late(), wantLate[i]*time.Millisecond)
		}
		if want := s.late() + service[i]*time.Millisecond; s.latency() != want {
			t.Errorf("request %d latency %v, want %v (lateness plus service)", i, s.latency(), want)
		}
	}
	if st := summarize(samples); !reflect.DeepEqual(st.lateMS, dist{0, 9, 15, 18, 27, 30, 36, 45}) {
		t.Errorf("lateness sample %v", st.lateMS)
	}
	// On schedule the generator is never late and latency is service time.
	clk = &fakeClock{}
	samples = openLoop(clk, 5, interval, 1, func(int, int) bool {
		clk.t += 2 * time.Millisecond
		return true
	})
	for i, s := range samples {
		if s.late() != 0 || s.latency() != 2*time.Millisecond {
			t.Errorf("on schedule, request %d: late %v, latency %v", i, s.late(), s.latency())
		}
	}
}

func TestSamplerScalesByThePhasesSamples(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	s := &sampler{
		at:       []time.Time{at(0), at(50), at(100), at(150), at(200)},
		ms:       []float64{9, 2 * sampleRefMS, 2 * sampleRefMS, 4 * sampleRefMS, 9},
		stolenMS: []float64{9, 0, sampleRefMS, sampleRefMS, 9},
	}
	ph := phase{from: at(40), to: at(160)} // the three middle samples
	// Mean CPU time 8/3 of the reference; plus the stolen time, 10/3.
	if got, want := s.scale(ph), 3.0/8; math.Abs(got-want) > 1e-12 {
		t.Errorf("scale = %v, want %v", got, want)
	}
	if got, want := s.runScale(ph), 3.0/10; math.Abs(got-want) > 1e-12 {
		t.Errorf("runScale = %v, want %v", got, want)
	}
	// A host that stole a quarter of a busy core's time: wall-clock figures
	// shrink by a further quarter. The steal on a core that was only woken
	// now and then does not count, nor on one that sat idle.
	ph.ticks0 = []cpuTicks{{busy: 100, steal: 10}, {busy: 50, steal: 5}, {busy: 7, steal: 7}}
	ph.ticks1 = []cpuTicks{{busy: 400, steal: 110}, {busy: 50, steal: 45}, {busy: 7, steal: 7}}
	if got, want := s.wallScale(ph), 3.0/8*0.75; math.Abs(got-want) > 1e-12 {
		t.Errorf("wallScale = %v, want %v", got, want)
	}
	// Two busy cores: the share of each, weighted by its busy time.
	ph.ticks1 = []cpuTicks{{busy: 400, steal: 110}, {busy: 150, steal: 5}, {busy: 7, steal: 7}}
	if got, want := ph.steal(), (300*0.25+100*0)/400.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("steal = %v, want %v", got, want)
	}
	// No sample in the phase: figures stay as timed.
	if got := s.scale(phase{from: at(300), to: at(400)}); got != 1 {
		t.Errorf("scale without samples = %v, want 1", got)
	}
}

func TestSamplerMeasuresAndStops(t *testing.T) {
	s, err := startSampler()
	if err != nil {
		t.Fatal(err)
	}
	from := time.Now()
	time.Sleep(6 * sampleEvery)
	s.close()
	s.close()
	if s.cmd.ProcessState == nil || !s.cmd.ProcessState.Exited() {
		t.Error("the sampler process is still running")
	}
	n := len(s.ms)
	if n < 2 {
		t.Fatalf("%d samples in %v", n, 6*sampleEvery)
	}
	for i, ms := range s.ms {
		if ms <= 0 || s.stolenMS[i] < 0 {
			t.Errorf("sample %d: %v ms CPU, %v ms stolen", i, ms, s.stolenMS[i])
		}
	}
	if sc := s.scale(phase{from: from, to: time.Now()}); sc <= 0 || sc == 1 {
		t.Errorf("scale %v", sc)
	}
	time.Sleep(2 * sampleEvery)
	if len(s.ms) != n {
		t.Error("the sampler ran on after close")
	}
}

func TestEndToEndScalesOnlyTimedFigures(t *testing.T) {
	p := &pass{
		setupS:        []float64{1, 3, 2},
		writes:        loopStats{latencyMS: dist{4, 4, 4}},
		window:        time.Second,
		ackedBytes:    3e6,
		cpu:           30 * time.Millisecond,
		after:         metricsResp{IngestSnapshot: ingest.IngestSnapshot{Added: 10}},
		repositoryEnd: 1,
		heapLiveMB:    7,
		recoverS:      5,
	}
	got := endToEnd(p, scales{setup: 2, latency: 3, cpu: 5, recover: 7})
	want := map[string]float64{
		"setup_s":         4,
		"add_p50_ms":      12,
		"cpu_ms_per_doc":  50,
		"recover_s":       35,
		"docs_per_s":      3, // the offered rate: unscaled
		"mb_per_s":        3,
		"classified_frac": 0.9,
		"heap_live_mb":    7,
	}
	for name, v := range want {
		if math.Abs(got[name].Value-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got[name].Value, v)
		}
	}
}

func TestSameBytesCatchesOneByte(t *testing.T) {
	live := []byte(`{"dtds":{"feed":"<!ELEMENT feed (channel)>"},"added":12}`)
	if err := sameBytes("snapshot", live, append([]byte(nil), live...)); err != nil {
		t.Fatalf("identical snapshots: %v", err)
	}
	for _, off := range []int{0, 17, len(live) - 1} {
		other := append([]byte(nil), live...)
		other[off] ^= 1
		err := sameBytes("snapshot", live, other)
		if err == nil {
			t.Fatalf("one-byte difference at %d passed", off)
		}
		if !strings.Contains(err.Error(), "at byte "+strconv.Itoa(off)) {
			t.Errorf("error %q does not name offset %d", err, off)
		}
	}
	if err := sameBytes("snapshot", live, live[:len(live)-1]); err == nil {
		t.Error("a truncated snapshot passed")
	}
}

func TestEvolveGuardNeedsTheRepositoryRescored(t *testing.T) {
	const dtds, repoStart = 8, 100
	// 1,000 adds, and two evolutions that each re-scored the 100-document
	// repository: 1,200 classifications against 8 DTDs.
	ok := ingest.IngestSnapshot{Added: 1000, Evolutions: 2, ClassifyPossible: 1200 * dtds}
	if err := evolveGuard(ok, dtds, repoStart); err != nil {
		t.Errorf("a window that re-scored the repository twice: %v", err)
	}
	for _, tc := range []struct {
		name      string
		d         ingest.IngestSnapshot
		repoStart int
	}{
		{"no evolution", ingest.IngestSnapshot{Added: 1000, ClassifyPossible: 1200 * dtds}, repoStart},
		// Evolved, but reclassification was skipped: only the adds were
		// classified.
		{"no reclassification", ingest.IngestSnapshot{Added: 1000, Evolutions: 2, ClassifyPossible: 1000 * dtds}, repoStart},
		// Part of the repository re-scored.
		{"partial reclassification", ingest.IngestSnapshot{Added: 1000, Evolutions: 2, ClassifyPossible: 1099 * dtds}, repoStart},
		{"empty repository", ok, 0},
	} {
		if err := evolveGuard(tc.d, dtds, tc.repoStart); err == nil {
			t.Errorf("%s: the guard passed", tc.name)
		}
	}
}

func TestCorpusIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := w.corpus(7, 64), w.corpus(7, 64)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two corpora from seed 7 differ", w.name)
		}
		if c := w.corpus(8, 64); reflect.DeepEqual(a.docs, c.docs) {
			t.Errorf("%s: seeds 7 and 8 generate the same documents", w.name)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the metric tables must match.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !reflect.DeepEqual(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, ours)
	}

	e2e := endToEnd(&pass{}, unscaled)
	if len(e2e) != len(bf.EndToEnd) {
		t.Errorf("%d end-to-end metrics computed, %d in BENCHMARK.json", len(e2e), len(bf.EndToEnd))
	}
	for _, m := range bf.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): computed %+v, present %v", m.Name, m.Unit, got, ok)
		}
	}
	c := &corpus{docs: [][]byte{[]byte("<log><event><ts>t</ts></event></log>")}}
	layers, err := perLayer(workloads[0], c, &pass{}, &pass{}, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	if len(layers) != len(bf.PerLayer) {
		t.Errorf("%d per-layer metrics computed, %d in BENCHMARK.json", len(layers), len(bf.PerLayer))
	}
	for _, m := range bf.PerLayer {
		if got, ok := layers[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("per-layer %s (%s): computed %+v, present %v", m.Name, m.Unit, got, ok)
		}
	}
}
