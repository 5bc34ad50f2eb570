package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// conn is one load-generator connection: an HTTP client whose transport
// holds at most one connection to the server.
type conn struct {
	base string
	c    *http.Client
	tr   *tracer // nil untraced
}

func newConn(base string, tr *tracer) *conn {
	t := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &conn{base: base, c: &http.Client{Transport: t, Timeout: 60 * time.Second}, tr: tr}
}

func (c *conn) close() { c.c.CloseIdleConnections() }

// do sends one request and returns the response body, failing on any
// status but 200 and 201. With traced set (and a tracer), the request
// carries its client span id and the client span is recorded.
func (c *conn) do(method, path string, hdr http.Header, body []byte, traced bool) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	var s span
	traced = traced && c.tr != nil
	if traced {
		s = span{id: c.tr.newID(), kind: spanClient}
		s.req = s.id
		req.Header.Set(spanHeader, strconv.FormatUint(s.id, 10))
		s.start = c.tr.now()
	}
	resp, err := c.c.Do(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if traced {
		s.end = c.tr.now()
		c.tr.add(s)
	}
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	return data, nil
}

// getJSON fetches path and decodes the JSON body into v.
func (c *conn) getJSON(path string, v any) error {
	data, err := c.do(http.MethodGet, path, nil, nil, false)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("GET %s: malformed body: %w", path, err)
	}
	return nil
}

// sample is one request of a measured loop. Times are offsets from the
// window start.
type sample struct {
	due, sent, done time.Duration
	ok              bool
}

// latency is the request's time from when it was due: in an open loop a
// stall also delays every request queued behind it, and that wait counts.
func (s sample) latency() time.Duration { return s.done - s.due }

// late is how far behind schedule the generator sent the request.
func (s sample) late() time.Duration { return s.sent - s.due }

// clock abstracts time for the open loop, so tests can run it on a fake
// clock.
type clock interface {
	now() time.Duration // since the window start
	sleepUntil(t time.Duration)
}

type wallClock struct{ start time.Time }

func (c wallClock) now() time.Duration { return time.Since(c.start) }

// sleepUntil blocks the goroutine's thread in nanosleep rather than
// parking it on a runtime timer: the runtime polls timers with
// millisecond granularity when idle, which would make the generator
// itself send up to a millisecond late.
func (c wallClock) sleepUntil(t time.Duration) {
	for {
		d := t - c.now()
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep just loops
	}
}

// openLoop sends n requests on a fixed schedule, request i due at
// i*interval, over conns workers: each takes the next request, waits for
// its due time, and sends it. A worker still busy when its next request
// falls due sends it late, and the request is timed from its due time.
func openLoop(clk clock, n int, interval time.Duration, conns int, send func(worker, i int) bool) []sample {
	out := make([]sample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				due := time.Duration(i) * interval
				clk.sleepUntil(due)
				sent := clk.now()
				ok := send(w, i)
				out[i] = sample{due: due, sent: sent, done: clk.now(), ok: ok}
			}
		}(w)
	}
	wg.Wait()
	return out
}

// loopStats summarizes the samples of one loop.
type loopStats struct {
	attempted, failed int
	// latencyMS holds the successful requests' latencies in the order they
	// were due; lateMS, how late each was sent, sorted.
	latencyMS, lateMS dist
	end               time.Duration // last completion
}

func summarize(samples []sample) loopStats {
	samples = append([]sample(nil), samples...)
	sort.SliceStable(samples, func(i, j int) bool { return samples[i].due < samples[j].due })
	var st loopStats
	for _, s := range samples {
		st.attempted++
		if !s.ok {
			st.failed++
			continue
		}
		st.latencyMS = append(st.latencyMS, float64(s.latency())/1e6)
		st.lateMS = append(st.lateMS, float64(s.late())/1e6)
		if s.done > st.end {
			st.end = s.done
		}
	}
	st.lateMS.sorted()
	return st
}
