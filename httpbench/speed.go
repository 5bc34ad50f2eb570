package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on VMs that share their cores with other tenants, and
// such a host's speed moves: between runs of identical code, CPU time per
// document has varied threefold, and every timed figure with it. On a
// 2-core Intel Xeon VM, a fixed computation timed in thread CPU time took
// either about 7 or about 13 ms, from one run to the next tens of
// milliseconds apart, as the host gave its thread a fast or a slow core;
// and the host also stops the VM's cores to run other tenants (steal
// time), which lengthens wall-clock times but not CPU times.
//
// A pass therefore runs a speed sampler beside the server from start to
// end: every sampleEvery it runs a fixed, allocation-free reference
// computation on its own thread, and records the thread's CPU time and the
// time the host stole from it. Each timed figure is reported at the
// reference speed: multiplied by the reference time of that computation
// over its mean time during the phase the figure was timed in (set-up,
// window or recovery), so that a figure timed while the computation took
// twice its reference time is halved. Which time of the computation
// counts, and how steal is corrected, depends on the figure (see scales).
// The computation uses only the standard library, so no change to the
// program under test moves it, and it does not allocate, so the program's
// garbage collector does not charge it. The unscaled figures are printed
// too.

const (
	// sampleEvery is the sampler's period. A sample takes about 1.5% of
	// it.
	sampleEvery = 50 * time.Millisecond
	// sampleRefMS is the mean CPU time of a sample on the reference host,
	// a 2-core Intel Xeon VM. It only fixes the unit: a host that runs the
	// samples in this time reports its figures unscaled.
	sampleRefMS = 0.7
)

// sampleWork is the reference computation's fixed input.
type sampleWork struct {
	ints, scratch []int
	keys          []string
	index         map[string]int
	buf           []byte
}

func newSampleWork() *sampleWork {
	r := rand.New(rand.NewSource(1))
	w := &sampleWork{index: map[string]int{}, buf: make([]byte, 16<<10)}
	for i := 0; i < 4096; i++ {
		w.ints = append(w.ints, r.Int())
		k := "k" + strconv.Itoa(r.Int())
		w.keys = append(w.keys, k)
		w.index[k] = i
	}
	w.scratch = make([]int, len(w.ints))
	r.Read(w.buf)
	return w
}

// run sorts a copy of the integers, looks every key up and hashes the
// buffer: branches, hashing and memory traffic in the proportions of a
// document service, without allocating.
func (w *sampleWork) run() int {
	copy(w.scratch, w.ints)
	sort.Ints(w.scratch)
	n := 0
	for _, k := range w.keys {
		n += w.index[k]
	}
	sum := sha256.Sum256(w.buf)
	return n + int(sum[0])
}

// sampler is one pass's speed sampler: a process of its own, so that
// neither the program's threads nor its garbage collector's pauses count
// in the samples, and its CPU time does not count in the program's.
type sampler struct {
	cmd  *exec.Cmd
	in   io.Closer
	done chan struct{}
	once sync.Once

	mu sync.Mutex
	at []time.Time // when each sample ended
	ms []float64   // its CPU time
	// stolenMS is how much of its wall-clock time the sample's thread was
	// neither running nor waiting for a core of the VM: the host had
	// stopped the core it ran on.
	stolenMS []float64
}

// samplerEnv, set in a process's environment, makes the process the
// sampler process.
const samplerEnv = "HTTPBENCH_SPEED_SAMPLER"

// startSampler starts the sampler process, which samples until close.
func startSampler() (*sampler, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), samplerEnv+"=1")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting the speed sampler: %w", err)
	}
	s := &sampler{cmd: cmd, in: in, done: make(chan struct{})}
	go s.read(out)
	return s, nil
}

// read collects the sampler process's lines until it exits.
func (s *sampler) read(r io.Reader) {
	defer close(s.done)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		var endNS int64
		var ms, stolen float64
		if _, err := fmt.Sscan(sc.Text(), &endNS, &ms, &stolen); err != nil {
			continue
		}
		s.mu.Lock()
		s.at = append(s.at, time.Unix(0, endNS))
		s.ms = append(s.ms, ms)
		s.stolenMS = append(s.stolenMS, stolen)
		s.mu.Unlock()
	}
}

// close stops the sampler process and waits for it to exit. Closing twice
// does nothing.
func (s *sampler) close() {
	s.once.Do(func() {
		s.in.Close() // the process ends with its input
		<-s.done
		s.cmd.Wait()
	})
}

// runSampler is the sampler process: until its input ends, it runs the
// reference computation every sampleEvery on one thread and writes a line
// per sample to out: the end time in Unix nanoseconds, and the CPU time
// and the stolen time in milliseconds.
func runSampler(in io.Reader, out io.Writer) int {
	stop := make(chan struct{})
	go func() {
		io.Copy(io.Discard, in)
		close(stop)
	}()
	runtime.LockOSThread()
	w := newSampleWork()
	tick := time.NewTicker(sampleEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return 0
		case <-tick.C:
		}
		start, t0, wait0 := time.Now(), threadCPU(), threadWait()
		w.run()
		end, t1, wait1 := time.Now(), threadCPU(), threadWait()
		stolen := max(0, end.Sub(start)-(t1-t0)-(wait1-wait0))
		if _, err := fmt.Fprintf(out, "%d %.6f %.6f\n", end.UnixNano(), float64(t1-t0)/1e6, float64(stolen)/1e6); err != nil {
			return 1
		}
	}
}

// phase is the span of time one group of figures was timed in, with the
// host's CPU counters at either end.
type phase struct {
	from, to       time.Time
	ticks0, ticks1 []cpuTicks
}

// begin and end mark the phase's ends.
func (ph *phase) begin() { ph.from, ph.ticks0 = time.Now(), readTicks() }
func (ph *phase) end()   { ph.to, ph.ticks1 = time.Now(), readTicks() }

// scale is the factor that brings CPU times measured during ph to the
// reference speed: sampleRefMS over the mean sample in ph, or 1 when no
// sample fell in it.
func (s *sampler) scale(ph phase) float64 {
	cpu, _ := s.mean(ph)
	return ratio(sampleRefMS, cpu)
}

// runScale is the factor for wall-clock times measured during ph, from the
// samples' CPU time plus the time stolen from them.
func (s *sampler) runScale(ph phase) float64 {
	cpu, stolen := s.mean(ph)
	return ratio(sampleRefMS, cpu+stolen)
}

// mean returns the mean CPU time and stolen time of the samples in ph, or
// the reference CPU time when none fell in it.
func (s *sampler) mean(ph phase) (cpu, stolen float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int
	for i, at := range s.at {
		if !at.Before(ph.from) && !at.After(ph.to) {
			cpu += s.ms[i]
			stolen += s.stolenMS[i]
			n++
		}
	}
	if n == 0 || cpu == 0 {
		return sampleRefMS, 0
	}
	return cpu / float64(n), stolen / float64(n)
}

// wallScale is the factor for wall-clock times measured during ph. Besides
// running slower, a shared host also stops the VM's cores now and then to
// run other tenants (steal time), which lengthens wall-clock times but not
// CPU times, the samples' included: a phase in which the host took a
// share f of the time the VM's cores were busy took 1/(1-f) times as long.
func (s *sampler) wallScale(ph phase) float64 {
	return s.scale(ph) * (1 - ph.steal())
}

// steal is the share of the program's busy time that the host stole
// during ph: each core's steal share, its stolen time over its busy plus
// stolen time, weighted by the time the core was busy. A core that idled
// through the phase takes a large steal share from the host's delays in
// waking it, which threads busy on the other core did not suffer; the
// weights leave it out. In runs where the host stole heavily, it still
// took recover_s down to 0.35 to 0.4 of its timed value where the host had
// slowed it by a factor of about 1.6: those runs' recover_s read up to a
// fifth below the others'.
func (ph phase) steal() float64 {
	var stolen, busy float64
	for i := range min(len(ph.ticks0), len(ph.ticks1)) {
		d := ph.ticks1[i].sub(ph.ticks0[i])
		if d.busy+d.steal > 0 {
			stolen += float64(d.busy) * float64(d.steal) / float64(d.busy+d.steal)
			busy += float64(d.busy)
		}
	}
	return ratio(stolen, busy)
}

// cpuTicks are one core's line of /proc/stat: the time it spent busy and
// the time the host stole from it, in clock ticks.
type cpuTicks struct{ busy, steal int64 }

// readTicks reads every core's line of /proc/stat, or none where there is
// no /proc/stat.
func readTicks() []cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	var out []cpuTicks
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 9 || !strings.HasPrefix(f[0], "cpu") || f[0] == "cpu" {
			continue
		}
		var v [8]int64
		for i := range v {
			v[i], _ = strconv.ParseInt(f[i+1], 10, 64)
		}
		// user nice system idle iowait irq softirq steal
		out = append(out, cpuTicks{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]})
	}
	return out
}

func (t cpuTicks) sub(u cpuTicks) cpuTicks { return cpuTicks{t.busy - u.busy, t.steal - u.steal} }

// threadCPU is the calling thread's CPU time (CLOCK_THREAD_CPUTIME_ID).
// getrusage(RUSAGE_THREAD) would do, but counts in scheduler ticks.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// threadWait is how long the calling thread has waited for a core of the
// VM, from /proc/thread-self/schedstat, or 0 where that is missing.
func threadWait() time.Duration {
	data, err := os.ReadFile("/proc/thread-self/schedstat")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	ns, _ := strconv.ParseInt(f[1], 10, 64)
	return time.Duration(ns)
}

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3
