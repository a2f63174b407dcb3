package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"eel/internal/obs"
)

// runStats accumulates timed ops. Only the ops themselves are timed:
// wall and cpu cover the intervals the program was working on an op,
// never the harness's payload generation or output checks in between.
type runStats struct {
	ops, failed int
	wall, cpu   time.Duration
	lats        []time.Duration
	// traces holds the spans recorded during traced segments: one trace
	// per op, plus the daemon's batch traces on the schedule workloads.
	traces []*obs.TraceExport
}

func (s *runStats) add(o *runStats) {
	s.ops += o.ops
	s.failed += o.failed
	s.wall += o.wall
	s.cpu += o.cpu
	s.lats = append(s.lats, o.lats...)
	s.traces = append(s.traces, o.traces...)
}

// timeOp runs one op from a single caller and charges its wall time,
// its latency and the process CPU it used to s. It returns f's result.
func (s *runStats) timeOp(f func() bool) bool {
	c0 := cpuNow()
	t0 := time.Now()
	ok := f()
	d := time.Since(t0)
	s.cpu += cpuNow() - c0
	s.wall += d
	s.lats = append(s.lats, d)
	s.ops++
	if !ok {
		s.failed++
	}
	return ok
}

// cpuNow is the process's user+system CPU time so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssSampler tracks the process's peak resident set while the timed
// ops run, sampling every rssInterval. The set-up is left out: its peak
// depends on when the garbage collector happened to run while inputs
// were generated, and set-up has its own metric.
type rssSampler struct {
	peak   atomic.Int64 // bytes, since the last takePeak
	done   chan struct{}
	exited chan struct{}
}

const rssInterval = 10 * time.Millisecond

func startRSSSampler() *rssSampler {
	s := &rssSampler{done: make(chan struct{}), exited: make(chan struct{})}
	s.peak.Store(residentBytes())
	go func() {
		defer close(s.exited)
		tick := time.NewTicker(rssInterval)
		defer tick.Stop()
		for {
			select {
			case <-s.done:
				return
			case <-tick.C:
				s.raise(residentBytes())
			}
		}
	}()
	return s
}

func (s *rssSampler) raise(v int64) {
	for p := s.peak.Load(); v > p && !s.peak.CompareAndSwap(p, v); p = s.peak.Load() {
	}
}

// takePeak returns the peak in MiB since the previous call and starts
// tracking anew from the current resident set.
func (s *rssSampler) takePeak() float64 {
	now := residentBytes()
	s.raise(now)
	return float64(s.peak.Swap(now)) / (1 << 20)
}

func (s *rssSampler) stop() {
	close(s.done)
	<-s.exited
}

// residentBytes is the process's current resident set, from
// /proc/self/statm (0 where that file does not exist).
func residentBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseInt(f[1], 10, 64)
	return pages * int64(os.Getpagesize())
}

// percentile is the nearest-rank p-quantile of ds.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(float64(len(s))*p+0.999999) - 1
	return s[max(0, min(i, len(s)-1))]
}

func medianOf[T any](xs []T, field func(T) float64) float64 {
	vs := make([]float64, len(xs))
	for i, x := range xs {
		vs[i] = field(x)
	}
	return median(vs)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// hostCPU holds the per-CPU lines of /proc/stat: total and steal ticks
// of each virtual CPU. Steal is time a virtual CPU had work but the
// hypervisor ran someone else; a run with a high steal share is noisy for
// reasons outside the program.
type hostCPU []struct{ total, steal uint64 }

func readHostCPU() hostCPU {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return nil
	}
	defer f.Close()
	var h hostCPU
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || !strings.HasPrefix(fields[0], "cpu") || fields[0] == "cpu" {
			continue
		}
		h = append(h, struct{ total, steal uint64 }{})
		c := &h[len(h)-1]
		// user nice system idle iowait irq softirq steal; guest time is
		// already counted in user.
		for i, f := range fields[1:9] {
			v, _ := strconv.ParseUint(f, 10, 64)
			c.total += v
			if i == 7 {
				c.steal = v
			}
		}
	}
	return h
}

// stealPct is the largest share of any one CPU's time stolen between h
// and later. The largest, not the mean: a single-threaded workload is
// slowed by steal on the CPU it runs on, which the mean over an idle
// second CPU would halve.
func (h hostCPU) stealPct(later hostCPU) float64 {
	var pct float64
	for i := range h {
		if i >= len(later) || later[i].total <= h[i].total {
			continue
		}
		pct = max(pct, 100*float64(later[i].steal-h[i].steal)/float64(later[i].total-h[i].total))
	}
	return pct
}

// The calm gate. On a shared virtual machine the hypervisor steals CPU
// time in episodes that last one to four minutes; during one, /proc/stat
// shows 10-30% of all CPU time stolen in every half second and the
// program runs 15-75% slower; even 8-13% steal adds a third to the
// slowest decile of op latency. A segment during which more than
// calmSteal of a CPU's time was stolen is discarded (its ops still count
// in attempted and failed) and the run waits for the episode to pass.
// Waiting ends calmUntil after the process started; from then on every
// segment is kept, so a run always ends within three minutes. The gate
// reads a host signal, never the metrics, so it cannot prefer fast
// segments.
const (
	calmSteal  = 10.0 // percent of one CPU's time
	calmUntil  = 110 * time.Second
	stealProbe = 250 * time.Millisecond
)

type calmGate struct {
	deadline  time.Time
	discarded int
	waited    time.Duration
}

func newCalmGate(processStart time.Time) *calmGate {
	return &calmGate{deadline: processStart.Add(calmUntil)}
}

// discard reports whether a segment that saw steal percent of a CPU's
// time stolen is dropped.
func (g *calmGate) discard(steal float64) bool {
	if steal <= calmSteal || time.Now().After(g.deadline) {
		return false
	}
	g.discarded++
	return true
}

// wait returns once a probe sees the host calm or the deadline passes.
func (g *calmGate) wait() {
	for time.Now().Before(g.deadline) {
		steal := probeSteal(stealProbe)
		g.waited += stealProbe
		if steal <= calmSteal {
			return
		}
	}
}

// probeSteal keeps every CPU busy for d and returns stealPct over it. The CPUs must be busy: steal accrues only while
// a virtual CPU has work to run.
func probeSteal(d time.Duration) float64 {
	h0 := readHostCPU()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	time.Sleep(d)
	close(stop)
	wg.Wait()
	return h0.stealPct(readHostCPU())
}
