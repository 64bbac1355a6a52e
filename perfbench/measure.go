package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// usage is a point-in-time reading of the process and host counters the
// benchmark differences over a timed window.
type usage struct {
	wall       time.Time
	cpu        time.Duration // process user+sys (rusage)
	allocBytes uint64        // cumulative heap allocation
	gcCPU      float64       // runtime estimate of GC CPU seconds
	totalCPU   float64       // runtime estimate of all CPU seconds
	steal      uint64        // host jiffies stolen by the hypervisor
	jiffies    uint64        // host jiffies in all states
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readUsage() usage {
	u := usage{wall: time.Now(), cpu: cpuTime()}
	metrics.Read(runtimeSamples)
	u.allocBytes = runtimeSamples[0].Value.Uint64()
	u.gcCPU = runtimeSamples[1].Value.Float64()
	u.totalCPU = runtimeSamples[2].Value.Float64()
	u.steal, u.jiffies = readProcStat()
	return u
}

// readProcStat returns the steal and total jiffies of the aggregate "cpu"
// line of /proc/stat (zeros where the file is unavailable).
func readProcStat() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already inside user and nice.
	for i, f := range fields[1:9] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// cpuTime is the process's user+sys CPU time so far (rusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// window is what happened between two usage readings.
type window struct {
	peakMB   float64 // peak RSS over the window
	cpu      time.Duration
	allocMB  float64
	gcPct    float64
	stealPct float64
}

func (u usage) since(start usage) window {
	w := window{
		peakMB:  peakRSSMB(),
		cpu:     u.cpu - start.cpu,
		allocMB: float64(u.allocBytes-start.allocBytes) / (1 << 20),
	}
	if d := u.totalCPU - start.totalCPU; d > 0 {
		w.gcPct = 100 * (u.gcCPU - start.gcCPU) / d
	}
	if d := u.jiffies - start.jiffies; d > 0 {
		w.stealPct = 100 * float64(u.steal-start.steal) / float64(d)
	}
	return w
}

// resetPeakRSS returns the heap's free pages to the OS and restarts the
// kernel's peak-RSS mark (VmHWM), so that the next peakRSSMB covers only
// what follows: the timed window, not the references and set-up samples
// run before it.
func resetPeakRSS() {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: cannot reset the peak RSS mark: %v\n", err)
	}
}

// peakRSSMB is the process's peak resident set since resetPeakRSS
// (VmHWM), or over its whole life (rusage maxrss) where /proc lacks it.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// loadAvg1 is the host's one-minute load average.
func loadAvg1() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64)
	return v
}

// pct returns the nearest-rank p-quantile (0 < p <= 1) of ds in
// milliseconds, 0 for no samples.
func pct(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(float64(len(s))*p+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return ms(s[i])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// span is one traced interval. Spans of one op share Op; Parent is the
// index of the enclosing span or -1.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory around the benchmark's own calls into
// the program. A nil *tracer records nothing, so untraced runs take the
// same code path minus the bookkeeping.
type tracer struct {
	t0    time.Time
	spans []span
}

// forOp returns the tracer for op i: a traced run traces every other op,
// so that the untraced ops in between measure the tracing overhead under
// the same host conditions.
func (t *tracer) forOp(i int) *tracer {
	if i%2 == 0 {
		return nil
	}
	return t
}

// add records a finished span and returns its index (-1 when off).
func (t *tracer) add(name string, op, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name, op, parent, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

// begin opens a span whose end is set later by finish.
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Now()
	return t.add(name, op, parent, now, now)
}

func (t *tracer) finish(id int) { t.finishAt(id, time.Now()) }

func (t *tracer) finishAt(id int, end time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = end.Sub(t.t0).Nanoseconds()
}

// selfTimes sums, per span name, each span's duration minus the part of
// it that its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		ivs := make([][2]int64, 0, len(children[i]))
		for _, c := range children[i] {
			lo, hi := max(t.spans[c].Start, s.Start), min(t.spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, reach int64 = 0, s.Start
		for _, iv := range ivs {
			if iv[0] > reach {
				reach = iv[0]
			}
			if iv[1] > reach {
				covered += iv[1] - reach
				reach = iv[1]
			}
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// counts is a named set of work counters that must repeat exactly from
// one op to the next at the same seed.
type counts map[string]int64

// diff lists the counters on which c differs from ref.
func (c counts) diff(ref counts) []string {
	var out []string
	for k, want := range ref {
		if got := c[k]; got != want {
			out = append(out, fmt.Sprintf("%s=%d (reference %d)", k, got, want))
		}
	}
	for k, got := range c {
		if _, ok := ref[k]; !ok {
			out = append(out, fmt.Sprintf("%s=%d (reference has none)", k, got))
		}
	}
	sort.Strings(out)
	return out
}

// setupSampler takes a run's set-up samples in two halves, one before
// the untraced window and one after it, so that their median does not
// hang on how fast the host was at one moment. The halves stay out of the
// window: between its ops they would leave garbage and cache misses that
// the ops would pay for.
type setupSampler struct {
	build   func() (time.Duration, error)
	want    int
	samples []time.Duration
}

// takeHalf takes the first half of the samples.
func (s *setupSampler) takeHalf() error { return s.takeUpTo(s.want / 2) }

// finish takes the rest and returns the median of all, in seconds.
func (s *setupSampler) finish() (float64, error) {
	if err := s.takeUpTo(s.want); err != nil {
		return 0, err
	}
	return pct(s.samples, 0.5) / 1000, nil
}

func (s *setupSampler) takeUpTo(n int) error {
	for len(s.samples) < n {
		d, err := s.build()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		s.samples = append(s.samples, d)
	}
	return nil
}

// backToBack runs a batch workload's ops one after another until the
// window is over. The CPU time the ops spend in harnessCPU (checking
// outputs, removing stores) is not the program's and is left out.
func backToBack(window time.Duration, tr *tracer, op func(w *opsWindow, i int)) *opsWindow {
	w := &opsWindow{spans: tr}
	resetPeakRSS()
	start := readUsage()
	for i := 0; time.Since(start.wall) < window; i++ {
		op(w, i)
	}
	w.use = readUsage().since(start)
	w.use.cpu -= w.harnessCPU
	return w
}
