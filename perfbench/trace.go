package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"govisor/internal/core"
)

// span is one timed call the benchmark made into a layer. Times are host
// nanoseconds since the tracer started; parent is the index of the
// enclosing span (-1 at the root) and unit the unit it worked for (-1 when
// it served the whole pass).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Unit   int    `json:"unit"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil *tracer records nothing, which is how untraced passes run. All
// spans are recorded from the goroutine driving the pass.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, unit int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.spans = append(t.spans, span{name, now, now, parent, unit})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
}

// add records a span whose bounds are already known.
func (t *tracer) add(name string, start, end time.Time, parent, unit int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name, int64(start.Sub(t.t0)), int64(end.Sub(t.t0)), parent, unit})
	return len(t.spans) - 1
}

// selfTimes sums each span name's self time: its duration minus the part
// of it that its child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	kids := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := map[string]float64{}
	for i, s := range t.spans {
		covered := int64(0)
		cur := s.Start
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return t.spans[ks[a]].Start < t.spans[ks[b]].Start })
		for _, k := range ks {
			c := t.spans[k]
			lo, hi := max64(c.Start, cur), min64(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.Name] += float64(s.End-s.Start-covered) / 1e6
	}
	return self
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// write saves the spans and their self times as JSON.
func (t *tracer) write(path string) error {
	out, err := json.Marshal(struct {
		SelfMs map[string]float64 `json:"self_ms"`
		Spans  []span             `json:"spans"`
	}{t.selfTimes(), t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, out, 0o644)
}

// epochClock times a RunParallel run from outside the engine. Host.EpochFunc
// marks each epoch barrier; in a traced pass it also wraps the scheduler,
// splitting each epoch into its lease phase (barrier → last BeginLease),
// execute phase (→ first Account) and barrier phase (→ EpochFunc), and
// timing every scheduler call.
type epochClock struct {
	res  *passResult
	tr   *tracer
	root int // the span of the RunParallel call

	last       time.Time // previous barrier (or the start of the run)
	lastLease  time.Time
	firstAcct  time.Time
	schedSpans []int // scheduler-call spans of the epoch in flight
	calls      uint64
	callNs     time.Duration
}

func (e *epochClock) epoch() {
	now := time.Now()
	e.res.ops = append(e.res.ops, float64(now.Sub(e.last))/1e6)
	e.res.sampleHeap()
	if e.tr != nil && !e.lastLease.IsZero() && !e.firstAcct.IsZero() {
		ep := e.tr.add("core.epoch", e.last, now, e.root, -1)
		lease := e.tr.add("core.epoch.lease", e.last, e.lastLease, ep, -1)
		exec := e.tr.add("core.epoch.execute", e.lastLease, e.firstAcct, ep, -1)
		barrier := e.tr.add("core.epoch.barrier", e.firstAcct, now, ep, -1)
		for _, id := range e.schedSpans {
			s := &e.tr.spans[id]
			switch {
			case s.Start < e.tr.spans[exec].Start:
				s.Parent = lease
			case s.Start < e.tr.spans[barrier].Start:
				s.Parent = exec
			default:
				s.Parent = barrier
			}
		}
		e.res.addSample("core.epoch_lease_ms", float64(e.lastLease.Sub(e.last))/1e6)
		e.res.addSample("core.epoch_execute_ms", float64(e.firstAcct.Sub(e.lastLease))/1e6)
		e.res.addSample("core.epoch_barrier_ms", float64(now.Sub(e.firstAcct))/1e6)
	}
	e.schedSpans = e.schedSpans[:0]
	e.lastLease, e.firstAcct = time.Time{}, time.Time{}
	e.last = now
}

// call times one scheduler call made by the engine.
func (e *epochClock) call(name string, f func()) {
	t := time.Now()
	f()
	end := time.Now()
	e.calls++
	e.callNs += end.Sub(t)
	e.schedSpans = append(e.schedSpans, e.tr.add(name, t, end, e.root, -1))
}

// timedSched is the traced-pass scheduler decorator. It forwards every
// call RunParallel makes to the real scheduler and reports it to the epoch
// clock; it implements core.LeaseScheduler, so RunParallel keeps leasing
// several VMs per epoch. (Add and Remove, used only before the run, pass
// straight through.)
type timedSched struct {
	core.LeaseScheduler
	c *epochClock
}

func (s timedSched) Next() (id int, q uint64, ok bool) {
	s.c.call("sched.Next", func() { id, q, ok = s.LeaseScheduler.Next() })
	return
}

func (s timedSched) Account(id int, used uint64) {
	if s.c.firstAcct.IsZero() {
		s.c.firstAcct = time.Now()
	}
	s.c.call("sched.Account", func() { s.LeaseScheduler.Account(id, used) })
}

func (s timedSched) Block(id int) { s.c.call("sched.Block", func() { s.LeaseScheduler.Block(id) }) }
func (s timedSched) Unblock(id int) {
	s.c.call("sched.Unblock", func() { s.LeaseScheduler.Unblock(id) })
}

func (s timedSched) BeginLease(id int) {
	s.c.call("sched.BeginLease", func() { s.LeaseScheduler.BeginLease(id) })
	s.c.lastLease = time.Now()
}

func (s timedSched) EndLease(id int) {
	s.c.call("sched.EndLease", func() { s.LeaseScheduler.EndLease(id) })
}

// cpuProfile records a traced run's CPU profile over the timed phase of
// every pass, one file per pass, leaving set-up, checks and digests out.
// The profiler is nil in an untraced run, and then records nothing.
type cpuProfile struct {
	dir   string // holds this run's profile files and nothing else
	files []string
	f     *os.File // the file being written, between start and stop
	err   error
}

var profiler *cpuProfile

func (c *cpuProfile) start() {
	if c == nil || c.err != nil {
		return
	}
	path := filepath.Join(c.dir, fmt.Sprintf("pass%d.pprof", len(c.files)))
	f, err := os.Create(path)
	if err != nil {
		c.err = err
		return
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		c.err = err
		return
	}
	c.f = f
	c.files = append(c.files, path)
}

func (c *cpuProfile) stop() {
	if c == nil || c.f == nil {
		return
	}
	pprof.StopCPUProfile()
	if err := c.f.Close(); err != nil && c.err == nil {
		c.err = fmt.Errorf("writing the CPU profile: %w", err)
	}
	c.f = nil
}

// checkLabel marks work inside a timed phase that checks results rather
// than drives the simulator; cpuShares leaves its samples out.
var checkLabel = pprof.Labels("perfbench", "check")

// cpuShares merges the profiles with `go tool pprof` and returns each
// package group's share of the sampled CPU time, attributing every sample
// to the function it was executing (flat time).
func (c *cpuProfile) cpuShares() (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0",
		"-unit=ms", "-tagignore=perfbench=check"}, c.files...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.Bytes())
	}
	shares := map[string]float64{}
	var total float64
	// Each row is "flat flat% sum% cum cum% function [(inline)]", after a
	// header that ends with the column titles.
	rows := false
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if !rows {
			rows = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) < 6 {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("go tool pprof: bad row %q", line)
		}
		shares[packageGroup(f[5])] += ms
		total += ms
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

// cpuGroups are the packages cpu_share.* reports; anything else is "other".
var cpuGroups = []string{"vcpu", "mmu", "tlb", "mem", "core", "sched", "virtio", "vnet", "migrate", "runtime"}

func packageGroup(fn string) string {
	name := strings.TrimPrefix(fn, "govisor/internal/")
	if i := strings.IndexAny(name, "./"); i > 0 {
		name = name[:i]
	}
	for _, g := range cpuGroups {
		if name == g {
			return g
		}
	}
	return "other"
}
