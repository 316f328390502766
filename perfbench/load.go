package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// A measured pass runs in slices of equal instance count: chunks slices of
// the fixed work, then more while fewer than quietSlices of the slices so
// far were quiet, up to maxSlices. A slice is quiet when the hypervisor
// stole at most quietSteal of the machine's CPU time during it (/proc/stat).
// On a shared runner steal comes in bursts, from a second to a minute or
// more, that double tail latency while they last; no program change causes
// it. Timing metrics come from the quiet slices, or from the quietSlices
// least-stolen ones when the cap is reached first, so a burst is waited out
// (within the cap) instead of read as a slowdown. With no steal at all the
// pass is exactly the fixed work and every slice counts.
const (
	chunks      = 20
	quietSlices = 10
	maxSlices   = 3 * chunks
	quietSteal  = 0.02
)

// passSize returns the instances in one slice of a pass whose fixed work is
// total instances, and the most instances the pass can run.
func passSize(total int) (per, most int) {
	per = max(total/chunks, 1)
	return per, per * maxSlices
}

// setupRepeats is how many fresh set-ups a run times, setupGap the pause
// between two of them. One set-up takes a few milliseconds, so a single
// burst of steal would cover back-to-back repeats; spaced out, the median
// over the least-stolen ones stays steady.
const (
	setupRepeats = 11
	setupGap     = 100 * time.Millisecond
)

// sample is one timing with the share of CPU time stolen while it ran.
type sample struct{ v, steal float64 }

// quiet returns the elements whose steal is at most quietSteal, or at most
// the want-th smallest steal when fewer than want are.
func quiet[T any](xs []T, want int, steal func(T) float64) []T {
	steals := make([]float64, len(xs))
	for i, x := range xs {
		steals[i] = steal(x)
	}
	limit := math.Max(quietSteal, sortedCopy(steals)[min(want, len(xs))-1])
	var q []T
	for _, x := range xs {
		if steal(x) <= limit {
			q = append(q, x)
		}
	}
	return q
}

// quietSetups returns the quiet set-ups, or those at most as stolen as the
// median one when fewer than half are quiet.
func quietSetups(xs []sample) []sample {
	return quiet(xs, (len(xs)+1)/2, func(s sample) float64 { return s.steal })
}

// quietMedian is the median value of the quiet set-ups.
func quietMedian(xs []sample) float64 {
	var vs []float64
	for _, x := range quietSetups(xs) {
		vs = append(vs, x.v)
	}
	return median(vs)
}

// timeSetups runs setup setupRepeats times, spaced by setupGap. Each call
// returns the duration it measured; a call's steal is taken around it.
func timeSetups(setup func(k int) (time.Duration, error)) ([]sample, error) {
	var xs []sample
	for k := 0; k < setupRepeats; k++ {
		if k > 0 {
			time.Sleep(setupGap)
		}
		s0 := readSteal()
		d, err := setup(k)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", k, err)
		}
		xs = append(xs, sample{v: d.Seconds(), steal: readSteal().since(s0)})
	}
	return xs, nil
}

// outcome is what one instance returned to its caller.
type outcome struct {
	latency time.Duration
	err     error // the call failed: counts as exceeding any latency limit
	ok      bool  // err == nil && Converged && Valid()
}

// chunk is the measurement of one slice of consecutive instances.
type chunk struct {
	wall, cpu time.Duration
	n, ok     int
	steal     float64   // share of the machine's CPU time stolen during the slice
	latencies []float64 // ms, +Inf for instances whose call failed
}

// phase is the measurement of one closed-loop pass.
type phase struct {
	// base is the fixed work, always run; attempted adds the slices run to
	// wait out steal.
	base, attempted, ok, errs int
	outs                      []outcome // by instance index
	chunks                    []chunk
	mallocs, numGC            uint64
	heapLiveMB                float64 // HeapAlloc after forced GCs at the end of the work
	// stealFrac is the share of the machine's CPU time the hypervisor took
	// away during the pass: interference no program change causes.
	stealFrac float64
}

// closedLoop runs a pass whose fixed work is total instances (rounded down
// to whole slices) over the given number of clients; see chunks for when
// it runs more. Each client takes the next instance only after its previous
// one returned, so the system is never offered more than `clients`
// instances at once. The heap is collected before timing starts, so garbage
// from set-up and warm-up is not charged to the measured work.
//
// Wall time, CPU time and steal are read whenever a client claims the first
// instance of a slice; a slice's time runs from that reading to the next
// slice's. Instance indices run from 0 to at most passSize's most.
func closedLoop(total, clients int, do func(i int) outcome) phase {
	per, most := passSize(total)
	type mark struct {
		at  time.Time
		cpu time.Duration
		ticks
	}
	now := func() mark { return mark{time.Now(), cpuTime(), readSteal()} }
	marks := make([]mark, maxSlices+1)
	outs := make([]outcome, most)    // sized for the cap, so the heap does not depend on steal
	quietBefore := func(s int) int { // quiet slices among the first s
		n := 0
		for c := 0; c < s; c++ {
			if marks[c+1].since(marks[c].ticks) <= quietSteal {
				n++
			}
		}
		return n
	}
	var (
		mu      sync.Mutex
		next    int
		stopped bool
	)
	// claim returns the next instance index, or false once the pass is over.
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if stopped {
			return 0, false
		}
		i := next
		if s := i / per; i%per == 0 {
			marks[s] = now()
			if s >= chunks && (s == maxSlices || quietBefore(s) >= quietSlices) {
				stopped = true
				return 0, false
			}
		}
		next++
		return i, true
	}
	runtime.GC()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := readSteal()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := claim()
				if !ok {
					return
				}
				outs[i] = do(i)
			}
		}()
	}
	wg.Wait()
	nc := next / per
	marks[nc] = now()
	p := phase{base: per * chunks, attempted: next, outs: outs[:next]}
	p.stealFrac = readSteal().since(t0)
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	p.mallocs = ms1.Mallocs - ms0.Mallocs
	p.numGC = uint64(ms1.NumGC - ms0.NumGC)
	// Two collections empty the sync.Pool caches (the first moves them to
	// the victim cache, the second drops it), so the figure does not depend
	// on whether a collection happened to run just before the pass ended.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	p.heapLiveMB = float64(ms1.HeapAlloc) / (1 << 20)
	for c := 0; c < nc; c++ {
		lo, hi := c*per, (c+1)*per
		ch := chunk{wall: marks[c+1].at.Sub(marks[c].at), cpu: marks[c+1].cpu - marks[c].cpu, n: per}
		ch.steal = marks[c+1].since(marks[c].ticks)
		for _, o := range outs[lo:hi] {
			lat := float64(o.latency) / float64(time.Millisecond)
			switch {
			case o.err != nil:
				p.errs++
				lat = math.Inf(1)
			case o.ok:
				ch.ok++
			}
			ch.latencies = append(ch.latencies, lat)
		}
		p.ok += ch.ok
		p.chunks = append(p.chunks, ch)
	}
	return p
}

// quietChunks returns the pass's quiet slices (see chunks).
func (p phase) quietChunks() []chunk {
	return quiet(p.chunks, quietSlices, func(c chunk) float64 { return c.steal })
}

// perChunk returns the median of f over the pass's quiet slices.
func (p phase) perChunk(f func(c chunk) float64) float64 {
	var xs []float64
	for _, c := range p.quietChunks() {
		xs = append(xs, f(c))
	}
	return median(xs)
}

// latencyMS is the q-quantile latency over every instance of the pass's
// quiet slices, and how many instances that is.
func (p phase) latencyMS(q float64) (float64, int) {
	var lat []float64
	for _, c := range p.quietChunks() {
		lat = append(lat, c.latencies...)
	}
	sort.Float64s(lat)
	return percentile(lat, q), len(lat)
}

// endToEnd records the phase's end-to-end metrics. setup holds the fresh
// set-up timings of the run, in seconds.
func (p phase) endToEnd(r *report, setup []sample) {
	r.attempted, r.failed = p.attempted, p.attempted-p.ok
	perSlice := fmt.Sprintf("median of the %d quiet of %d slices of %d instances",
		len(p.quietChunks()), len(p.chunks), p.attempted/len(p.chunks))
	r.set("setup_s", quietMedian(setup), "s")
	r.samples["setup_s"] = fmt.Sprintf("median of the %d least-stolen of %d fresh set-ups", len(quietSetups(setup)), len(setup))
	rate := func(c chunk) float64 { return float64(c.ok) / c.wall.Seconds() }
	r.set("instances_per_s", p.perChunk(rate), "1/s")
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, c := range p.chunks {
		lo, hi = math.Min(lo, rate(c)), math.Max(hi, rate(c))
	}
	r.samples["instances_per_s"] = fmt.Sprintf("%s; all slices ranged %.4g–%.4g", perSlice, lo, hi)
	for _, q := range []struct {
		name string
		q    float64
	}{{"latency_p50_ms", 0.50}, {"latency_p95_ms", 0.95}} {
		v, n := p.latencyMS(q.q)
		r.set(q.name, v, "ms")
		r.samples[q.name] = fmt.Sprintf("over the %d instances of the %d quiet of %d slices", n, len(p.quietChunks()), len(p.chunks))
	}
	r.set("cpu_ms_per_instance", p.perChunk(func(c chunk) float64 {
		return float64(c.cpu) / float64(time.Millisecond) / float64(c.n)
	}), "ms")
	r.samples["cpu_ms_per_instance"] = perSlice
	r.set("ok_frac", float64(p.ok)/float64(p.attempted), "frac")
	r.samples["ok_frac"] = fmt.Sprintf("%d of %d instances", p.ok, p.attempted)
	r.set("heap_live_mb", p.heapLiveMB, "MB")
	p.passFacts(r)
}

// passFacts records how much steal the pass met and how many slices it ran.
func (p phase) passFacts(r *report) {
	r.facts["steal_frac"] = fmt.Sprintf("%.4f", p.stealFrac)
	r.facts["slices"] = fmt.Sprintf("%d run, %d quiet", len(p.chunks), len(p.quietChunks()))
}

// checkVerdicts fails the run if an instance returned an error, or was not
// converged or not valid. On a workload with a known defect the wrong
// verdicts are noted with their count instead; ok_frac reports them.
func checkVerdicts(r *report, w *workload, p phase) {
	if p.errs > 0 {
		r.fail("%d of %d instances returned an error", p.errs, p.attempted)
	}
	bad := p.attempted - p.ok - p.errs
	switch {
	case w.defect != "":
		r.notes = append(r.notes, fmt.Sprintf("known defect: %s; this pass: %d of %d instances not converged or not valid",
			w.defect, bad, p.attempted))
	case bad > 0:
		r.fail("%d of %d instances not converged or not valid", bad, p.attempted)
	}
}

// runtimeLayer records the allocation and GC pressure of an untraced phase.
func (p phase) runtimeLayer(r *report) {
	r.set("runtime.allocs_per_instance", float64(p.mallocs)/float64(p.attempted), "count")
	r.set("runtime.gc_per_1k_instances", 1000*float64(p.numGC)/float64(p.attempted), "count")
}

// percentile returns the nearest-rank q-quantile of ascending values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median returns the middle value (mean of the middle two) of xs.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ticks is a reading of the machine's CPU time accounting: the ticks the
// hypervisor stole and all ticks.
type ticks struct{ steal, total uint64 }

// readSteal reads the aggregate line of /proc/stat. Where the file is
// unavailable it returns zeros, and every steal share reads 0.
func readSteal() ticks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return ticks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return ticks{}
	}
	var t ticks
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return ticks{}
		}
		t.total += v
		if i == 7 { // user nice system idle iowait irq softirq steal ...
			t.steal = v
		}
	}
	return t
}

// since returns the share of CPU time stolen between reading t0 and t.
func (t ticks) since(t0 ticks) float64 {
	if t.total <= t0.total {
		return 0
	}
	return float64(t.steal-t0.steal) / float64(t.total-t0.total)
}

// sortedCopy returns xs in ascending order, leaving xs as it was.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail on Linux.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
