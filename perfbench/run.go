package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// windows is how many equal slices a measured phase is cut into. Every
// figure of an end-to-end run is the median of its slices' figures, so
// an event that spans one or two slices (a neighbour's burst on the
// machine, a journal compaction) does not move it.
const windows = 5

// window is what one slice of the open loop measured.
type window struct {
	reads, writes  latencies
	ops            int64
	cpu            time.Duration
	mallocs, bytes uint64
}

// phase is what one open-loop phase measured.
type phase struct {
	win           [windows]window
	all           window
	lag           latencies
	ops           int64
	before, after progCounters
	rt            rtDelta
	sampled       []op
	spans         int
}

// openPhase runs the open loop for d at the workload's rate. With log
// set, every request gets a span and every sampleEvery-th request is
// kept for replay.
func (b *bench) openPhase(r rig, d time.Duration, seed int64, log *spanLog, sampleEvery int, replayable func(op) bool) *phase {
	ph := &phase{}
	gen := newGenerator(b.w.mix, seed)
	arr := newArrivals(seed, b.w.rate)
	var start time.Time
	observe := func(oc outcome) {
		b.tally(oc)
		lat := oc.end.Sub(oc.due)
		if oc.err != nil {
			// A failed request misses any latency limit.
			lat = d
		}
		b.mu.Lock()
		defer b.mu.Unlock()
		w := &ph.win[slice(oc.due.Sub(start), d)]
		for _, into := range []*window{w, &ph.all} {
			if oc.o.kind.write() {
				into.writes.add(lat)
			} else {
				into.reads.add(lat)
			}
			into.ops++
		}
		ph.lag.add(oc.start.Sub(oc.due))
		ph.ops++
		if log != nil {
			log.add(uint64(ph.ops), 0, "op."+kindName(oc.o.kind), oc.start, oc.end)
			if sampleEvery > 0 && ph.ops%int64(sampleEvery) == 0 && replayable(oc.o) {
				ph.sampled = append(ph.sampled, oc.o)
			}
		}
	}
	runtime.GC()
	ph.before = r.counters()
	rt0 := readRuntime()
	start = time.Now()
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Resource use is read at every slice boundary.
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		cpu0 := cpuTime()
		for k := range ph.win {
			time.Sleep(time.Until(start.Add(d * time.Duration(k+1) / windows)))
			runtime.ReadMemStats(&ms1)
			cpu1 := cpuTime()
			ph.win[k].cpu, ph.win[k].mallocs, ph.win[k].bytes = cpu1-cpu0, ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
			ms0, cpu0 = ms1, cpu1
		}
	}()
	openLoop(context.Background(), d, gen.next, arr, b.clients, maxInFlight, r.exec, observe)
	<-done
	ph.rt = readRuntime().since(rt0)
	ph.after = r.counters()
	if log != nil {
		ph.spans = log.len()
	}
	return ph
}

// slice is the window an offset into a phase of length d falls in.
func slice(off, d time.Duration) int {
	k := int(off * windows / d)
	if k < 0 {
		return 0
	}
	if k >= windows {
		return windows - 1
	}
	return k
}

// perWindow is the median over the phase's windows of f.
func (ph *phase) perWindow(f func(w *window) float64) float64 {
	v := make([]float64, windows)
	for k := range ph.win {
		v[k] = f(&ph.win[k])
	}
	return median(v)
}

func kindName(k opKind) string {
	return [...]string{"read", "presence", "shield", "coverage"}[k]
}

// closedPhase runs every load client closed-loop for d and returns the
// median over windows of correct answers per second.
func (b *bench) closedPhase(r rig, d time.Duration, seed int64) float64 {
	var good [windows]int64
	start := time.Now()
	closedLoop(context.Background(), d, b.closedGens(seed), r.exec, func(oc outcome) {
		b.tally(oc)
		if oc.err == nil {
			b.mu.Lock()
			good[slice(oc.end.Sub(start), d)]++
			b.mu.Unlock()
		}
	})
	rates := make([]float64, windows)
	for k, n := range good {
		rates[k] = float64(n) / (d / windows).Seconds()
	}
	return median(rates)
}

// runEndToEnd is the untraced run: set up three times (median reported),
// then an open-loop phase at the fixed rate (latency, CPU and
// allocations) and, with extra, a closed-loop phase (goodput) 40% as
// long.
func (b *bench) runEndToEnd() (*result, error) {
	var setupS []float64
	var r rig
	for k := 0; k < setups; k++ {
		if r != nil {
			r.close()
			runtime.GC()
		}
		var d time.Duration
		var err error
		if r, d, err = b.setup(b.seed); err != nil {
			return nil, err
		}
		setupS = append(setupS, d.Seconds())
	}
	defer r.close()
	open := b.openPhase(r, b.d, b.seed, nil, 0, nil)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	lat := func(read, tail bool) float64 {
		return open.perWindow(func(w *window) float64 {
			l := &w.writes
			if read {
				l = &w.reads
			}
			p50, t, _, _ := l.summary()
			if tail {
				return t
			}
			return p50
		})
	}
	perOp := func(f func(w *window) float64) func(w *window) float64 {
		return func(w *window) float64 { return f(w) / float64(w.ops) }
	}
	m := map[string]metric{
		"setup_s":         {median(setupS), "s"},
		"cpu_us_per_op":   {open.perWindow(perOp(func(w *window) float64 { return float64(w.cpu.Microseconds()) })), "us"},
		"allocs_per_op":   {open.perWindow(perOp(func(w *window) float64 { return float64(w.mallocs) })), "count"},
		"alloc_kb_per_op": {open.perWindow(perOp(func(w *window) float64 { return float64(w.bytes) / 1024 })), "KB"},
		"heap_live_mb":    {float64(ms.HeapAlloc) / (1 << 20), "MB"},
	}
	// Wall-clock figures are reported on request and not bounded: on a
	// shared two-core virtual machine, where the host takes back up to a
	// third of the CPU (and slows fsync) in episodes that last minutes,
	// latency medians of identical runs differ by up to 2.7x and goodput
	// by 2x, and tails are set by a few rare events per window.
	if b.extra {
		m["goodput_rps"] = metric{b.closedPhase(r, b.d*4/10, b.seed+1), "1/s"}
		m["p50_ms"] = metric{lat(true, false), "ms"}
		m["write_p50_ms"] = metric{lat(false, false), "ms"}
		m["p99_ms"] = metric{lat(true, true), "ms"}
		m["write_p99_ms"] = metric{lat(false, true), "ms"}
		m["error_rate"] = metric{b.errorRate(), "ratio"}
	}
	_, _, tp, nr := open.win[0].reads.summary()
	_, _, wtp, nw := open.win[0].writes.summary()
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: first window reads n=%d tail=p%.2f, writes n=%d tail=p%.2f; error_rate=%.6f\n",
		b.w.name, b.seed, nr, tp, nw, wtp, b.errorRate())
	return b.result(m), nil
}

func (b *bench) errorRate() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.attempted == 0 {
		return 0
	}
	return float64(b.failed) / float64(b.attempted)
}

func (b *bench) result(m map[string]metric) *result {
	b.mu.Lock()
	defer b.mu.Unlock()
	return &result{Correct: b.failed == 0 && b.attempted > 0, Attempted: b.attempted, Failed: b.failed, Metrics: m}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rtSample reads the Go runtime's own GC accounting.
type rtSample struct {
	gcCPU, totalCPU float64
	cycles          uint64
	pauses          *metrics.Float64Histogram
}

type rtDelta struct {
	gcCPU, totalCPU float64
	cycles          uint64
	pauseP99        float64 // seconds
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	out := rtSample{}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.totalCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		out.cycles = s[2].Value.Uint64()
	}
	if s[3].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[3].Value.Float64Histogram()
		out.pauses = &metrics.Float64Histogram{Counts: append([]uint64(nil), h.Counts...), Buckets: h.Buckets}
	}
	return out
}

// since is the change from an earlier sample; the pause percentile is
// taken over the pauses between the two.
func (s rtSample) since(old rtSample) rtDelta {
	d := rtDelta{gcCPU: s.gcCPU - old.gcCPU, totalCPU: s.totalCPU - old.totalCPU, cycles: s.cycles - old.cycles}
	if s.pauses == nil || old.pauses == nil {
		return d
	}
	var total uint64
	counts := make([]uint64, len(s.pauses.Counts))
	for i := range counts {
		counts[i] = s.pauses.Counts[i] - old.pauses.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return d
	}
	want := uint64(math.Ceil(0.99 * float64(total)))
	var run uint64
	for i, c := range counts {
		run += c
		if run >= want {
			hi := s.pauses.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = s.pauses.Buckets[i]
			}
			d.pauseP99 = hi
			break
		}
	}
	return d
}

// runTraced is the traced run: set up once, an untraced open-loop phase
// (the baseline the overhead is measured against, and the counters), a
// traced one that records a span per request and samples requests, and
// then the replay of the samples through the layers.
func (b *bench) runTraced() (*result, error) {
	r, _, err := b.setup(b.seed)
	if err != nil {
		return nil, err
	}
	defer r.close()
	third := b.d / 3
	plain := b.openPhase(r, third, b.seed, nil, 0, nil)
	log := &spanLog{}
	expected := int(b.w.rate * third.Seconds())
	every := expected / (replayReads + replayWrites)
	if every < 1 {
		every = 1
	}
	traced := b.openPhase(r, third, b.seed+1, log, every, func(o op) bool {
		return !o.kind.write() || o.kind == opShield || o.kind == opCoverage
	})

	led, err := b.replayAll(r, log, traced.sampled)
	if err != nil {
		return nil, err
	}
	m := led.metrics()
	p50, _, _, _ := plain.all.reads.summary()
	tp50, _, _, _ := traced.all.reads.summary()
	ops := float64(plain.ops)
	c0, c1 := plain.before, plain.after
	m["policy.deny_ratio"] = metric{ratio(c1.denied-c0.denied, c1.resolves-c0.resolves), "ratio"}
	m["core.cache_hit_ratio"] = metric{ratio(c1.cacheHits-c0.cacheHits, c1.cacheHits-c0.cacheHits+c1.cacheMisses-c0.cacheMisses), "ratio"}
	m["core.bytes_proxied_per_op"] = metric{float64(c1.bytes-c0.bytes) / ops, "bytes"}
	m["flight.coalesce_ratio"] = metric{ratio(c1.coalesced-c0.coalesced, c1.coalesced-c0.coalesced+c1.flights-c0.flights), "ratio"}
	m["overload.queued_ratio"] = metric{ratio(c1.queued-c0.queued, c1.admitted-c0.admitted), "ratio"}
	m["overload.shed_ratio"] = metric{ratio(c1.shed-c0.shed, c1.admitted-c0.admitted+c1.shed-c0.shed), "ratio"}
	m["resilience.retries_per_op"] = metric{float64(c1.retries-c0.retries) / ops, "count"}
	m["journal.records_per_sync"] = metric{ratio(c1.journalAppends-c0.journalAppends, c1.journalSyncs-c0.journalSyncs), "count"}
	m["trace.spans_per_op"] = metric{float64(traced.spans) / float64(traced.ops), "count"}
	m["trace.overhead_pct"] = metric{(tp50 - p50) / p50 * 100, "%"}
	m["runtime.gc_cpu_fraction"] = metric{plain.rt.gcCPU / plain.rt.totalCPU, "ratio"}
	m["runtime.gc_cycles_per_kop"] = metric{float64(plain.rt.cycles) / ops * 1000, "count"}
	m["runtime.gc_pause_p99_us"] = metric{plain.rt.pauseP99 * 1e6, "us"}
	lag := append([]float64(nil), plain.lag.ms...)
	sort.Float64s(lag)
	m["loadgen.lag_p99_ms"] = metric{percentile(lag, 99), "ms"}
	m["ledger.attributed_share"] = metric{led.attributedUS / 1000 / p50, "ratio"}
	m["ledger.unattributed_us"] = metric{p50*1000 - led.attributedUS, "us"}
	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			m[k] = metric{0, v.Unit}
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d traced: p50 %.3f ms untraced, %.3f ms traced; %d reads and %d writes replayed; error_rate=%.6f\n",
		b.w.name, b.seed, p50, tp50, led.reads, led.writes, b.errorRate())
	return b.result(m), nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// replayReads and replayWrites cap how many sampled requests the traced
// run replays.
const (
	replayReads  = 300
	replayWrites = 100
)

var errNoSamples = errors.New("traced run sampled no requests to replay")
