// Command perfbench is GUPster's CPU-bound benchmark: the real fabric in
// one process over loopback TCP, with no injected latency and no fault
// proxies, driven by one seeded load generator. See README.md.
//
//	perfbench --workload referral --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is the result object; --trace 1
// reports the per-layer ledger instead of the end-to-end metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// workloadSpec is one named workload.
type workloadSpec struct {
	name string
	mix  mix
	// rate is the open loop's offered rate, requests per second: about
	// half of what the fabric sustains closed-loop on two cores.
	rate  float64
	build func(seed int64, clients int, workdir string) (rig, error)
}

var workloads = []workloadSpec{
	{
		name: "referral",
		mix:  mix{owners: referralOwners, zipf: 1.2, presence: 0.05, readRoles: requestMix},
		rate: 1300,
		build: func(seed int64, clients int, _ string) (rig, error) {
			return newReferral(seed, clients)
		},
	},
	{
		name: "chaining_routed",
		mix:  mix{owners: chainingOwners, zipf: 1.2, presence: 0.10},
		rate: 250,
		build: func(seed int64, clients int, _ string) (rig, error) {
			return newChaining(seed, clients)
		},
	},
	{
		name:  "directory_churn",
		mix:   mix{owners: churnOwners, zipf: 1.2, shield: 0.20, coverage: 0.10, readRoles: requestMix},
		rate:  400,
		build: newChurn,
	},
}

func lookupWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name: referral, chaining_routed or directory_churn")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	traced := flag.Int("trace", 0, "1 reports the per-layer ledger from a traced run, 0 the end-to-end metrics")
	workdir := flag.String("workdir", ".bench_build/work", "scratch directory for journals")
	extra := flag.Bool("extra", false, "also report the unbounded end-to-end figures: goodput, read and write latency, error_rate")
	flag.Parse()
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	dir, err := filepath.Abs(filepath.Join(*workdir, fmt.Sprintf("%s-%d", w.name, os.Getpid())))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b := &bench{w: w, seed: *seed, d: time.Duration(*seconds) * time.Second, clients: runtime.NumCPU(), workdir: dir, extra: *extra}
	var res *result
	if *traced == 1 {
		res, err = b.runTraced()
	} else {
		res, err = b.runEndToEnd()
	}
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// bench is one run of one workload.
type bench struct {
	w       workloadSpec
	seed    int64
	d       time.Duration
	clients int
	workdir string
	extra   bool

	mu                sync.Mutex
	attempted, failed int64
	firstErr          error
}

// tally counts an outcome toward attempted and failed.
func (b *bench) tally(oc outcome) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if oc.err != nil {
		b.failed++
		if b.firstErr == nil {
			b.firstErr = oc.err
			fmt.Fprintf(os.Stderr, "perfbench: %s: first failure: %v\n", b.w.name, oc.err)
		}
	}
}

// setup builds the rig and warms it: every load client runs a short
// closed loop, so connections are dialed and pools filled before
// anything is timed. It returns the process CPU time set-up took: work
// moved into set-up shows there, while the wall-clock time of the same
// set-up moved by a third between sets of identical runs on a shared
// host.
func (b *bench) setup(seed int64) (rig, time.Duration, error) {
	start := cpuTime()
	r, err := b.w.build(seed, b.clients, b.workdir)
	if err != nil {
		return nil, 0, err
	}
	gens := b.closedGens(seed + 7_000_003)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var werr error
	for c := range gens {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < warmOps; i++ {
				if err := r.exec(context.Background(), c, gens[c]()); err != nil {
					mu.Lock()
					werr = err
					mu.Unlock()
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if werr == nil {
		if s, ok := r.(settler); ok {
			werr = s.settle(context.Background())
		}
	}
	if werr != nil {
		r.close()
		return nil, 0, fmt.Errorf("warm-up: %w", werr)
	}
	return r, cpuTime() - start, nil
}

// settler is a rig whose set-up ends at a fixed point of a cycle the
// program runs on its own.
type settler interface {
	settle(ctx context.Context) error
}

// warmOps is each load client's warm-up length.
const warmOps = 300

// setups is how many times an end-to-end run sets up, reporting the
// median.
const setups = 3

func (b *bench) closedGens(seed int64) []func() op {
	gens := make([]func() op, b.clients)
	for c := range gens {
		g := newGenerator(b.w.mix, seed+int64(c)*1_000_033)
		gens[c] = g.next
	}
	return gens
}
